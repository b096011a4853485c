// Package client implements the CFS client (paper Section 2.4): a
// user-space library holding the volume's partition map, per-partition
// leader caches, and inode/dentry caches, and driving the metadata
// workflows of Figure 3 and the data paths of Figures 4 and 5.
//
// Package core wraps this into a POSIX-like FileSystem/File API; the
// paper's FUSE integration is only a syscall shim over the same logic (the
// kernel-bypass client is explicitly future work in the paper), so the
// library boundary here preserves the measured code paths.
package client

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"cfs/internal/proto"
	"cfs/internal/transport"
	"cfs/internal/util"
)

// Config tunes a mounted client.
type Config struct {
	// MaxRetries bounds per-op retries (Section 2.1.3). Default 3.
	MaxRetries int
	// PacketSize slices writes (Section 2.7.1). Default 128 KB.
	PacketSize int
	// SmallFileThreshold routes whole-file writes at or below it through
	// the aggregated small-file path (Section 2.2.1). Default 128 KB.
	SmallFileThreshold int
	// CacheTTL bounds inode/dentry cache staleness. Zero disables the
	// caches. Default 2s.
	CacheTTL time.Duration
	// RefreshInterval re-pulls the volume view from the master
	// (Section 2.4). Zero disables background refresh (tests call
	// Refresh explicitly). Default 0.
	RefreshInterval time.Duration
	// DisableBatchInodeGet turns off the batched readdir+stat path
	// (Section 4.2), degrading to one InodeGet per entry - the
	// Ceph-style ablation baseline.
	DisableBatchInodeGet bool
	// DisableLeaderCache turns off caching of the last identified
	// leader per partition (Section 2.4), so every read probes the
	// replicas in order.
	DisableLeaderCache bool
	// WriteWindow is how many packets a streaming writer keeps in flight
	// before blocking on acks. Default 16; at 1 it is stop-and-wait over
	// the stream.
	WriteWindow int
	// ReadWindow caps how many read requests a streaming reader keeps in
	// flight ahead of the consumer on a sequential run (the readahead
	// window). Below the cap the depth covers the read session's least
	// round trip, at least 4 requests (readDepth); on a fast link that
	// is less than the cap. Default 32; at 1 it is one request at a time
	// over a pinned stream.
	ReadWindow int
	// AckDeadline bounds how long a write or read session waits without
	// any reply progress before declaring itself hung and failing its
	// users (converting a half-open data node into a replayable error
	// instead of an indefinite Drain or ReadAt block). Default 15s -
	// deliberately above the data node's own follower ack deadline, so the
	// leader's ordered abort usually wins and this is the backstop for a
	// hung leader.
	AckDeadline time.Duration
	// KeepaliveInterval is how often a quiet session pings its data node,
	// proving liveness in both directions (and keeping the server's
	// idle-session reaper away). Default 5s.
	KeepaliveInterval time.Duration
	// Seed makes partition selection reproducible. Zero derives from
	// the volume name.
	Seed uint64

	// defaulted tracks whether Mount applied defaults (so zero-value
	// Config and explicit Config behave identically).
	defaulted bool
}

func (c Config) withDefaults(volume string) Config {
	if c.defaulted {
		return c
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.PacketSize == 0 {
		c.PacketSize = util.DefaultPacketSize
	}
	if c.SmallFileThreshold == 0 {
		c.SmallFileThreshold = util.DefaultSmallFileThreshold
	}
	if c.CacheTTL == 0 {
		c.CacheTTL = 2 * time.Second
	}
	if c.WriteWindow < 1 {
		c.WriteWindow = util.DefaultWriteWindow
	}
	if c.ReadWindow < 1 {
		c.ReadWindow = util.DefaultReadWindow
	}
	if c.AckDeadline == 0 {
		c.AckDeadline = 15 * time.Second
	}
	if c.KeepaliveInterval == 0 {
		c.KeepaliveInterval = 5 * time.Second
	}
	if c.Seed == 0 {
		var h uint64 = 14695981039346656037
		for i := 0; i < len(volume); i++ {
			h ^= uint64(volume[i])
			h *= 1099511628211
		}
		c.Seed = h | 1
	}
	c.defaulted = true
	return c
}

// DisableCaches returns a copy of the config with every client-side cache
// and optimization off (ablation baseline).
func (c Config) DisableCaches() Config {
	c.CacheTTL = -1
	c.DisableBatchInodeGet = true
	c.DisableLeaderCache = true
	return c
}

// Client is a mounted CFS volume.
type Client struct {
	Volume string
	Meta   *MetaClient
	Data   *DataClient

	nw         transport.Network
	masterAddr string
	cfg        Config

	stopc    chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// Mount connects to the resource manager, loads the volume view, and
// returns a ready client. Mount uses a fresh (non-persistent) master
// connection per refresh, mirroring Section 2.5.2. The data path is
// streams only (sequential writes and scans ride pinned sessions), so a
// transport without packet streams is rejected here, once.
func Mount(nw transport.Network, masterAddr, volume string, cfg Config) (*Client, error) {
	snw, ok := nw.(transport.PacketStreamNetwork)
	if !ok {
		return nil, fmt.Errorf("client: transport %T has no packet streams: %w", nw, util.ErrInvalidArgument)
	}
	full := cfg.withDefaults(volume)
	c := &Client{
		Volume:     volume,
		nw:         nw,
		masterAddr: masterAddr,
		cfg:        full,
		stopc:      make(chan struct{}),
	}
	c.Meta = newMetaClient(nw, masterAddr, volume, full)
	c.Data = newDataClient(snw, full)
	c.Data.refresh = c.Refresh // stale-epoch retry loops re-pull the view
	if err := c.Refresh(); err != nil {
		return nil, err
	}
	if full.RefreshInterval > 0 {
		c.wg.Add(1)
		go c.refreshLoop(full.RefreshInterval)
	}
	return c, nil
}

// Refresh re-pulls the volume view and updates both partition caches.
func (c *Client) Refresh() error {
	var resp proto.GetVolumeResp
	err := c.nw.Call(c.masterAddr, uint8(proto.OpMasterGetVolume),
		&proto.GetVolumeReq{Name: c.Volume}, &resp)
	if err != nil {
		return err
	}
	view := append([]proto.MetaPartitionInfo(nil), resp.View.MetaPartitions...)
	sort.Slice(view, func(i, j int) bool { return view[i].Start < view[j].Start })
	c.Meta.mu.Lock()
	c.Meta.view = view
	c.Meta.epoch = resp.View.Epoch
	c.Meta.mu.Unlock()
	c.Data.setView(resp.View.DataPartitions)
	return nil
}

func (c *Client) refreshLoop(interval time.Duration) {
	defer c.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.stopc:
			return
		case <-t.C:
			_ = c.Refresh()
		}
	}
}

// Close stops background work, closes the pooled sessions, and flushes
// the orphan list.
func (c *Client) Close() {
	c.stopOnce.Do(func() { close(c.stopc) })
	c.wg.Wait()
	c.Data.close()
	c.Meta.EvictOrphans()
}

// Config returns the effective (defaulted) configuration.
func (c *Client) Config() Config { return c.cfg }
