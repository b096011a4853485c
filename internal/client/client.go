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
	"hash/fnv"
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

	// disableBatchInodeGet turns off the batched readdir+stat path
	// (Section 4.2), degrading to one InodeGet per entry - the
	// Ceph-style ablation baseline. DisableCaches sets it.
	disableBatchInodeGet bool

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
	if c.AckDeadline == 0 {
		c.AckDeadline = 15 * time.Second
	}
	if c.KeepaliveInterval == 0 {
		c.KeepaliveInterval = 5 * time.Second
	}
	if c.Seed == 0 {
		h := fnv.New64a()
		h.Write([]byte(volume))
		c.Seed = h.Sum64() | 1
	}
	c.defaulted = true
	return c
}

// DisableCaches returns a copy of the config with every client-side cache
// and optimization off (ablation baseline).
func (c Config) DisableCaches() Config {
	c.CacheTTL = -1
	c.disableBatchInodeGet = true
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

	viewMu sync.Mutex // serializes view installs
	epoch  uint64     // the installed view's epoch (guarded by viewMu)

	stopc    chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// Mount connects to the resource manager, loads the volume view, and
// returns a ready client. The data path is streams only (sequential
// writes and scans ride pinned sessions), so a transport without packet
// streams is rejected here, once.
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
	c.Meta = newMetaClient(nw, full)
	c.Data = newDataClient(snw, full)
	// Retry rounds re-pull the view, so a failover or membership change
	// seen mid-request resolves without waiting for the refresh tick.
	c.Meta.refreshView, c.Data.refreshView = c.Refresh, c.Refresh
	if err := c.Refresh(); err != nil {
		return nil, err
	}
	if full.RefreshInterval > 0 {
		c.wg.Add(1)
		go c.refreshLoop(full.RefreshInterval)
	}
	return c, nil
}

// Refresh re-pulls the whole volume view and installs its meta and data
// partitions together. It asks for the whole view every time: a data
// partition turning full or read-only reaches the master by heartbeat and
// moves no epoch, and PickWritable must see it. A view older than the installed one, from a
// refresh that overlapped a newer one, is dropped.
func (c *Client) Refresh() error {
	var resp proto.GetVolumeResp
	if err := c.nw.Call(c.masterAddr, uint8(proto.OpMasterGetVolume), &proto.GetVolumeReq{Name: c.Volume}, &resp); err != nil {
		return err
	}
	c.viewMu.Lock()
	if resp.View.Epoch >= c.epoch {
		c.epoch = resp.View.Epoch
		c.Meta.setView(resp.View.MetaPartitions)
		c.Data.setView(resp.View.DataPartitions)
	}
	c.viewMu.Unlock()
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
