package client

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cfs/internal/proto"
	"cfs/internal/transport"
	"cfs/internal/util"
)

// DataClient talks to data partitions (paper Section 2.7). It caches the
// volume's data partitions (refreshed alongside the meta view), picks
// partitions randomly for new writes, slices writes into fixed-size
// packets, and remembers the most recently identified leader per partition
// so reads rarely probe more than one replica (Section 2.4).
type DataClient struct {
	nw       transport.PacketStreamNetwork
	cfg      Config
	pool     *sessionPool[uint64] // replication sessions, one per partition leader
	readPool *readPool            // read sessions, one per (replica, epoch)
	// refresh re-pulls the volume view from the master (wired by Mount).
	// Stale-epoch retry loops call it so a failover observed mid-write
	// resolves to the new leader without waiting for the background
	// refresh tick.
	refresh func() error

	mu     sync.Mutex
	view   []proto.DataPartitionInfo
	leader map[uint64]string
	// readFrom caches the last replica that successfully served a read,
	// per partition - kept SEPARATE from the leader cache so follower-
	// served reads cannot poison the overwrite path's leader ordering,
	// while a healthy cluster's unary reads still hit on the first try.
	readFrom map[uint64]string
	rnd      *util.Rand
	reqID    atomic.Uint64
	// readRR rotates streamed-read runs across a partition's followers
	// (committed-clamped follower offload).
	readRR atomic.Uint64
	// acked is, per (partition, extent), the highest overwrite version an
	// ack has returned to this client (guarded by mu). Reads of the extent
	// carry it, and a replica that has not applied that far refuses them:
	// read-your-writes on every replica. overwrote is set once acked holds
	// anything, so a client that never overwrote takes no lock for it.
	acked     map[[2]uint64]uint64
	overwrote atomic.Bool
}

// refreshView best-effort re-pulls the volume view when the hook is wired.
func (d *DataClient) refreshView() {
	if d.refresh != nil {
		_ = d.refresh()
	}
}

func newDataClient(nw transport.PacketStreamNetwork, cfg Config) *DataClient {
	d := &DataClient{
		nw:       nw,
		cfg:      cfg,
		leader:   make(map[uint64]string),
		readFrom: make(map[uint64]string),
		rnd:      util.NewRand(cfg.Seed ^ 0xD47A),
	}
	d.pool = newSessionPool[uint64](nw, &d.cfg, proto.OpDataWriteStream, "replication")
	d.readPool = newReadPool(nw, &d.cfg)
	return d
}

// close retires every pooled session (Client.Close path).
func (d *DataClient) close() {
	d.pool.close()
	d.readPool.close()
}

func (d *DataClient) setView(dps []proto.DataPartitionInfo) {
	sorted := append([]proto.DataPartitionInfo(nil), dps...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].PartitionID < sorted[j].PartitionID })
	d.mu.Lock()
	d.view = sorted
	d.mu.Unlock()
}

// PickWritable returns a random writable data partition (Section 2.3.1:
// "the client simply selects the meta and data partitions in a random
// fashion from the ones allocated by the resource manager").
func (d *DataClient) PickWritable() (proto.DataPartitionInfo, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var rw []proto.DataPartitionInfo
	for _, dp := range d.view {
		if dp.Status == proto.PartitionReadWrite {
			rw = append(rw, dp)
		}
	}
	if len(rw) == 0 {
		return proto.DataPartitionInfo{}, fmt.Errorf("client: no writable data partition: %w", util.ErrNoAvailableNode)
	}
	return rw[d.rnd.Intn(len(rw))], nil
}

func (d *DataClient) partitionInfo(pid uint64) (proto.DataPartitionInfo, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	i := sort.Search(len(d.view), func(i int) bool { return d.view[i].PartitionID >= pid })
	if i < len(d.view) && d.view[i].PartitionID == pid {
		return d.view[i], nil
	}
	return proto.DataPartitionInfo{}, fmt.Errorf("client: data partition %d: %w", pid, util.ErrNotFound)
}

// WriteSmallFile sends a small file straight to a random partition's
// leader with no extent-creation round trip; the leader aggregates it into
// a shared extent and replies with the placement (Sections 2.2.3, 4.4). It
// rides the partition's pooled replication session with a window of 1 -
// one packet, zero dials once the session is warm, which is what makes a
// small-file-heavy workload cheap on sockets.
func (d *DataClient) WriteSmallFile(fileOffset uint64, data []byte) (proto.ExtentKey, error) {
	dp, err := d.PickWritable()
	if err != nil {
		return proto.ExtentKey{}, err
	}
	var lastErr error
	for attempt := 0; attempt <= d.cfg.MaxRetries; attempt++ {
		var ek proto.ExtentKey
		err := d.whileBusy(func() (err error) {
			ek, err = d.writeSmallFileOnce(dp, fileOffset, data)
			return err
		})
		if err == nil {
			return ek, nil
		}
		lastErr = err
		// Retry everything the big-writer replay path treats as
		// retriable. It is always safe for this one packet: a timeout or
		// abort guarantees at worst an unreferenced copy (the key was
		// never returned), staleness means the view moved (refresh before
		// redialing), and full/read-only/still-recovering means roll to
		// another partition - which re-picking below does. Anything else
		// is a hard error and surfaces.
		switch {
		case errors.Is(err, util.ErrStale):
			d.refreshView()
		case errors.Is(err, util.ErrTimeout), errors.Is(err, util.ErrReadOnly), errors.Is(err, util.ErrFull),
			errors.Is(err, util.ErrBusy):
		default:
			return proto.ExtentKey{}, lastErr
		}
		if fresh, ferr := d.PickWritable(); ferr == nil {
			dp = fresh
		}
	}
	return proto.ExtentKey{}, lastErr
}

// whileBusy runs bind, which binds a write session and sends its first
// frame, again while the leader refuses the bind because a recovery pass
// holds the partition (util.ErrBusy): up to MaxRetries more times, after
// the same backoff as a meta call's rounds, so a pass that outlasts one
// round trip does not exhaust the caller's retries in microseconds.
func (d *DataClient) whileBusy(bind func() error) error {
	for attempt := 0; ; attempt++ {
		err := bind()
		if !errors.Is(err, util.ErrBusy) || attempt >= d.cfg.MaxRetries {
			return err
		}
		backoff(attempt)
	}
}

func (d *DataClient) writeSmallFileOnce(dp proto.DataPartitionInfo, fileOffset uint64, data []byte) (proto.ExtentKey, error) {
	w, err := d.newStreamWriter(dp, 1)
	if err != nil {
		return proto.ExtentKey{}, err
	}
	defer w.Close()
	if err := w.WriteSmall(fileOffset, data); err != nil {
		return proto.ExtentKey{}, err
	}
	keys, _, err := w.Drain()
	if err != nil {
		return proto.ExtentKey{}, fmt.Errorf("client: small-file write to dp %d: %w", dp.PartitionID, err)
	}
	if len(keys) != 1 {
		return proto.ExtentKey{}, fmt.Errorf("client: small-file write to dp %d: %d keys", dp.PartitionID, len(keys))
	}
	return keys[0], nil
}

// Overwrite rewrites bytes inside an already-committed extent range
// in-place through the partition's Raft group (Figure 5). The request must
// reach the Raft leader, which may differ from the primary-backup leader;
// the client walks the members and caches whoever accepts (Section 2.4).
//
// No client-side pinning: replicas fence overwritten extents themselves.
// The ack carries the extent's overwrite version, which this client's
// reads of the extent then carry; a replica that has not applied that
// version refuses them, and so does one that has logged an overwrite of
// the extent it has not applied yet. Reads of overwritten extents thus
// offload normally once followers catch up, instead of sticking to the
// leader for the life of the client.
func (d *DataClient) Overwrite(ek proto.ExtentKey, extentOff uint64, data []byte) error {
	dp, err := d.partitionInfo(ek.PartitionID)
	if err != nil {
		return err
	}
	pkt := proto.NewPacket(proto.OpDataOverwrite, d.reqID.Add(1), ek.PartitionID, ek.ExtentID, data)
	pkt.ExtentOffset = extentOff
	var lastErr error
	// Member order is built ONCE per call, not per attempt: the cached
	// leader cannot change between rounds of this loop (only this client
	// writes the cache), and rebuilding it per attempt re-took the client
	// mutex on every retry round for the same answer.
	order := d.memberOrder(dp)
	// Retry rounds cover Raft elections in flight: the leader may not
	// exist for a few tens of milliseconds after a partition is created
	// or fails over (Section 2.1.3's retry-until-limit client behavior).
	for attempt := 0; attempt <= d.cfg.MaxRetries; attempt++ {
		for _, addr := range order {
			var resp proto.Packet
			err := d.nw.Call(addr, uint8(proto.OpDataOverwrite), pkt, &resp)
			if err != nil {
				lastErr = err
				continue
			}
			switch resp.ResultCode {
			case proto.ResultOK:
				d.cacheLeader(dp.PartitionID, addr)
				d.noteAcked(dp.PartitionID, ek.ExtentID, resp.Committed)
				return nil
			case proto.ResultErrNotLeader:
				lastErr = fmt.Errorf("client: %s: %w", addr, util.ErrNotLeader)
				continue
			default:
				return fmt.Errorf("client: overwrite dp %d: %s", dp.PartitionID, resp.Data)
			}
		}
		if attempt < d.cfg.MaxRetries {
			time.Sleep(time.Duration(attempt+1) * 20 * time.Millisecond)
		}
	}
	return fmt.Errorf("client: overwrite dp %d failed on all replicas: %w (last: %v)",
		dp.PartitionID, util.ErrRetryLimit, lastErr)
}

// Read fetches [extentOff, extentOff+length) of an extent over the unary
// Call path, trying the last replica that served a read first, then the
// cached leader, then the replicas in order (Section 2.4: caching the
// last identified server minimizes retries). The order is built once per
// call; the streamed read path (reader.go) supersedes this for scans.
func (d *DataClient) Read(ek proto.ExtentKey, extentOff uint64, length uint32) ([]byte, error) {
	dp, err := d.partitionInfo(ek.PartitionID)
	if err != nil {
		return nil, err
	}
	lenBuf := make([]byte, 4)
	binary.BigEndian.PutUint32(lenBuf, length)
	acked := d.ackedVersion(ek.PartitionID, ek.ExtentID)
	var lastErr error
	for _, addr := range d.readOrder(dp) {
		pkt := proto.NewPacket(proto.OpDataRead, d.reqID.Add(1), ek.PartitionID, ek.ExtentID, lenBuf)
		pkt.ExtentOffset = extentOff
		pkt.Committed = acked // read requests carry the acked overwrite version here
		var resp proto.Packet
		err := d.nw.Call(addr, uint8(proto.OpDataRead), pkt, &resp)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.ResultCode != proto.ResultOK {
			lastErr = fmt.Errorf("client: read dp %d ext %d at %s: %s",
				ek.PartitionID, ek.ExtentID, addr, resp.Data)
			continue
		}
		if !resp.VerifyCRC() {
			lastErr = fmt.Errorf("client: read dp %d: %w", ek.PartitionID, util.ErrCRCMismatch)
			continue
		}
		d.cacheReadReplica(dp.PartitionID, addr)
		return resp.Data, nil
	}
	return nil, fmt.Errorf("client: read dp %d failed on all replicas: %w (last: %v)",
		ek.PartitionID, util.ErrRetryLimit, lastErr)
}

// noteAcked records the overwrite version an ack returned for an extent.
func (d *DataClient) noteAcked(pid, extent, ver uint64) {
	k := [2]uint64{pid, extent}
	d.mu.Lock()
	if d.acked == nil {
		d.acked = make(map[[2]uint64]uint64)
	}
	if ver > d.acked[k] {
		d.acked[k] = ver
	}
	d.mu.Unlock()
	d.overwrote.Store(true)
}

// ackedVersion is the highest overwrite version this client was acked for
// the extent; zero if it never overwrote it.
func (d *DataClient) ackedVersion(pid, extent uint64) uint64 {
	if !d.overwrote.Load() {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.acked[[2]uint64{pid, extent}]
}

// MarkDelete releases the extent range ek names. The partition leader
// decides whether that deletes the extent or punches the range out of it.
func (d *DataClient) MarkDelete(ek proto.ExtentKey) error {
	dp, err := d.partitionInfo(ek.PartitionID)
	if err != nil {
		return err
	}
	lenBuf := make([]byte, 8)
	binary.BigEndian.PutUint64(lenBuf, uint64(ek.Size))
	pkt := proto.NewPacket(proto.OpDataMarkDelete, d.reqID.Add(1), ek.PartitionID, ek.ExtentID, lenBuf)
	pkt.ExtentOffset = ek.ExtentOffset
	var resp proto.Packet
	if err := d.nw.Call(dp.Members[0], uint8(proto.OpDataMarkDelete), pkt, &resp); err != nil {
		return err
	}
	if resp.ResultCode != proto.ResultOK {
		return fmt.Errorf("client: mark delete dp %d ext %d: %s", ek.PartitionID, ek.ExtentID, resp.Data)
	}
	return nil
}

func (d *DataClient) memberOrder(dp proto.DataPartitionInfo) []string {
	if d.cfg.disableLeaderCache {
		return dp.Members
	}
	d.mu.Lock()
	cached := d.leader[dp.PartitionID]
	d.mu.Unlock()
	if cached == "" {
		return dp.Members
	}
	out := make([]string, 0, len(dp.Members))
	out = append(out, cached)
	for _, a := range dp.Members {
		if a != cached {
			out = append(out, a)
		}
	}
	return out
}

func (d *DataClient) cacheLeader(pid uint64, addr string) {
	if d.cfg.disableLeaderCache {
		return
	}
	d.mu.Lock()
	d.leader[pid] = addr
	d.mu.Unlock()
}

// cacheReadReplica remembers the replica that last served a read for pid,
// without touching the leader cache the overwrite path orders by.
func (d *DataClient) cacheReadReplica(pid uint64, addr string) {
	if d.cfg.disableLeaderCache {
		return
	}
	d.mu.Lock()
	d.readFrom[pid] = addr
	d.mu.Unlock()
}

// readOrder is the unary read path's attempt order, built once per call:
// the last replica that served a read, then the cached leader, then the
// view's member order. Overwritten extents need no special order: a
// replica whose Raft apply trails the version the read carries, or an
// overwrite it has logged, refuses the read itself (the server-side
// overwrite fence), and the loop falls through to the next candidate.
func (d *DataClient) readOrder(dp proto.DataPartitionInfo) []string {
	if d.cfg.disableLeaderCache {
		return dp.Members
	}
	d.mu.Lock()
	first := d.readFrom[dp.PartitionID]
	second := d.leader[dp.PartitionID]
	d.mu.Unlock()
	if first == "" && second == "" {
		return dp.Members
	}
	out := make([]string, 0, len(dp.Members)+1)
	if first != "" {
		out = append(out, first)
	}
	if second != "" && second != first {
		out = append(out, second)
	}
	for _, a := range dp.Members {
		if a != first && a != second {
			out = append(out, a)
		}
	}
	return out
}

// offloadOrder is the streamed read path's attempt order: the followers
// rotated round-robin per run - spreading scan load off the leader - with
// the leader LAST, as the fallback for a follower whose gossiped
// committed offset still trails the range, whose overwrite fence is
// raised, or which is down or hung.
func (d *DataClient) offloadOrder(dp proto.DataPartitionInfo) []string {
	if len(dp.Members) <= 1 {
		return dp.Members[:util.Min(1, len(dp.Members))]
	}
	followers := dp.Members[1:]
	start := int((d.readRR.Add(1) - 1) % uint64(len(followers)))
	out := make([]string, 0, len(dp.Members))
	for i := range followers {
		out = append(out, followers[(start+i)%len(followers)])
	}
	return append(out, dp.Members[0])
}
