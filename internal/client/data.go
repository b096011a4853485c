package client

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

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
	// refreshView re-pulls the volume view (Client.Refresh, wired by
	// Mount). Overwrite rounds and stale-epoch retries call it, so a
	// failover seen mid-request resolves without waiting for the
	// background refresh tick.
	refreshView func() error

	// leader is the replica that last accepted an overwrite; readFrom the
	// one that last served a unary read, kept apart so that follower-served
	// reads cannot reorder the overwrite walk.
	leader, readFrom answerer

	mu    sync.Mutex
	view  []proto.DataPartitionInfo
	rnd   *util.Rand
	reqID atomic.Uint64
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

func newDataClient(nw transport.PacketStreamNetwork, cfg Config) *DataClient {
	d := &DataClient{
		nw:          nw,
		cfg:         cfg,
		refreshView: noRefresh,
		rnd:         util.NewRand(cfg.Seed ^ 0xD47A),
		acked:       make(map[[2]uint64]uint64),
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

// setView installs dps, which it takes over, as the data view.
func (d *DataClient) setView(dps []proto.DataPartitionInfo) {
	sort.Slice(dps, func(i, j int) bool { return dps[i].PartitionID < dps[j].PartitionID })
	d.mu.Lock()
	d.view = dps
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

// refresh re-pulls the volume view through the hook Mount wires.
func (d *DataClient) refresh() error { return d.refreshView() }

// members lists pid's replicas in the current view.
func (d *DataClient) members(pid uint64) []string {
	dp, _ := d.partitionInfo(pid)
	return dp.Members
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
			_ = d.refresh()
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
// the replica walk tries the members, cached leader first, and remembers
// whoever accepts (Section 2.4). A transport failure or a not-leader
// reject moves it on; retry rounds cover a Raft election in flight.
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
	return walk{pid: dp.PartitionID, members: dp.Members, cache: &d.leader,
		rounds: d.cfg.MaxRetries, view: d,
	}.run(func(addr string) (bool, error) {
		var resp proto.Packet
		if err := d.nw.Call(addr, uint8(proto.OpDataOverwrite), pkt, &resp); err != nil {
			return true, err
		}
		switch resp.ResultCode {
		case proto.ResultOK:
			d.noteAcked(dp.PartitionID, ek.ExtentID, resp.Committed)
			return false, nil
		case proto.ResultErrNotLeader:
			return true, fmt.Errorf("client: %s: %w", addr, util.ErrNotLeader)
		}
		return false, fmt.Errorf("client: overwrite dp %d: %s", dp.PartitionID, resp.Data)
	})
}

// Read fetches [extentOff, extentOff+length) of an extent over the unary
// Call path in one pass of the replica walk: the last replica that served
// a read first, then the cached leader, then the members in view order
// (Section 2.4: caching the last identified server minimizes retries).
// Any failure - a transport error, a refusal, a CRC mismatch - moves on.
// Overwritten extents need no special order: a replica whose Raft apply
// trails the version the read carries, or that has logged an overwrite it
// has not applied, refuses the read itself (the server-side overwrite
// fence). The streamed read path (reader.go) supersedes this for scans.
func (d *DataClient) Read(ek proto.ExtentKey, extentOff uint64, length uint32) ([]byte, error) {
	dp, err := d.partitionInfo(ek.PartitionID)
	if err != nil {
		return nil, err
	}
	pkt := proto.NewPacket(proto.OpDataRead, d.reqID.Add(1), ek.PartitionID, ek.ExtentID, nil)
	pkt.ExtentOffset, pkt.FileOffset = extentOff, uint64(length) // the length rides FileOffset
	pkt.Committed = d.ackedVersion(ek.PartitionID, ek.ExtentID)  // read requests carry the acked overwrite version here
	var data []byte
	// One pass (no rounds): the read replica first, over the leader's order.
	err = walk{pid: dp.PartitionID, cache: &d.readFrom,
		members: d.leader.order(dp.PartitionID, dp.Members)}.run(func(addr string) (bool, error) {
		var resp proto.Packet
		if err := d.nw.Call(addr, uint8(proto.OpDataRead), pkt, &resp); err != nil {
			return true, err
		}
		if resp.ResultCode != proto.ResultOK {
			return true, fmt.Errorf("client: read dp %d ext %d at %s: %s", ek.PartitionID, ek.ExtentID, addr, resp.Data)
		}
		if !resp.VerifyCRC() {
			return true, fmt.Errorf("client: read dp %d at %s: %w", ek.PartitionID, addr, util.ErrCRCMismatch)
		}
		data = resp.Data
		return false, nil
	})
	return data, err
}

// noteAcked records the overwrite version an ack returned for an extent.
func (d *DataClient) noteAcked(pid, extent, ver uint64) {
	k := [2]uint64{pid, extent}
	d.mu.Lock()
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
