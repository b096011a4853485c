// Package datanode implements the CFS data subsystem (paper Section 2.2):
// data nodes hosting data partitions, each backed by an extent store, with
// scenario-aware replication - primary-backup for sequential writes and
// Raft for overwrites (Section 2.2.4).
package datanode

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"cfs/internal/clock"
	"cfs/internal/proto"
	"cfs/internal/raftstore"
	"cfs/internal/storage"
	"cfs/internal/transport"
	"cfs/internal/util"
)

// Config configures a DataNode.
type Config struct {
	// Addr is the node's transport address.
	Addr string
	// MasterAddr is the resource manager address for heartbeats.
	MasterAddr string
	// Dir is the root directory for partition data.
	Dir string
	// Total is the advertised disk capacity in bytes (Section 2.3.1
	// placement input). Zero means 1 TB.
	Total uint64
	// ExtentSize caps each extent (tests use small ones). Zero means
	// storage.DefaultExtentSize.
	ExtentSize uint64
	// Raft tunes the partition Raft groups.
	Raft raftstore.Config
	// Clock runs the heartbeat loop and stamps and checks the read lease.
	// Nil means clock.Real; on a clock.Manual no heartbeat loop runs and
	// the caller drives SendHeartbeat.
	Clock clock.Clock

	// AckDeadline bounds how long a replication session waits for a
	// follower's ack before declaring the replica hung and aborting the
	// session (the half-open conversion). Zero means 10s.
	AckDeadline time.Duration
	// KeepaliveInterval is how often idle forward chains are pinged so a
	// dead follower is noticed before the next write blocks on it. Zero
	// means 3s.
	KeepaliveInterval time.Duration
	// SessionIdleTimeout closes a replication session whose client has
	// sent nothing (not even a keepalive) for this long. Zero means 2m.
	SessionIdleTimeout time.Duration
}

// heartbeatInterval is the period of master heartbeats.
const heartbeatInterval = time.Second

// DataNode hosts data partitions.
type DataNode struct {
	addr        string
	masterAddr  string
	dir         string
	total       uint64
	extentSize  uint64
	nw          transport.Network
	raft        *raftstore.Store
	clock       clock.Clock
	ackDeadline time.Duration
	keepalive   time.Duration
	idleTimeout time.Duration

	// reads counts read requests served by this node (unary calls and
	// streamed read-session requests alike) - the observable the follower
	// read-offload tests and ablations assert on.
	reads atomic.Uint64

	// Read-lease fencing (master-granted): every heartbeat reply renews a
	// lease of ReadLeaseMillis; a node that misses renewals long enough for
	// the lease to lapse stops serving reads entirely, so a deposed leader
	// partitioned from the master cannot serve stale bytes to clients still
	// holding its address. leaseUntil is the deadline (unixnano on clock);
	// leaseGranted latches once a lease was EVER granted - nodes running
	// without a master (unit tests, tools) never fence.
	leaseUntil   atomic.Int64
	leaseGranted atomic.Bool

	mu         sync.RWMutex
	partitions map[uint64]*Partition
	closed     bool

	ln    transport.Listener
	stopc chan struct{}
	wg    sync.WaitGroup
}

// ReadsServed reports how many read requests this node has served (unary
// and streamed), for offload instrumentation.
func (d *DataNode) ReadsServed() uint64 { return d.reads.Load() }

// Start creates a DataNode, binds its transport address, registers with
// the master, and begins heartbeating.
func Start(nw transport.Network, cfg Config) (*DataNode, error) {
	if cfg.Addr == "" || cfg.Dir == "" {
		return nil, fmt.Errorf("datanode: %w: Addr and Dir are required", util.ErrInvalidArgument)
	}
	if cfg.Total == 0 {
		cfg.Total = util.GB * 1024
	}
	if cfg.AckDeadline == 0 {
		cfg.AckDeadline = 10 * time.Second
	}
	if cfg.KeepaliveInterval == 0 {
		cfg.KeepaliveInterval = 3 * time.Second
	}
	if cfg.SessionIdleTimeout == 0 {
		cfg.SessionIdleTimeout = 2 * time.Minute
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	d := &DataNode{
		addr:        cfg.Addr,
		masterAddr:  cfg.MasterAddr,
		dir:         cfg.Dir,
		total:       cfg.Total,
		extentSize:  cfg.ExtentSize,
		nw:          nw,
		clock:       clock.OrReal(cfg.Clock),
		ackDeadline: cfg.AckDeadline,
		keepalive:   cfg.KeepaliveInterval,
		idleTimeout: cfg.SessionIdleTimeout,
		partitions:  make(map[uint64]*Partition),
		stopc:       make(chan struct{}),
	}
	d.raft = raftstore.New(cfg.Addr, nw, cfg.Raft)
	ln, err := nw.Listen(cfg.Addr, d.handle)
	if err != nil {
		d.raft.Close()
		return nil, err
	}
	d.ln = ln
	// Client writes and streamed reads need duplex packet streams; on a
	// transport without them the node serves only the unary ops.
	if snw, ok := nw.(transport.PacketStreamNetwork); ok {
		if err := snw.ListenStream(cfg.Addr, d.handleStream); err != nil {
			d.Close()
			return nil, err
		}
	}
	// Re-host every partition persisted under Dir BEFORE registering, so
	// the first heartbeat reports them and reads of already-committed
	// bytes work without waiting for the master (ROADMAP
	// "committed-offset durability": a restarted node used to expose
	// nothing it stores).
	if err := d.reopenPartitions(); err != nil {
		d.Close()
		return nil, err
	}
	if cfg.MasterAddr != "" {
		if err := d.register(); err != nil {
			d.Close()
			return nil, err
		}
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			d.clock.Every(heartbeatInterval, d.stopc, d.SendHeartbeat)
		}()
	}
	return d, nil
}

// Addr returns the node's transport address.
func (d *DataNode) Addr() string { return d.addr }

// Close stops the node: heartbeats, Raft groups, extent stores, listener.
func (d *DataNode) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	parts := make([]*Partition, 0, len(d.partitions))
	for _, p := range d.partitions {
		parts = append(parts, p)
	}
	d.mu.Unlock()
	close(d.stopc)
	d.wg.Wait()
	d.raft.Close()
	for _, p := range parts {
		p.stopSaves()         // fence stale debounce timers first
		_ = p.saveCommitted() // snapshot watermarks for the next open
		p.store.Close()
	}
	if d.ln != nil {
		d.ln.Close()
	}
}

// reopenPartitions re-hosts every partition recorded under the data
// directory (Partition.Recover wired into partition (re)open, Section
// 2.2.5): extents are rescanned by the store, persisted committed
// watermarks are merged back, and - on partitions this node leads - a
// best-effort recovery pass realigns followers and re-advances the
// committed offsets. The recovery pass runs in the background: it makes
// blocking calls to followers that may still be down (whole-cluster
// restart), and registration/heartbeats must not wait out those dial
// timeouts - the persisted watermarks already serve everything that was
// committed before the restart, so nothing depends on the pass finishing
// first. Its errors are swallowed for the same reason.
func (d *DataNode) reopenPartitions() error {
	reqs, promoting, err := scanPartitionDirs(d.dir)
	if err != nil {
		return err
	}
	for _, req := range reqs {
		if err := d.CreatePartition(req); err != nil {
			return err
		}
		if promoting[req.PartitionID] {
			// The node went down between a promotion and its completing
			// alignment pass: come back write-gated, or clients could
			// bind before the predecessor's divergence is shed.
			if p := d.Partition(req.PartitionID); p != nil {
				p.markPromoting()
			}
		}
	}
	if len(reqs) == 0 {
		return nil
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		var leaders []*Partition
		for _, req := range reqs {
			if p := d.Partition(req.PartitionID); p != nil && p.isLeader() {
				leaders = append(leaders, p)
			}
		}
		// Phase 1, every partition first: recover the committed FRONTIER
		// from the followers' learned maps. Safe against live traffic, so
		// it re-serves everything acked before a crash within
		// milliseconds even if clients rebound immediately - no partition
		// may wait behind another's alignment retries for this.
		for _, p := range leaders {
			select {
			case <-d.stopc:
				return
			default:
			}
			p.adoptFollowerCommitted()
		}
		// Phase 2, round-robin: the full quiesced alignment pass. Any
		// error re-queues the partition - ErrBusy means clients are bound
		// to it, and transient transport errors are routine in a
		// whole-cluster restart where followers are still booting; either
		// way nothing else triggers restart-time alignment, so dropping a
		// partition here would leave its stale tails unaligned for good.
		// Backoff cycles the remainder; a stuck partition never blocks
		// the others.
		pending := leaders
		delay := time.Second
		for len(pending) > 0 {
			var retry []*Partition
			for _, p := range pending {
				select {
				case <-d.stopc:
					return
				default:
				}
				if !p.isLeader() {
					// Deposed while waiting (a master reconfiguration made
					// someone else leader); alignment is their job now.
					continue
				}
				if _, err := p.Recover(); err != nil {
					retry = append(retry, p)
				} else if p.promotionPending() {
					// A restart-resumed promotion: the completed pass is
					// what the persisted gate was waiting for.
					p.endPromotion()
				}
			}
			pending = retry
			if len(pending) == 0 {
				return
			}
			select {
			case <-d.stopc:
				return
			case <-time.After(delay):
			}
			if delay < 30*time.Second {
				delay *= 2
			}
		}
	}()
	return nil
}

// Partition returns the hosted partition with the given id, or nil.
func (d *DataNode) Partition(id uint64) *Partition {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.partitions[id]
}

// PartitionCount returns the number of hosted partitions.
func (d *DataNode) PartitionCount() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.partitions)
}

// Used sums used bytes across hosted partitions.
func (d *DataNode) Used() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var used uint64
	for _, p := range d.partitions {
		used += p.Used()
	}
	return used
}

func (d *DataNode) register() error {
	var resp proto.RegisterNodeResp
	return d.nw.Call(d.masterAddr, uint8(proto.OpMasterRegisterNode),
		&proto.RegisterNodeReq{Addr: d.addr, IsMeta: false, Total: d.total}, &resp)
}

// SendHeartbeat reports utilization and per-partition status to the master
// (exported so tests and the bench harness can force synchronization). A
// granted read lease runs from the moment the heartbeat was SENT: the
// master stamps the beat when it receives it, so a lease counted from the
// reply would outlive the master's view by one reply transit.
func (d *DataNode) SendHeartbeat() {
	d.mu.RLock()
	reports := make([]proto.PartitionReport, 0, len(d.partitions))
	var used uint64
	for _, p := range d.partitions {
		u := p.Used()
		used += u
		reports = append(reports, proto.PartitionReport{
			PartitionID:  p.ID,
			Used:         u,
			ExtentCount:  uint64(p.ExtentCount()),
			IsLeader:     p.isLeader(),
			Status:       p.Status(),
			ReplicaEpoch: p.Epoch(),
		})
	}
	d.mu.RUnlock()
	var resp proto.HeartbeatResp
	start := d.clock.Now()
	err := d.nw.Call(d.masterAddr, uint8(proto.OpMasterHeartbeat), &proto.HeartbeatReq{
		Addr:       d.addr,
		IsMeta:     false,
		Used:       used,
		Total:      d.total,
		Partitions: reports,
	}, &resp)
	if err == nil && resp.ReadLeaseMillis > 0 {
		d.leaseUntil.Store(start.Add(time.Duration(resp.ReadLeaseMillis) * time.Millisecond).UnixNano())
		d.leaseGranted.Store(true)
	}
}

// readLeaseValid reports whether this node may serve reads: either no
// master has ever granted a lease (lease discipline off) or the last
// granted lease has not lapsed.
func (d *DataNode) readLeaseValid() bool {
	if !d.leaseGranted.Load() {
		return true
	}
	return d.clock.Now().UnixNano() < d.leaseUntil.Load()
}

// CreatePartition hosts a new partition on this node (invoked by the
// master's OpAdminCreateDataPartition task, or directly by tests).
func (d *DataNode) CreatePartition(req *proto.CreateDataPartitionReq) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return util.ErrClosed
	}
	if _, ok := d.partitions[req.PartitionID]; ok {
		return fmt.Errorf("datanode: partition %d: %w", req.PartitionID, util.ErrExist)
	}
	dir := filepath.Join(d.dir, fmt.Sprintf("dp_%d", req.PartitionID))
	store, err := storage.Open(dir, storage.Options{ExtentSize: d.extentSize})
	if err != nil {
		return err
	}
	epoch := req.ReplicaEpoch
	if epoch == 0 {
		epoch = 1 // pre-epoch callers and persisted metadata default to 1
	}
	p := &Partition{
		ID:         req.PartitionID,
		Volume:     req.Volume,
		Members:    append([]string(nil), req.Members...),
		Capacity:   req.Capacity,
		node:       d,
		dir:        dir,
		store:      store,
		epoch:      epoch,
		committed:  make(map[uint64]uint64),
		ovwApplied: make(map[uint64]uint64),
		ovwSeen:    make(map[uint64]uint64),
		status:     proto.PartitionReadWrite,
	}
	// Persist the assignment and merge back any committed snapshot: a
	// fresh create writes its identity for the next restart, a reopen
	// finds both files already there.
	if err := p.saveMeta(); err != nil {
		store.Close()
		return err
	}
	if err := p.loadCommitted(); err != nil {
		store.Close()
		return err
	}
	if len(req.Members) > 1 {
		node, err := d.raft.CreateGroup(req.PartitionID, req.Members, &partitionSM{p: p})
		if err != nil {
			store.Close()
			return err
		}
		p.raft = node
		// Bias the primary-backup leader to win the Raft election too,
		// minimizing the window where the two leaders differ
		// (Section 2.7.4 notes they may legitimately differ).
		if p.isLeader() {
			node.Campaign()
		}
	}
	d.partitions[req.PartitionID] = p
	return nil
}

// handleUpdatePartition adopts a master reconfiguration task: new Members
// order under a bumped ReplicaEpoch (stale epochs are ignored, so replays
// are harmless). A node that stays or becomes leader re-runs the recovery
// pass in the background - a promoted leader is additionally write-gated
// until that pass completes, because its watermark and its followers' may
// have diverged under the old leader's in-flight forwards.
func (d *DataNode) handleUpdatePartition(req *proto.UpdateDataPartitionReq) (*proto.UpdateDataPartitionResp, error) {
	p := d.Partition(req.PartitionID)
	if p == nil {
		// A member that lost the partition (disk wiped between detach and
		// re-attach): re-create it empty under the pushed configuration.
		// The leader's alignment pass refills it - refusing here would
		// wedge the reconfiguration with no repair path, since a node that
		// doesn't host the partition never reports it in heartbeats.
		err := d.CreatePartition(&proto.CreateDataPartitionReq{
			PartitionID:  req.PartitionID,
			Volume:       req.Volume,
			Capacity:     req.Capacity,
			Members:      req.Members,
			ReplicaEpoch: req.ReplicaEpoch,
		})
		if err != nil && !errors.Is(err, util.ErrExist) {
			return nil, err
		}
		if p = d.Partition(req.PartitionID); p == nil {
			return nil, fmt.Errorf("datanode: partition %d: %w", req.PartitionID, util.ErrNotFound)
		}
	}
	held, promoted, applied := p.applyReconfig(req.Members, req.ReplicaEpoch)
	if applied {
		// Converge the overwrite Raft group's membership onto the same view
		// the epoch just fenced: the detached replica must stop counting
		// toward the Raft quorum (and a replacement must start), or the
		// PacificA side and the Raft side of the partition disagree about
		// who the partition IS.
		d.raft.Reconcile(p.ID, &partitionSM{p: p}, p.membersCopy, p.setRaftGroup)
	}
	if applied && p.isLeader() {
		d.runRecoverLoop(p, promoted)
	}
	return &proto.UpdateDataPartitionResp{ReplicaEpoch: held}, nil
}

// runRecoverLoop retries the Section 2.2.5 recovery pass in the background
// until it completes (ErrBusy while writers drain away and transient
// transport errors are routine right after a failover), the node stops, or
// the partition is deposed again. When the loop was started by a promotion
// it lifts the write gate on the first successful pass.
func (d *DataNode) runRecoverLoop(p *Partition, promoted bool) {
	// wg.Add happens inside the lock so it strictly precedes (or observes)
	// Close's closed=true; Close's wg.Wait then always sees the count.
	d.mu.RLock()
	closed := d.closed
	if !closed {
		d.wg.Add(1)
	}
	d.mu.RUnlock()
	if closed {
		return
	}
	go func() {
		defer d.wg.Done()
		// Drain: refuse new binds while this loop is pending, so bound
		// sessions die away (abort, idle retire, client close) and the
		// quiescence check cannot be starved by instant rebinds.
		p.recoverWait()
		defer p.recoverDone()
		delay := 10 * time.Millisecond
		for {
			select {
			case <-d.stopc:
				return
			default:
			}
			if !p.isLeader() {
				return // deposed; the new leader owns alignment now
			}
			if _, err := p.Recover(); err == nil {
				if promoted {
					p.endPromotion()
				}
				return
			}
			select {
			case <-d.stopc:
				return
			case <-time.After(delay):
			}
			if delay < 5*time.Second {
				delay *= 2
			}
		}
	}()
}

// handle dispatches one RPC.
func (d *DataNode) handle(op uint8, req any) (any, error) {
	switch proto.Op(op) {
	case proto.OpRaftMessage:
		return d.raft.Handler()(op, req)

	case proto.OpAdminCreateDataPartition:
		r, ok := req.(*proto.CreateDataPartitionReq)
		if !ok {
			return nil, fmt.Errorf("datanode: %w: body %T", util.ErrInvalidArgument, req)
		}
		if err := d.CreatePartition(r); err != nil {
			return nil, err
		}
		return &proto.CreateDataPartitionResp{}, nil

	case proto.OpAdminUpdateDataPartition:
		r, ok := req.(*proto.UpdateDataPartitionReq)
		if !ok {
			return nil, fmt.Errorf("datanode: %w: body %T", util.ErrInvalidArgument, req)
		}
		return d.handleUpdatePartition(r)

	case proto.OpAdminRecoverPartition:
		r, ok := req.(*proto.RecoverPartitionReq)
		if !ok {
			return nil, fmt.Errorf("datanode: %w: body %T", util.ErrInvalidArgument, req)
		}
		p := d.Partition(r.PartitionID)
		if p == nil {
			return nil, fmt.Errorf("datanode: partition %d: %w", r.PartitionID, util.ErrNotFound)
		}
		shipped, err := p.Recover()
		if errors.Is(err, util.ErrBusy) {
			// Writers are bound right now: schedule the pass instead of
			// bouncing the task back - the loop drains new binds and runs
			// at the next quiet moment, which a caller-side retry cannot
			// guarantee.
			d.runRecoverLoop(p, false)
			return &proto.RecoverPartitionResp{}, nil
		}
		if err != nil {
			return nil, err
		}
		return &proto.RecoverPartitionResp{Shipped: shipped}, nil

	case proto.OpDataExtentInfo:
		r, ok := req.(*proto.ExtentInfoReq)
		if !ok {
			return nil, fmt.Errorf("datanode: %w: body %T", util.ErrInvalidArgument, req)
		}
		p := d.Partition(r.PartitionID)
		if p == nil {
			return nil, fmt.Errorf("datanode: partition %d: %w", r.PartitionID, util.ErrNotFound)
		}
		return p.handleExtentInfo(r)

	case proto.OpDataCreateExtent, proto.OpDataAppend, proto.OpDataOverwrite,
		proto.OpDataRead, proto.OpDataMarkDelete, proto.OpDataFlush,
		proto.OpDataCommitted, proto.OpDataTruncate:
		pkt, ok := req.(*proto.Packet)
		if !ok {
			return nil, fmt.Errorf("datanode: %w: packet body %T", util.ErrInvalidArgument, req)
		}
		p := d.Partition(pkt.PartitionID)
		if p == nil {
			return nil, fmt.Errorf("datanode: partition %d: %w", pkt.PartitionID, util.ErrNotFound)
		}
		return d.dispatchPacket(p, pkt)

	default:
		return nil, fmt.Errorf("datanode: %w: op %d", util.ErrInvalidArgument, op)
	}
}

func (d *DataNode) dispatchPacket(p *Partition, pkt *proto.Packet) (*proto.Packet, error) {
	switch pkt.Op {
	case proto.OpDataCreateExtent, proto.OpDataAppend, proto.OpDataCommitted, proto.OpDataTruncate:
		// On the Call path these are replication hops only: the create and
		// append re-ship and the truncation of AlignReplicas, and the
		// committed-offset gossip. Same apply rules - including the
		// stale-epoch fence - as the stream hops. A client's bytes reach
		// the store one way, writeSession.leaderPacket.
		if pkt.ResultCode != resultHopFollower {
			return pkt.ErrResponse(proto.ResultErrArg, fmt.Sprintf(
				"%s over Call is a replication hop; client writes ride %s", pkt.Op, proto.OpDataWriteStream)), nil
		}
		if pkt.Op == proto.OpDataAppend && !pkt.VerifyCRC() {
			return pkt.ErrResponse(proto.ResultErrCRC, "payload crc mismatch"), nil
		}
		if err := p.applyFollowerHop(pkt); err != nil {
			return pkt.ErrResponse(hopErrCode(err), err.Error()), nil
		}
		return pkt.OKResponse(nil), nil
	case proto.OpDataOverwrite:
		return p.handleOverwrite(pkt)
	case proto.OpDataRead:
		return p.handleRead(pkt)
	case proto.OpDataMarkDelete:
		return p.handleMarkDelete(pkt)
	case proto.OpDataFlush:
		if err := p.store.Flush(); err != nil {
			return pkt.ErrResponse(proto.ResultErrIO, err.Error()), nil
		}
		return pkt.OKResponse(nil), nil
	default:
		return pkt.ErrResponse(proto.ResultErrArg, "unknown packet op"), nil
	}
}
