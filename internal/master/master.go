// Package master implements the CFS resource manager (paper Sections 2,
// 2.3): a replicated control-plane service that creates volumes, places
// meta and data partitions on the least-utilized nodes, splits meta
// partitions per Algorithm 1, tracks node liveness and utilization via
// heartbeats, and marks partitions read-only or unavailable on failures.
//
// The manager's own state replicates through a Raft group across its
// replicas and persists to a key-value store (the paper uses RocksDB; this
// reproduction uses internal/kvstore) for backup and recovery.
package master

import (
	"fmt"
	"sync"
	"time"

	"cfs/internal/clock"
	"cfs/internal/kvstore"
	"cfs/internal/multiraft"
	"cfs/internal/proto"
	"cfs/internal/raftstore"
	"cfs/internal/transport"
	"cfs/internal/util"
)

// masterGroupID is the reserved Raft group id for the manager replicas.
const masterGroupID = 1

// Config configures a Master replica.
type Config struct {
	// Addr is this replica's transport address.
	Addr string
	// Peers lists every master replica (including Addr). Single-element
	// for an unreplicated manager.
	Peers []string
	// Dir is the kvstore directory. Empty disables disk persistence.
	Dir string
	// ReplicaCount is replicas per partition. Zero means min(3, nodes).
	ReplicaCount int
	// RaftSetSize groups nodes into raft sets (Section 2.5.1). Zero
	// means 5.
	RaftSetSize int
	// MetaPartitionInodeLimit triggers Algorithm 1 splitting once a meta
	// partition's inode count crosses it. Zero means 1<<20.
	MetaPartitionInodeLimit uint64
	// SplitDelta is Algorithm 1's delta added past maxInodeID when
	// cutting the range. Zero means 1<<16.
	SplitDelta uint64
	// DataPartitionCapacity is the per-partition byte capacity handed to
	// data nodes. Zero means 1 GB.
	DataPartitionCapacity uint64
	// FailureThreshold marks a meta partition unavailable after this many
	// failure reports against its last member (Section 2.3.3). Zero means
	// 3. (Partitions with a member to spare reconfigure around the failed
	// replica instead; see failover.go.)
	FailureThreshold int
	// NodeTimeout declares a node dead once its heartbeats stop for this
	// long; the maintenance scan then reconfigures the node's partitions
	// around it (promoting a live follower when a data leader died). It
	// doubles as the read-lease term granted on every heartbeat reply: a
	// deposed leader cut off from the master stops serving reads once the
	// lease runs out, before a successor can be promoted. A partition left
	// below its replica target for 2*NodeTimeout gets a replacement
	// replica on a fresh node. Zero means 10s.
	NodeTimeout time.Duration
	// Raft tunes the manager's own consensus group.
	Raft raftstore.Config
	// Clock supplies every liveness, detach, re-attach and replacement
	// time and runs the maintenance scan. Nil means clock.Real; on a
	// clock.Manual no scan runs and the caller drives CheckOnce.
	Clock clock.Clock
}

const (
	// checkInterval is the maintenance scan period (CheckOnce).
	checkInterval = 500 * time.Millisecond
	// reattachHysteresis is how many CONSECUTIVE on-time heartbeats a
	// returning node must show before the master re-attaches its detached
	// replicas or lets it host a replacement replica. A flapping node
	// (alternating silence and bursts) therefore cannot thrash membership:
	// every silence resets the streak.
	reattachHysteresis = 3
)

// Master is one resource-manager replica.
type Master struct {
	cfg   Config
	nw    transport.Network
	clock clock.Clock

	raftStore *raftstore.Store
	node      *multiraft.Group
	kv        *kvstore.Store

	mu    sync.Mutex
	state *clusterState
	soft  *softState
	// nextAlloc is the leader-local partition-id allocation cursor. It
	// always runs at or ahead of state.NextID (the replicated watermark),
	// so concurrent placements never hand out the same id.
	nextAlloc uint64

	ln    transport.Listener
	stopc chan struct{}
	wg    sync.WaitGroup
}

// Start launches a master replica and binds its address.
func Start(nw transport.Network, cfg Config) (*Master, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("master: %w: Addr required", util.ErrInvalidArgument)
	}
	if len(cfg.Peers) == 0 {
		cfg.Peers = []string{cfg.Addr}
	}
	if cfg.RaftSetSize == 0 {
		cfg.RaftSetSize = 5
	}
	if cfg.MetaPartitionInodeLimit == 0 {
		cfg.MetaPartitionInodeLimit = 1 << 20
	}
	if cfg.SplitDelta == 0 {
		cfg.SplitDelta = 1 << 16
	}
	if cfg.DataPartitionCapacity == 0 {
		cfg.DataPartitionCapacity = util.GB
	}
	if cfg.FailureThreshold == 0 {
		cfg.FailureThreshold = 3
	}
	if cfg.NodeTimeout == 0 {
		cfg.NodeTimeout = 10 * time.Second
	}
	m := &Master{
		cfg:   cfg,
		nw:    nw,
		clock: clock.OrReal(cfg.Clock),
		state: newClusterState(),
		soft:  newSoftState(),
		stopc: make(chan struct{}),
	}
	if cfg.Dir != "" {
		kv, err := kvstore.Open(cfg.Dir, kvstore.Options{})
		if err != nil {
			return nil, err
		}
		m.kv = kv
		if data, err := kv.Get("state"); err == nil {
			if err := m.state.restore(data); err != nil {
				kv.Close()
				return nil, fmt.Errorf("master: corrupt persisted state: %w", err)
			}
		}
	}
	m.raftStore = raftstore.New(cfg.Addr, nw, cfg.Raft)
	node, err := m.raftStore.CreateGroup(masterGroupID, cfg.Peers, (*masterSM)(m))
	if err != nil {
		m.closeStores()
		return nil, err
	}
	m.node = node
	if cfg.Peers[0] == cfg.Addr {
		node.Campaign()
	}
	ln, err := nw.Listen(cfg.Addr, m.handle)
	if err != nil {
		node.Stop()
		m.closeStores()
		return nil, err
	}
	m.ln = ln
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		m.clock.Every(checkInterval, m.stopc, func() {
			if m.node.IsLeader() {
				m.CheckOnce()
			}
		})
	}()
	return m, nil
}

func (m *Master) closeStores() {
	m.raftStore.Close()
	if m.kv != nil {
		m.kv.Close()
	}
}

// Addr returns this replica's address.
func (m *Master) Addr() string { return m.cfg.Addr }

// IsLeader reports whether this replica leads the manager group.
func (m *Master) IsLeader() bool { return m.node.IsLeader() }

// WaitLeader blocks until some replica (possibly another process) is known
// leader locally, or the timeout passes. Returns true on success. It
// paces a wait on Raft, which runs on wall time, so it does too.
func (m *Master) WaitLeader(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if st := m.node.Status(); st.Leader != "" {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}

// Close stops the replica.
func (m *Master) Close() {
	select {
	case <-m.stopc:
		return
	default:
	}
	close(m.stopc)
	m.wg.Wait()
	m.persist()
	m.raftStore.Close()
	if m.kv != nil {
		m.kv.Close()
	}
	if m.ln != nil {
		m.ln.Close()
	}
}

func (m *Master) persist() {
	if m.kv == nil {
		return
	}
	m.mu.Lock()
	data, err := m.state.snapshot()
	m.mu.Unlock()
	if err == nil {
		_ = m.kv.Put("state", data)
		_ = m.kv.Snapshot()
	}
}

// masterSM adapts Master to raft.StateMachine.
type masterSM Master

// Apply implements raft.StateMachine.
func (sm *masterSM) Apply(index uint64, data []byte) (any, error) {
	c, err := decodeCommand(data)
	if err != nil {
		return nil, err
	}
	m := (*Master)(sm)
	m.mu.Lock()
	out, err := m.state.apply(c, m.cfg.RaftSetSize)
	m.mu.Unlock()
	if err == nil && m.kv != nil {
		// Durable backup of the post-apply state (Section 2: "persisted
		// to a key-value store ... for backup and recovery").
		m.mu.Lock()
		if data, serr := m.state.snapshot(); serr == nil {
			_ = m.kv.Put("state", data)
		}
		m.mu.Unlock()
	}
	return out, err
}

// Snapshot implements raft.StateMachine.
func (sm *masterSM) Snapshot() ([]byte, error) {
	m := (*Master)(sm)
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state.snapshot()
}

// Restore implements raft.StateMachine.
func (sm *masterSM) Restore(data []byte) error {
	m := (*Master)(sm)
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state.restore(data)
}

func (m *Master) propose(c *command) (any, error) {
	data, err := encodeCommand(c)
	if err != nil {
		return nil, err
	}
	return m.node.Propose(data)
}

// ---------------------------------------------------------------------------
// RPC handlers.

func (m *Master) handle(op uint8, req any) (any, error) {
	switch proto.Op(op) {
	case proto.OpRaftMessage:
		return m.raftStore.Handler()(op, req)
	case proto.OpMasterRegisterNode:
		return handleBody(req, m.handleRegister)
	case proto.OpMasterHeartbeat:
		return handleBody(req, m.handleHeartbeat)
	case proto.OpMasterCreateVolume:
		return handleBody(req, m.handleCreateVolume)
	case proto.OpMasterGetVolume:
		return handleBody(req, m.handleGetVolume)
	case proto.OpMasterReportFailure:
		return handleBody(req, m.handleReportFailure)
	case proto.OpMasterClusterStats:
		return m.handleClusterStats()
	default:
		return nil, fmt.Errorf("master: %w: op %d", util.ErrInvalidArgument, op)
	}
}

// handleBody runs h on a request body of the type its op takes. The peer
// picks op and body independently (the transport decodes whatever
// registered type arrived), so a mismatch is refused, never asserted.
func handleBody[Req, Resp any](req any, h func(*Req) (*Resp, error)) (any, error) {
	r, ok := req.(*Req)
	if !ok {
		return nil, fmt.Errorf("master: %w: body %T", util.ErrInvalidArgument, req)
	}
	return h(r)
}

func (m *Master) requireLeader() error {
	if !m.node.IsLeader() {
		return fmt.Errorf("master: %s: %w", m.cfg.Addr, util.ErrNotLeader)
	}
	return nil
}

func (m *Master) handleRegister(req *proto.RegisterNodeReq) (*proto.RegisterNodeResp, error) {
	if err := m.requireLeader(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	_, returning := m.state.Nodes[req.Addr]
	m.mu.Unlock()
	out, err := m.propose(&command{Kind: cmdRegisterNode, Node: &proto.NodeInfo{
		Addr: req.Addr, IsMeta: req.IsMeta, Total: req.Total,
	}})
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	// A registration counts as liveness; without this a node that
	// registers but has not heartbeated yet would look timed-out.
	m.soft.lastHeartbeat[req.Addr] = m.clock.Now()
	m.mu.Unlock()
	if returning && !req.IsMeta {
		// Re-registration = the node restarted. React now instead of
		// waiting for the leaders' own next recovery pass: task a targeted
		// Recover for every partition the node follows, and re-attach it
		// wherever an earlier failover detached it (Section 2.3.3 turned
		// into decisions, not just bookkeeping).
		go m.onNodeReturned(req.Addr)
	}
	return &proto.RegisterNodeResp{RaftSet: out.(int)}, nil
}

func (m *Master) handleHeartbeat(req *proto.HeartbeatReq) (*proto.HeartbeatResp, error) {
	// Heartbeats refresh soft state only; no Raft round trip.
	var lagging []uint64
	m.mu.Lock()
	m.soft.used[req.Addr] = req.Used
	now := m.clock.Now()
	// A gap longer than the death timeout restarts the healthy streak;
	// re-attach and replacement placement wait for it to rebuild
	// (hysteresis), so a flapping node cannot thrash membership changes.
	if prev, ok := m.soft.lastHeartbeat[req.Addr]; ok && now.Sub(prev) <= m.cfg.NodeTimeout {
		m.soft.healthyStreak[req.Addr]++
	} else {
		m.soft.healthyStreak[req.Addr] = 1
	}
	m.soft.lastHeartbeat[req.Addr] = now
	inactive := false
	if n, ok := m.state.Nodes[req.Addr]; ok && !n.Active {
		inactive = true
	}
	// Reconfiguration repair needs the recorded epoch per reported
	// partition; the cached index (rebuilt only when the replicated state
	// changes) keeps the steady-state heartbeat O(reports) under the lock.
	var dpEpochs map[uint64]uint64
	if len(req.Partitions) > 0 {
		dpEpochs = partEpochsLocked(m.state, m.soft)
	}
	for _, pr := range req.Partitions {
		// Reconfiguration repair FIRST (followers report too, and they are
		// exactly who misses pushes): a replica reporting an older epoch
		// than the record holds missed (or lost) an update push; re-push
		// so a partial failover cannot leave a member fenced forever.
		if pr.ReplicaEpoch != 0 && dpEpochs != nil {
			if rec, ok := dpEpochs[pr.PartitionID]; ok &&
				pr.ReplicaEpoch < rec && !m.soft.pushing[pr.PartitionID] {
				m.soft.pushing[pr.PartitionID] = true
				lagging = append(lagging, pr.PartitionID)
			}
		}
		// Every replica reports each partition; the leader's view is
		// authoritative (followers may lag a commit round and would
		// otherwise understate MaxInodeID, breaking Algorithm 1's cut).
		if prev, ok := m.soft.partStats[pr.PartitionID]; ok && prev.IsLeader && !pr.IsLeader {
			continue
		}
		m.soft.partStats[pr.PartitionID] = pr
	}
	m.mu.Unlock()
	if inactive && m.node.IsLeader() {
		// The node was declared dead but is talking again: flip it back so
		// placement may use it (re-attach of its detached replicas is the
		// maintenance scan's job).
		_, _ = m.propose(&command{Kind: cmdSetNodeActive, Addr: req.Addr, Active: true})
	}
	for _, pid := range lagging {
		go m.repushPartition(pid)
	}
	// Every reply renews the node's read lease for one NodeTimeout term:
	// reads are refused once the lease lapses, so a deposed leader that
	// lost its master connection fences itself off the read path in the
	// same window the master needs to declare it dead and promote.
	return &proto.HeartbeatResp{ReadLeaseMillis: m.cfg.NodeTimeout.Milliseconds()}, nil
}

func (m *Master) handleCreateVolume(req *proto.CreateVolumeReq) (*proto.CreateVolumeResp, error) {
	if err := m.requireLeader(); err != nil {
		return nil, err
	}
	if req.Name == "" || req.MetaPartitionCount < 1 || req.DataPartitionCount < 1 {
		return nil, fmt.Errorf("master: %w: bad volume spec", util.ErrInvalidArgument)
	}
	if _, err := m.propose(&command{Kind: cmdCreateVolume, VolumeName: req.Name, Capacity: req.Capacity}); err != nil {
		return nil, err
	}
	// Carve the inode-id space across the initial meta partitions; the
	// last one is unbounded (MaxUint64), mirroring the paper's split
	// topology where ranges end at infinity.
	const initialRange = uint64(1) << 24
	start := uint64(1)
	for i := 0; i < req.MetaPartitionCount; i++ {
		end := ^uint64(0)
		if i < req.MetaPartitionCount-1 {
			end = start + initialRange - 1
		}
		if _, err := m.addMetaPartition(req.Name, start, end); err != nil {
			return nil, err
		}
		start = end + 1
	}
	for i := 0; i < req.DataPartitionCount; i++ {
		if err := m.addDataPartition(req.Name); err != nil {
			return nil, err
		}
	}
	view, err := m.viewOf(req.Name)
	if err != nil {
		return nil, err
	}
	// The first meta partition owns inode id 1: create the volume root.
	if len(view.MetaPartitions) > 0 {
		mp := view.MetaPartitions[0]
		var resp proto.CreateInodeResp
		if err := m.callMetaLeader(mp, uint8(proto.OpMetaCreateInode),
			&proto.CreateInodeReq{PartitionID: mp.PartitionID, Type: proto.TypeDir}, &resp); err != nil {
			return nil, fmt.Errorf("master: create volume root: %w", err)
		}
	}
	return &proto.CreateVolumeResp{View: view}, nil
}

// callMetaLeader tries each member of a meta partition until one accepts
// (the designated leader is first, so retries are rare).
func (m *Master) callMetaLeader(mp proto.MetaPartitionInfo, op uint8, req, resp any) error {
	var lastErr error
	// Partitions provisioned moments ago may still be electing; under
	// load a fresh raft group can take the better part of a second, so
	// give the sweep a wide window. An established leader answers the
	// first probe, so the patience costs nothing on the steady path. The
	// pause waits out an election, which runs on wall time, so it is a
	// wall-clock sleep, not the master's clock.
	for attempt := 0; attempt < 50; attempt++ {
		for _, addr := range mp.Members {
			err := m.nw.Call(addr, op, req, resp)
			if err == nil {
				return nil
			}
			lastErr = err
		}
		time.Sleep(20 * time.Millisecond)
	}
	return lastErr
}

// place picks the least-utilized nodes for a new partition of the kind and
// allocates its id.
func (m *Master) place(isMeta bool) (members []string, id uint64, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	members, err = pickNodes(m.state, m.soft, isMeta, m.replicaCountLocked(isMeta))
	return members, m.allocPartitionIDLocked(), err
}

// provision creates a placed partition on its members, then commits the
// record: a failure leaves at most unused partitions on nodes, never a
// dangling record. members[0] is created last: that replica campaigns the
// moment its group exists, and a vote request that reaches a peer with no
// group yet is dropped - the group would then wait out an election timeout.
func (m *Master) provision(members []string, op proto.Op, req any, record *command) error {
	for i := len(members) - 1; i >= 0; i-- {
		if err := m.nw.Call(members[i], uint8(op), req, nil); err != nil {
			return fmt.Errorf("master: provision partition on %s: %w", members[i], err)
		}
	}
	_, err := m.propose(record)
	return err
}

// addMetaPartition places and provisions a new meta partition.
func (m *Master) addMetaPartition(volume string, start, end uint64) (*proto.MetaPartitionInfo, error) {
	members, id, err := m.place(true)
	if err != nil {
		return nil, err
	}
	mp := &proto.MetaPartitionInfo{
		PartitionID:  id,
		Volume:       volume,
		Start:        start,
		End:          end,
		Members:      members,
		LeaderAddr:   members[0],
		Status:       proto.PartitionReadWrite,
		ReplicaEpoch: 1,
	}
	err = m.provision(members, proto.OpAdminCreateMetaPartition, &proto.CreateMetaPartitionReq{
		PartitionID: id, Volume: volume, Start: start, End: end, Members: members,
	}, &command{Kind: cmdAddMetaPartition, VolumeName: volume, MetaPartition: mp})
	if err != nil {
		return nil, err
	}
	return mp, nil
}

// addDataPartition places and provisions a new data partition.
func (m *Master) addDataPartition(volume string) error {
	members, id, err := m.place(false)
	if err != nil {
		return err
	}
	dp := &proto.DataPartitionInfo{
		PartitionID:  id,
		Volume:       volume,
		Members:      members,
		LeaderAddr:   members[0],
		Status:       proto.PartitionReadWrite,
		Capacity:     m.cfg.DataPartitionCapacity,
		ReplicaEpoch: 1,
	}
	return m.provision(members, proto.OpAdminCreateDataPartition, &proto.CreateDataPartitionReq{
		PartitionID: id, Volume: volume, Capacity: dp.Capacity, Members: members, ReplicaEpoch: 1,
	}, &command{Kind: cmdAddDataPartition, VolumeName: volume, DataPartition: dp})
}

// allocPartitionIDLocked hands out a partition id unique on this leader.
// Caller holds m.mu.
func (m *Master) allocPartitionIDLocked() uint64 {
	if m.nextAlloc < m.state.NextID {
		m.nextAlloc = m.state.NextID
	}
	id := m.nextAlloc
	m.nextAlloc++
	return id
}

func (m *Master) replicaCountLocked(isMeta bool) int {
	if m.cfg.ReplicaCount > 0 {
		return m.cfg.ReplicaCount
	}
	n := 0
	for _, node := range m.state.Nodes {
		if node.IsMeta == isMeta && node.Active {
			n++
		}
	}
	return util.Min(3, util.Max(n, 1))
}

func (m *Master) handleGetVolume(req *proto.GetVolumeReq) (*proto.GetVolumeResp, error) {
	view, err := m.viewOf(req.Name)
	if err != nil {
		return nil, err
	}
	return &proto.GetVolumeResp{View: view}, nil
}

func (m *Master) viewOf(name string) (*proto.VolumeView, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.state.Volumes[name]
	if !ok {
		return nil, fmt.Errorf("master: volume %q: %w", name, util.ErrNotFound)
	}
	view := &proto.VolumeView{
		Name:           name,
		Epoch:          v.Epoch,
		MetaPartitions: append([]proto.MetaPartitionInfo(nil), v.MetaPartitions...),
		DataPartitions: append([]proto.DataPartitionInfo(nil), v.DataPartitions...),
	}
	// Refresh soft fields from heartbeat stats.
	for i := range view.MetaPartitions {
		if pr, ok := m.soft.partStats[view.MetaPartitions[i].PartitionID]; ok {
			view.MetaPartitions[i].InodeCount = pr.InodeCount
			view.MetaPartitions[i].MaxInodeID = pr.MaxInodeID
		}
	}
	for i := range view.DataPartitions {
		if pr, ok := m.soft.partStats[view.DataPartitions[i].PartitionID]; ok {
			view.DataPartitions[i].Used = pr.Used
			view.DataPartitions[i].ExtentCount = pr.ExtentCount
			if pr.Status != proto.PartitionReadWrite &&
				view.DataPartitions[i].Status == proto.PartitionReadWrite {
				view.DataPartitions[i].Status = pr.Status
			}
		}
	}
	return view, nil
}

// handleReportFailure implements Section 2.3.3 turned into decisions: the
// master reconfigures instead of fencing the whole partition. The reported
// replica is detached under a bumped epoch, the partition stays writable on
// the survivors (a meta partition's Raft group shrinks around the dead
// member via ConfChange), and the replica re-attaches once it heartbeats
// again. A report naming a node that is not a member is inert.
func (m *Master) handleReportFailure(req *proto.ReportFailureReq) (*proto.ReportFailureResp, error) {
	if err := m.requireLeader(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.soft.failures[req.PartitionID]++
	count := m.soft.failures[req.PartitionID]
	rs, ok := m.state.find(req.PartitionID)
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("master: partition %d: %w", req.PartitionID, util.ErrNotFound)
	}
	// The one decision that depends on the kind: a data partition that
	// loses its last member is unavailable at once (detach), a meta
	// partition with nothing left to remove keeps the paper's escalation -
	// read-only first, unavailable at FailureThreshold reports.
	if rs.isMeta && len(rs.members) == 1 && rs.members[0] == req.Addr {
		status := proto.PartitionReadOnly
		if count >= m.cfg.FailureThreshold {
			status = proto.PartitionUnavailable
		}
		if err := m.setStatus(rs, status); err != nil {
			return nil, err
		}
		return &proto.ReportFailureResp{}, nil
	}
	m.detach(rs, req.Addr)
	return &proto.ReportFailureResp{}, nil
}

func (m *Master) handleClusterStats() (*proto.ClusterStatsResp, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	resp := &proto.ClusterStatsResp{}
	for _, n := range m.state.Nodes {
		info := *n
		info.Used = m.soft.used[n.Addr]
		info.LastHeartbeat = m.soft.lastHeartbeat[n.Addr]
		if n.IsMeta {
			resp.MetaNodes = append(resp.MetaNodes, info)
		} else {
			resp.DataNodes = append(resp.DataNodes, info)
		}
	}
	for name, v := range m.state.Volumes {
		resp.Volumes = append(resp.Volumes, name)
		resp.MetaPartitions += len(v.MetaPartitions)
		resp.DataPartitions += len(v.DataPartitions)
	}
	return resp, nil
}

// ---------------------------------------------------------------------------
// Background maintenance: Algorithm 1 splitting + capacity expansion
// (Section 2.3.1 "when the resource manager finds that all the partitions
// in a volume is about to be full, it automatically adds a set of new
// partitions"). Start runs CheckOnce every checkInterval on the clock.

// CheckOnce runs one maintenance scan (exported for tests and the bench
// harness). It splits meta partitions whose inode count crossed the limit,
// expands volumes whose writable data partitions are nearly full, declares
// heartbeat-silent nodes dead (reconfiguring their partitions around them),
// re-attaches detached replicas that came back, and replaces the ones that
// did not.
func (m *Master) CheckOnce() {
	m.checkNodeLiveness()
	m.checkReattach()
	m.checkReplacement()
	m.mu.Lock()
	type splitTask struct {
		volume string
		mp     proto.MetaPartitionInfo
		maxIno uint64
	}
	var splits []splitTask
	type expandTask struct{ volume string }
	var expands []expandTask
	for _, v := range m.state.Volumes {
		maxPartitionID := uint64(0)
		for _, mp := range v.MetaPartitions {
			if mp.PartitionID > maxPartitionID {
				maxPartitionID = mp.PartitionID
			}
		}
		for _, mp := range v.MetaPartitions {
			pr, ok := m.soft.partStats[mp.PartitionID]
			if !ok || mp.Status != proto.PartitionReadWrite {
				continue
			}
			// Algorithm 1 guard: only the latest partition (the one
			// with the unbounded range) splits.
			if mp.PartitionID < maxPartitionID {
				continue
			}
			if mp.End != ^uint64(0) {
				continue
			}
			if pr.InodeCount >= m.cfg.MetaPartitionInodeLimit {
				splits = append(splits, splitTask{volume: v.Name, mp: mp, maxIno: pr.MaxInodeID})
			}
		}
		writable := 0
		for _, dp := range v.DataPartitions {
			pr, ok := m.soft.partStats[dp.PartitionID]
			if dp.Status == proto.PartitionReadWrite &&
				(!ok || pr.Used < dp.Capacity*9/10) {
				writable++
			}
		}
		if writable == 0 && len(v.DataPartitions) > 0 {
			expands = append(expands, expandTask{volume: v.Name})
		}
	}
	m.mu.Unlock()

	for _, s := range splits {
		_ = m.SplitMetaPartition(s.volume, s.mp, s.maxIno)
	}
	for _, e := range expands {
		_ = m.addDataPartition(e.volume)
	}
}

// SplitMetaPartition runs Algorithm 1 on one partition: cut the inode
// range at maxInodeID+delta, sync the cut with the meta node, update the
// record, and create the successor partition covering (end, MaxUint64].
func (m *Master) SplitMetaPartition(volume string, mp proto.MetaPartitionInfo, maxInodeID uint64) error {
	end := maxInodeID + m.cfg.SplitDelta
	// Sync with the meta node first (Algorithm 1: addTask).
	var resp proto.SplitMetaPartitionResp
	if err := m.callMetaLeader(mp, uint8(proto.OpMetaSplitPartition),
		&proto.SplitMetaPartitionReq{PartitionID: mp.PartitionID, End: end}, &resp); err != nil {
		return err
	}
	// Update the original partition record (updateMetaPartition).
	if _, err := m.propose(&command{
		Kind: cmdCutMetaPartition, VolumeName: volume,
		PartitionID: mp.PartitionID, End: end,
	}); err != nil {
		return err
	}
	// Create the successor covering [end+1, MaxUint64] on the
	// least-utilized meta nodes (createMetaPartition).
	_, err := m.addMetaPartition(volume, end+1, ^uint64(0))
	return err
}
