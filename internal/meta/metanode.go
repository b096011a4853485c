// Package meta implements the CFS metadata subsystem (paper Section 2.1):
// meta nodes hosting in-memory meta partitions, each a Raft group
// replicating inode and dentry state indexed by two B-Trees.
package meta

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"cfs/internal/clock"
	"cfs/internal/proto"
	"cfs/internal/raftstore"
	"cfs/internal/transport"
	"cfs/internal/util"
)

// Config configures a MetaNode.
type Config struct {
	// Addr is the node's transport address.
	Addr string
	// MasterAddr is the resource manager address.
	MasterAddr string
	// Dir is where partition snapshots persist (Section 2.1.3). Empty
	// disables disk persistence (benchmarks).
	Dir string
	// Total is the advertised memory capacity in bytes. Zero means 32 GB.
	Total uint64
	// Raft tunes partition Raft groups.
	Raft raftstore.Config
	// Clock runs the heartbeat and snapshot loops. Nil means clock.Real;
	// on a clock.Manual neither runs and the caller drives SendHeartbeat
	// and PersistSnapshots.
	Clock clock.Clock
}

const (
	// heartbeatInterval is the period of master heartbeats.
	heartbeatInterval = time.Second
	// snapshotInterval is the period of partition snapshots to Dir.
	snapshotInterval = 10 * time.Second
)

// MetaNode hosts meta partitions.
type MetaNode struct {
	addr       string
	masterAddr string
	dir        string
	total      uint64
	nw         transport.Network
	raft       *raftstore.Store

	mu         sync.RWMutex
	partitions map[uint64]*Partition
	closed     bool

	ln    transport.Listener
	stopc chan struct{}
	wg    sync.WaitGroup
}

// Start creates a MetaNode, binds its address, registers with the master,
// and begins heartbeating and snapshotting.
func Start(nw transport.Network, cfg Config) (*MetaNode, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("meta: %w: Addr is required", util.ErrInvalidArgument)
	}
	if cfg.Total == 0 {
		cfg.Total = 32 * util.GB
	}
	m := &MetaNode{
		addr:       cfg.Addr,
		masterAddr: cfg.MasterAddr,
		dir:        cfg.Dir,
		total:      cfg.Total,
		nw:         nw,
		partitions: make(map[uint64]*Partition),
		stopc:      make(chan struct{}),
	}
	m.raft = raftstore.New(cfg.Addr, nw, cfg.Raft)
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			m.raft.Close()
			return nil, err
		}
		if err := m.loadSnapshots(); err != nil {
			m.raft.Close()
			return nil, err
		}
	}
	ln, err := nw.Listen(cfg.Addr, m.handle)
	if err != nil {
		m.raft.Close()
		return nil, err
	}
	m.ln = ln
	if cfg.MasterAddr != "" {
		if err := m.register(); err != nil {
			m.Close()
			return nil, err
		}
		clk := clock.OrReal(cfg.Clock)
		m.every(clk, heartbeatInterval, m.SendHeartbeat)
		if cfg.Dir != "" {
			m.every(clk, snapshotInterval, m.PersistSnapshots)
		}
	}
	return m, nil
}

// Addr returns the node's transport address.
func (m *MetaNode) Addr() string { return m.addr }

// Close stops loops, Raft groups, and the listener, persisting partitions
// first when a directory is configured.
func (m *MetaNode) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	close(m.stopc)
	m.wg.Wait()
	if m.dir != "" {
		m.PersistSnapshots()
	}
	m.raft.Close()
	if m.ln != nil {
		m.ln.Close()
	}
}

// Partition returns the hosted partition with the given id, or nil.
func (m *MetaNode) Partition(id uint64) *Partition {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.partitions[id]
}

// PartitionCount returns the number of hosted partitions.
func (m *MetaNode) PartitionCount() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.partitions)
}

// MemUsed sums the estimated footprint of hosted partitions; it is the
// utilization figure heartbeats report for placement (Section 2.3.1).
func (m *MetaNode) MemUsed() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var used uint64
	for _, p := range m.partitions {
		used += p.MemUsed()
	}
	return used
}

// CreatePartition hosts a new meta partition (master admin task).
func (m *MetaNode) CreatePartition(req *proto.CreateMetaPartitionReq) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return util.ErrClosed
	}
	if _, ok := m.partitions[req.PartitionID]; ok {
		return fmt.Errorf("meta: partition %d: %w", req.PartitionID, util.ErrExist)
	}
	p := NewPartition(req.PartitionID, req.Volume, req.Start, req.End, req.Members)
	if len(req.Members) > 1 {
		node, err := m.raft.CreateGroup(req.PartitionID, req.Members, p)
		if err != nil {
			return err
		}
		p.raft = node
		if len(req.Members) > 0 && req.Members[0] == m.addr {
			node.Campaign() // bias the designated leader
		}
	}
	m.partitions[req.PartitionID] = p
	return nil
}

// UpdatePartition adopts a master reconfiguration task: a new Members set
// under a bumped ReplicaEpoch (stale epochs are ignored, so replays are
// harmless), then drives the partition's Raft group toward the new set in
// the background. The PacificA-style epoch fence and the Raft quorum are
// kept one view: the ConfChange diff this node proposes (once it is, or
// becomes, the Raft leader) is exactly the delta the master recorded under
// this epoch, so a detached replica stops counting toward quorum instead of
// holding the group hostage.
func (m *MetaNode) UpdatePartition(req *proto.UpdateMetaPartitionReq) (*proto.UpdateMetaPartitionResp, error) {
	p := m.Partition(req.PartitionID)
	if p == nil {
		// A member that does not host the partition - a replacement
		// newcomer, or a disk wiped between detach and re-attach: create it
		// empty under the pushed configuration. The Raft leader's AddNode
		// fills it by snapshot or log. Refusing would wedge the
		// reconfiguration with no repair path, since a node that does not
		// host the partition never reports it in heartbeats. A SOLE member
		// is refused: nobody could fill it, and an empty partition serving
		// would turn a lost namespace into a silently empty one.
		if len(req.Members) < 2 {
			return nil, fmt.Errorf("meta: partition %d: %w", req.PartitionID, util.ErrNotFound)
		}
		err := m.CreatePartition(&proto.CreateMetaPartitionReq{
			PartitionID: req.PartitionID, Volume: req.Volume,
			Start: req.Start, End: req.End, Members: req.Members,
		})
		if err != nil && !errors.Is(err, util.ErrExist) {
			return nil, err
		}
		if p = m.Partition(req.PartitionID); p == nil {
			return nil, fmt.Errorf("meta: partition %d: %w", req.PartitionID, util.ErrNotFound)
		}
	}
	if p.applyReconfig(req.Members, req.ReplicaEpoch) {
		m.raft.Reconcile(p.ID, p, p.MembersCopy, p.setRaftGroup)
	}
	return &proto.UpdateMetaPartitionResp{ReplicaEpoch: p.Epoch()}, nil
}

// IsLeader reports whether this node leads the given partition's group.
func (m *MetaNode) IsLeader(partitionID uint64) bool {
	p := m.Partition(partitionID)
	if p == nil {
		return false
	}
	g := p.raftGroup()
	if g == nil {
		return true
	}
	return g.IsLeader()
}

func (m *MetaNode) register() error {
	var resp proto.RegisterNodeResp
	return m.nw.Call(m.masterAddr, uint8(proto.OpMasterRegisterNode),
		&proto.RegisterNodeReq{Addr: m.addr, IsMeta: true, Total: m.total}, &resp)
}

// every runs fn every d on clk until Close.
func (m *MetaNode) every(clk clock.Clock, d time.Duration, fn func()) {
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		clk.Every(d, m.stopc, fn)
	}()
}

// SendHeartbeat reports utilization, per-partition counts and maxInodeID to
// the master (Algorithm 1 reads maxInodeID from these reports).
func (m *MetaNode) SendHeartbeat() {
	m.mu.RLock()
	reports := make([]proto.PartitionReport, 0, len(m.partitions))
	var used uint64
	for _, p := range m.partitions {
		u := p.MemUsed()
		used += u
		g := p.raftGroup()
		isLeader := g == nil || g.IsLeader()
		reports = append(reports, proto.PartitionReport{
			PartitionID:  p.ID,
			Used:         u,
			InodeCount:   p.InodeCount(),
			MaxInodeID:   p.MaxInodeID(),
			IsLeader:     isLeader,
			Status:       proto.PartitionReadWrite,
			ReplicaEpoch: p.Epoch(),
		})
	}
	m.mu.RUnlock()
	_ = m.nw.Call(m.masterAddr, uint8(proto.OpMasterHeartbeat), &proto.HeartbeatReq{
		Addr:       m.addr,
		IsMeta:     true,
		Used:       used,
		Total:      m.total,
		Partitions: reports,
	}, nil)
}

// ---------------------------------------------------------------------------
// Disk persistence (Section 2.1.3): partitions snapshot to files; restart
// reloads them. Raft then reconciles replicas that diverged while down.

// PersistSnapshots writes every partition's snapshot to disk atomically.
func (m *MetaNode) PersistSnapshots() {
	m.mu.RLock()
	parts := make([]*Partition, 0, len(m.partitions))
	for _, p := range m.partitions {
		parts = append(parts, p)
	}
	m.mu.RUnlock()
	for _, p := range parts {
		data, err := p.Snapshot()
		if err != nil {
			continue
		}
		path := filepath.Join(m.dir, fmt.Sprintf("mp_%d.snap", p.ID))
		_ = util.WriteFileAtomic(path, data)
	}
}

func (m *MetaNode) loadSnapshots() error {
	entries, err := os.ReadDir(m.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		var id uint64
		if _, err := fmt.Sscanf(e.Name(), "mp_%d.snap", &id); err != nil {
			continue
		}
		// Sscanf matches prefixes, so "mp_5.snap.tmp-123" (a temp file a
		// crash mid-snapshot can leave behind) would parse as id 5;
		// require the exact snapshot name.
		if e.Name() != fmt.Sprintf("mp_%d.snap", id) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(m.dir, e.Name()))
		if err != nil {
			return err
		}
		p := NewPartition(id, "", 1, 0, nil)
		if err := p.Restore(data); err != nil {
			return fmt.Errorf("meta: corrupt snapshot for partition %d: %w", id, err)
		}
		// The Raft log is in memory, so the re-hosted group's log starts
		// again at index 1: an applied index from the old log would skip
		// its first entries.
		p.applied = 0
		// Re-host the partition's Raft group (the snapshot carries the
		// replica set). Before this, a restarted node reloaded state but
		// never re-joined the group, so a full-cluster restart silently
		// degraded every meta partition to an unreplicated one.
		if members := p.MembersCopy(); len(members) > 1 && slices.Contains(members, m.addr) {
			node, err := m.raft.CreateGroup(id, members, p)
			if err != nil {
				return err
			}
			p.raft = node
			if members[0] == m.addr {
				node.Campaign()
			}
		}
		m.partitions[id] = p
	}
	return nil
}

// ---------------------------------------------------------------------------
// RPC dispatch.

func (m *MetaNode) handle(op uint8, req any) (any, error) {
	switch proto.Op(op) {
	case proto.OpRaftMessage:
		return m.raft.Handler()(op, req)
	case proto.OpAdminCreateMetaPartition:
		r, ok := req.(*proto.CreateMetaPartitionReq)
		if !ok {
			return nil, errBody(req)
		}
		if err := m.CreatePartition(r); err != nil {
			return nil, err
		}
		return &proto.CreateMetaPartitionResp{}, nil
	case proto.OpAdminUpdateMetaPartition:
		// Reconfiguration pushes are applied by every member locally (the
		// non-leader refusal below must not gate them: the whole point is
		// that the leader may be the replica that just died).
		r, ok := req.(*proto.UpdateMetaPartitionReq)
		if !ok {
			return nil, errBody(req)
		}
		return m.UpdatePartition(r)
	}

	// All remaining ops address a specific partition.
	pid, err := partitionIDOf(req)
	if err != nil {
		return nil, err
	}
	p := m.Partition(pid)
	if p == nil {
		return nil, fmt.Errorf("meta: partition %d: %w", pid, util.ErrNotFound)
	}
	// Writes must go through the group leader, and reads are served by it
	// too, admitted on its local view of leadership: no lease and no
	// ReadIndex, so a deposed leader that has not yet heard the new term
	// still answers reads (the paper's relaxed semantics, §2.6).
	if g := p.raftGroup(); g != nil && !g.IsLeader() {
		return nil, fmt.Errorf("meta: partition %d on %s: %w", pid, m.addr, util.ErrNotLeader)
	}

	switch o := proto.Op(op); o {
	case proto.OpMetaCreateInode, proto.OpMetaUnlinkInode, proto.OpMetaEvictInode,
		proto.OpMetaLinkInode, proto.OpMetaCreateDentry, proto.OpMetaDeleteDentry,
		proto.OpMetaUpdateDentry, proto.OpMetaSetAttr, proto.OpMetaAppendExtentKeys,
		proto.OpMetaSplitPartition:
		return p.propose(o, req)

	case proto.OpMetaLookup:
		r, ok := req.(*proto.LookupReq)
		if !ok {
			return nil, errBody(req)
		}
		resp, err := p.Lookup(r.ParentID, r.Name)
		if err != nil {
			return nil, err
		}
		resp.Info = m.leaderInode(p, resp.Inode)
		return resp, nil

	case proto.OpMetaInodeGet:
		r, ok := req.(*proto.InodeGetReq)
		if !ok {
			return nil, errBody(req)
		}
		ino, err := p.InodeGet(r.Inode)
		if err != nil {
			return nil, err
		}
		return &proto.InodeGetResp{Info: ino}, nil

	case proto.OpMetaBatchInodeGet:
		r, ok := req.(*proto.BatchInodeGetReq)
		if !ok {
			return nil, errBody(req)
		}
		return &proto.BatchInodeGetResp{Infos: p.BatchInodeGet(r.Inodes)}, nil

	case proto.OpMetaReadDir:
		r, ok := req.(*proto.ReadDirReq)
		if !ok {
			return nil, errBody(req)
		}
		return &proto.ReadDirResp{Children: p.ReadDir(r.ParentID)}, nil

	case proto.OpMetaSnapshot:
		snapInodes := p.BatchAllInodes()
		return &proto.MetaSnapshotResp{Inodes: snapInodes, Dentries: p.AllDentries()}, nil

	default:
		return nil, fmt.Errorf("meta: %w: op %d", util.ErrInvalidArgument, op)
	}
}

// leaderInode returns inode id of from's volume when this node leads the
// partition whose range holds it, so that a Lookup reply can carry it and
// a cold stat costs one round trip. It is nil when another
// node leads that partition, this node does not host it, or the inode is
// gone or delete-marked. The read is the partition's own InodeGet under
// the admission handle gives an InodeGet: this node's local view of
// leadership, no lease and no ReadIndex. m.mu is released before any
// partition's lock is taken.
func (m *MetaNode) leaderInode(from *Partition, id uint64) *proto.Inode {
	volume := from.volume()
	var buf [8]*Partition
	parts := buf[:0]
	m.mu.RLock()
	for _, p := range m.partitions {
		parts = append(parts, p)
	}
	m.mu.RUnlock()
	for _, p := range parts {
		if !p.holds(volume, id) {
			continue
		}
		if g := p.raftGroup(); g != nil && !g.IsLeader() {
			return nil
		}
		ino, _ := p.InodeGet(id)
		return ino
	}
	return nil
}

// partitionIDOf extracts the target partition from a request body.
func partitionIDOf(req any) (uint64, error) {
	switch r := req.(type) {
	case *proto.CreateInodeReq:
		return r.PartitionID, nil
	case *proto.UnlinkInodeReq:
		return r.PartitionID, nil
	case *proto.EvictInodeReq:
		return r.PartitionID, nil
	case *proto.LinkInodeReq:
		return r.PartitionID, nil
	case *proto.CreateDentryReq:
		return r.PartitionID, nil
	case *proto.DeleteDentryReq:
		return r.PartitionID, nil
	case *proto.UpdateDentryReq:
		return r.PartitionID, nil
	case *proto.LookupReq:
		return r.PartitionID, nil
	case *proto.InodeGetReq:
		return r.PartitionID, nil
	case *proto.BatchInodeGetReq:
		return r.PartitionID, nil
	case *proto.ReadDirReq:
		return r.PartitionID, nil
	case *proto.SetAttrReq:
		return r.PartitionID, nil
	case *proto.AppendExtentKeysReq:
		return r.PartitionID, nil
	case *proto.SplitMetaPartitionReq:
		return r.PartitionID, nil
	case *proto.MetaSnapshotReq:
		return r.PartitionID, nil
	default:
		return 0, errBody(req)
	}
}

// errBody refuses a request whose body is not the type its op takes. The
// peer picks op and body independently, so every assertion in handle, and
// the encode propose makes of a mutation, is checked: a mismatch is an
// answer, not a panic.
func errBody(req any) error {
	return fmt.Errorf("meta: %w: body %T", util.ErrInvalidArgument, req)
}
