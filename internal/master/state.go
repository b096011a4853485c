package master

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
	"time"

	"cfs/internal/proto"
	"cfs/internal/util"
)

// clusterState is the replicated, durable state of the resource manager:
// registered nodes, volumes, and partition records. Soft state (utilization
// and liveness from heartbeats) lives beside it on the leader and is NOT
// replicated; it is reconstructed from heartbeats after failover.
type clusterState struct {
	Nodes       map[string]*proto.NodeInfo
	Volumes     map[string]*volumeState
	NextID      uint64 // next partition id
	NextRaftSet int    // round-robin raft-set assignment cursor
	// Version counts applied commands; derived soft-state caches (the
	// heartbeat path's partition-epoch index) key their freshness on it.
	Version uint64
}

// volumeState is a volume's partition membership.
type volumeState struct {
	Name           string
	Capacity       uint64
	MetaPartitions []proto.MetaPartitionInfo
	DataPartitions []proto.DataPartitionInfo
	Epoch          uint64
}

// replicaSet is the membership lifecycle's working copy of one partition
// record. Data and meta partitions share one lifecycle (failover.go), so it
// runs over this value plus a kind flag instead of over either record type.
type replicaSet struct {
	isMeta   bool
	volume   string
	id       uint64
	members  []string
	detached []string
	epoch    uint64
	status   proto.PartitionStatus
	// Carried only for the update push, which lets a member that does not
	// host the partition create it: data's capacity, meta's inode range.
	capacity, start, end uint64
}

// replicaSets copies every partition record out, data and meta alike. The
// slices alias the records'; apply replaces them whole, never in place.
func (s *clusterState) replicaSets() []replicaSet {
	var out []replicaSet
	for _, v := range s.Volumes {
		for _, dp := range v.DataPartitions {
			out = append(out, replicaSet{
				volume: v.Name, id: dp.PartitionID, members: dp.Members, detached: dp.Detached,
				epoch: dp.ReplicaEpoch, status: dp.Status, capacity: dp.Capacity,
			})
		}
		for _, mp := range v.MetaPartitions {
			out = append(out, replicaSet{
				isMeta: true, volume: v.Name, id: mp.PartitionID, members: mp.Members, detached: mp.Detached,
				epoch: mp.ReplicaEpoch, status: mp.Status, start: mp.Start, end: mp.End,
			})
		}
	}
	return out
}

// find locates a partition by id alone: data and meta ids come from one
// allocator.
func (s *clusterState) find(pid uint64) (replicaSet, bool) {
	for _, rs := range s.replicaSets() {
		if rs.id == pid {
			return rs, true
		}
	}
	return replicaSet{}, false
}

// recordRef points at the fields of one partition record the lifecycle
// commands write.
type recordRef struct {
	members, detached *[]string
	leader            *string
	epoch             *uint64
	status            *proto.PartitionStatus
}

// record resolves the partition a lifecycle command names: c.IsMeta picks
// the record list, the only place the two record types are told apart.
func (s *clusterState) record(c *command) (*volumeState, recordRef, error) {
	v, ok := s.Volumes[c.VolumeName]
	if !ok {
		return nil, recordRef{}, fmt.Errorf("master: volume %q: %w", c.VolumeName, util.ErrNotFound)
	}
	if c.IsMeta {
		for i := range v.MetaPartitions {
			if p := &v.MetaPartitions[i]; p.PartitionID == c.PartitionID {
				return v, recordRef{&p.Members, &p.Detached, &p.LeaderAddr, &p.ReplicaEpoch, &p.Status}, nil
			}
		}
	} else {
		for i := range v.DataPartitions {
			if p := &v.DataPartitions[i]; p.PartitionID == c.PartitionID {
				return v, recordRef{&p.Members, &p.Detached, &p.LeaderAddr, &p.ReplicaEpoch, &p.Status}, nil
			}
		}
	}
	return nil, recordRef{}, fmt.Errorf("master: %s partition %d: %w", nodeKind(c.IsMeta), c.PartitionID, util.ErrNotFound)
}

func newClusterState() *clusterState {
	return &clusterState{
		Nodes:   make(map[string]*proto.NodeInfo),
		Volumes: make(map[string]*volumeState),
		NextID:  10,
	}
}

// cmdKind enumerates replicated master commands.
type cmdKind uint8

const (
	cmdRegisterNode cmdKind = iota + 1
	cmdCreateVolume
	cmdAddMetaPartition
	cmdAddDataPartition
	cmdCutMetaPartition
	cmdSetPartitionStatus
	// cmdReconfigurePartition replaces a partition's replica set (detach,
	// re-attach, replacement) under a bumped ReplicaEpoch - the
	// PacificA-style reconfiguration record. IsMeta names the record list,
	// as for cmdSetPartitionStatus.
	cmdReconfigurePartition
	// cmdSetNodeActive flips a node's liveness flag (heartbeat timeout /
	// return), keeping placement away from dead nodes deterministically.
	cmdSetNodeActive
)

// command is the Raft log payload for master mutations.
type command struct {
	Kind cmdKind

	Node *proto.NodeInfo

	VolumeName string
	Capacity   uint64

	MetaPartition *proto.MetaPartitionInfo
	DataPartition *proto.DataPartitionInfo

	PartitionID uint64
	End         uint64
	Status      proto.PartitionStatus
	IsMeta      bool

	// Reconfiguration payload (cmdReconfigurePartition) and node liveness
	// payload (cmdSetNodeActive).
	Members      []string
	Detached     []string
	ReplicaEpoch uint64
	Addr         string
	Active       bool
}

func init() {
	gob.Register(&command{})
}

func encodeCommand(c *command) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeCommand(data []byte) (*command, error) {
	c := &command{}
	return c, gob.NewDecoder(bytes.NewReader(data)).Decode(c)
}

// apply mutates state with one committed command. Must be deterministic.
func (s *clusterState) apply(c *command, raftSetSize int) (any, error) {
	s.Version++ // every command invalidates derived caches, even on error
	switch c.Kind {
	case cmdRegisterNode:
		if existing, ok := s.Nodes[c.Node.Addr]; ok {
			// Re-registration (node restart): keep the raft set stable.
			existing.Total = c.Node.Total
			existing.Active = true
			return existing.RaftSet, nil
		}
		n := *c.Node
		n.RaftSet = s.NextRaftSet / util.Max(raftSetSize, 1)
		s.NextRaftSet++
		n.Active = true
		s.Nodes[n.Addr] = &n
		return n.RaftSet, nil

	case cmdCreateVolume:
		if _, ok := s.Volumes[c.VolumeName]; ok {
			return nil, fmt.Errorf("master: volume %q: %w", c.VolumeName, util.ErrExist)
		}
		s.Volumes[c.VolumeName] = &volumeState{
			Name:     c.VolumeName,
			Capacity: c.Capacity,
			Epoch:    1,
		}
		return nil, nil

	case cmdAddMetaPartition:
		v, ok := s.Volumes[c.VolumeName]
		if !ok {
			return nil, fmt.Errorf("master: volume %q: %w", c.VolumeName, util.ErrNotFound)
		}
		mp := *c.MetaPartition
		if mp.PartitionID >= s.NextID {
			s.NextID = mp.PartitionID + 1
		}
		v.MetaPartitions = append(v.MetaPartitions, mp)
		for _, m := range mp.Members {
			if n := s.Nodes[m]; n != nil {
				n.PartitionCnt++
			}
		}
		v.Epoch++
		return nil, nil

	case cmdAddDataPartition:
		v, ok := s.Volumes[c.VolumeName]
		if !ok {
			return nil, fmt.Errorf("master: volume %q: %w", c.VolumeName, util.ErrNotFound)
		}
		dp := *c.DataPartition
		if dp.PartitionID >= s.NextID {
			s.NextID = dp.PartitionID + 1
		}
		v.DataPartitions = append(v.DataPartitions, dp)
		for _, m := range dp.Members {
			if n := s.Nodes[m]; n != nil {
				n.PartitionCnt++
			}
		}
		v.Epoch++
		return nil, nil

	case cmdCutMetaPartition:
		v, ok := s.Volumes[c.VolumeName]
		if !ok {
			return nil, fmt.Errorf("master: volume %q: %w", c.VolumeName, util.ErrNotFound)
		}
		for i := range v.MetaPartitions {
			if v.MetaPartitions[i].PartitionID == c.PartitionID {
				v.MetaPartitions[i].End = c.End
				v.Epoch++
				return nil, nil
			}
		}
		return nil, fmt.Errorf("master: meta partition %d: %w", c.PartitionID, util.ErrNotFound)

	case cmdSetPartitionStatus:
		v, r, err := s.record(c)
		if err != nil {
			return nil, err
		}
		*r.status = c.Status
		v.Epoch++
		return nil, nil

	case cmdReconfigurePartition:
		v, r, err := s.record(c)
		if err != nil {
			return nil, err
		}
		if c.ReplicaEpoch <= *r.epoch {
			// Stale or duplicate proposal (two triggers raced - e.g. a
			// failure report and the liveness scan); first writer wins.
			return nil, fmt.Errorf("master: partition %d already at epoch %d: %w",
				c.PartitionID, *r.epoch, util.ErrStaleEpoch)
		}
		*r.members = append([]string(nil), c.Members...)
		*r.detached = append([]string(nil), c.Detached...)
		*r.epoch = c.ReplicaEpoch
		*r.status = c.Status
		if len(c.Members) > 0 {
			*r.leader = c.Members[0]
		}
		v.Epoch++
		return nil, nil

	case cmdSetNodeActive:
		n, ok := s.Nodes[c.Addr]
		if !ok {
			return nil, fmt.Errorf("master: node %q: %w", c.Addr, util.ErrNotFound)
		}
		n.Active = c.Active
		return nil, nil

	default:
		return nil, fmt.Errorf("master: unknown command %d: %w", c.Kind, util.ErrInvalidArgument)
	}
}

// snapshot serializes the whole state.
func (s *clusterState) snapshot() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (s *clusterState) restore(data []byte) error {
	fresh := newClusterState()
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(fresh); err != nil {
		return err
	}
	*s = *fresh
	return nil
}

// ---------------------------------------------------------------------------
// Utilization-based placement (Section 2.3.1).

// softState is the leader's unreplicated view of node utilization and
// liveness, refreshed by heartbeats.
type softState struct {
	used          map[string]uint64
	lastHeartbeat map[string]time.Time
	// partStats caches per-partition heartbeat reports keyed by id.
	partStats map[uint64]proto.PartitionReport
	// failures counts failure reports per partition (Section 2.3.3).
	failures map[uint64]int
	// detachedAt records when a replica was detached from a partition
	// (partition id -> addr -> time); re-attachment requires a heartbeat
	// NEWER than this mark, so the heartbeat that was already in flight
	// when the failure was declared cannot instantly undo the detach.
	detachedAt map[uint64]map[string]time.Time
	// pushing gates one in-flight reconfiguration re-push per partition.
	pushing map[uint64]bool
	// epochIdx caches partition id -> recorded ReplicaEpoch for the
	// heartbeat path, rebuilt only when the state Version moves.
	epochIdx    map[uint64]uint64
	epochIdxVer uint64
	// healthyStreak counts CONSECUTIVE on-time heartbeats per node since
	// its last gap or failure declaration. Re-attach and replica-placement
	// decisions require a minimum streak (hysteresis), so a flapping node
	// cannot thrash membership changes.
	healthyStreak map[string]int
	// degradedSince records when a partition was first seen running below
	// its replica target; replacement placement waits out a grace period
	// from this mark (a briefly-absent replica usually re-attaches).
	degradedSince map[uint64]time.Time
}

func newSoftState() *softState {
	return &softState{
		used:          make(map[string]uint64),
		lastHeartbeat: make(map[string]time.Time),
		partStats:     make(map[uint64]proto.PartitionReport),
		failures:      make(map[uint64]int),
		detachedAt:    make(map[uint64]map[string]time.Time),
		pushing:       make(map[uint64]bool),
		epochIdx:      make(map[uint64]uint64),
		epochIdxVer:   ^uint64(0), // force the first build
		healthyStreak: make(map[string]int),
		degradedSince: make(map[uint64]time.Time),
	}
}

// partEpochsLocked returns the partition->epoch index (data AND meta
// partitions; ids come from one allocator, so one map holds both),
// rebuilding it only when the replicated state changed. Caller holds the
// master mutex.
func partEpochsLocked(state *clusterState, soft *softState) map[uint64]uint64 {
	if soft.epochIdxVer == state.Version {
		return soft.epochIdx
	}
	idx := make(map[uint64]uint64)
	for _, rs := range state.replicaSets() {
		idx[rs.id] = rs.epoch
	}
	soft.epochIdx, soft.epochIdxVer = idx, state.Version
	return idx
}

// pickNodes selects `count` nodes of the wanted kind with the lowest
// utilization, preferring nodes that share a raft set (Section 2.5.1) so
// partition replicas exchange heartbeats inside one set. Returns addresses
// in placement order (the first is the designated leader).
func pickNodes(state *clusterState, soft *softState, isMeta bool, count int) ([]string, error) {
	return pickNodesExcluding(state, soft, isMeta, count, nil)
}

// pickNodesExcluding is pickNodes with a veto: candidates for which exclude
// returns true are never considered. Replacement placement uses it to keep a
// degraded partition's existing members (and its still-detached ones) out of
// the fresh-replica pool.
func pickNodesExcluding(state *clusterState, soft *softState, isMeta bool, count int, exclude func(addr string) bool) ([]string, error) {
	type cand struct {
		addr    string
		ratio   float64
		raftSet int
	}
	var cands []cand
	for addr, n := range state.Nodes {
		if n.IsMeta != isMeta || !n.Active {
			continue
		}
		if exclude != nil && exclude(addr) {
			continue
		}
		used := soft.used[addr]
		ratio := 1.0
		if n.Total > 0 {
			ratio = float64(used) / float64(n.Total)
		}
		cands = append(cands, cand{addr: addr, ratio: ratio, raftSet: n.RaftSet})
	}
	if len(cands) < count {
		return nil, fmt.Errorf("master: need %d %s nodes, have %d: %w",
			count, nodeKind(isMeta), len(cands), util.ErrNoAvailableNode)
	}
	// Group by raft set; pick the set with the lowest average utilization
	// that has enough members; fall back to global lowest-utilization.
	bySet := make(map[int][]cand)
	for _, c := range cands {
		bySet[c.raftSet] = append(bySet[c.raftSet], c)
	}
	bestSet := -1
	bestAvg := 2.0
	for set, members := range bySet {
		if len(members) < count {
			continue
		}
		var sum float64
		for _, m := range members {
			sum += m.ratio
		}
		avg := sum / float64(len(members))
		if avg < bestAvg || (avg == bestAvg && (bestSet == -1 || set < bestSet)) {
			bestAvg, bestSet = avg, set
		}
	}
	pool := cands
	if bestSet >= 0 {
		pool = bySet[bestSet]
	}
	sort.Slice(pool, func(i, j int) bool {
		if pool[i].ratio != pool[j].ratio {
			return pool[i].ratio < pool[j].ratio
		}
		return pool[i].addr < pool[j].addr
	})
	out := make([]string, count)
	for i := 0; i < count; i++ {
		out[i] = pool[i].addr
	}
	return out, nil
}

func nodeKind(isMeta bool) string {
	if isMeta {
		return "meta"
	}
	return "data"
}
