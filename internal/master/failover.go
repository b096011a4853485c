package master

import (
	"slices"
	"time"

	"cfs/internal/proto"
)

// Master-driven leader failover and follower recovery (paper Section 2.3.3
// read as an imperative: the resource manager is the failure AUTHORITY, not
// a scoreboard). Missed heartbeats and failure reports become decisions:
//
//   - A dead node is detached from every partition it belongs to, data or
//     meta, under a bumped ReplicaEpoch (the PacificA configuration
//     version). A data partition's replica array is reordered and - when
//     the dead node led - the first live follower is promoted; it stays
//     writable on the survivors because primary-backup's all-replica commit
//     now quantifies over the NEW set. A meta partition's Raft group
//     shrinks to the survivors by ConfChange and keeps its quorum.
//   - The epoch fences the deposed leader: write requests and replication
//     hops carry it, and any replica holding a newer epoch rejects
//     stale-epoch frames, so the old leader can never again assemble an
//     all-replica ack - a stale-view client cannot commit bytes through it.
//   - A detached replica that heartbeats again is re-attached, one that
//     stays away past ReplacementGrace is replaced on a fresh node, and an
//     unavailable partition whose members all returned is revived.
//
// The lifecycle is ONE code path over replicaSet (state.go) for both kinds.
// They differ in three places only: the request body pushUpdate builds,
// the Recover task a data leader gets after revive/replace (and from
// onNodeReturned), and handleReportFailure's read-only-first escalation
// for a meta partition's last member.
//
// All reconfigurations replicate through the master's Raft group
// (cmdReconfigurePartition) before any node or client observes them;
// the epoch check in apply makes racing triggers (a failure report and the
// liveness scan noticing the same corpse) collapse to one winner.

// checkNodeLiveness declares nodes whose heartbeats stopped for NodeTimeout
// dead and reconfigures their partitions around them. ALREADY-inactive
// silent nodes are re-swept too: a detach that lost an epoch race to a
// concurrent reconfiguration returns without retrying, and without the
// sweep the dead node would stay a member of that partition until the next
// failed write produced a failure report.
func (m *Master) checkNodeLiveness() {
	if !m.node.IsLeader() {
		return
	}
	now := time.Now()
	type deadNode struct {
		addr       string
		deactivate bool // still marked Active; propose the flag flip
	}
	var dead []deadNode
	m.mu.Lock()
	for addr, n := range m.state.Nodes {
		hb, ok := m.soft.lastHeartbeat[addr]
		if !ok {
			// No liveness signal since this replica became leader (its
			// soft state is rebuilt from heartbeats after a master
			// failover): start the clock now instead of condemning the
			// node on missing data.
			m.soft.lastHeartbeat[addr] = now
			continue
		}
		if now.Sub(hb) > m.cfg.NodeTimeout {
			dead = append(dead, deadNode{addr: addr, deactivate: n.Active})
		}
	}
	m.mu.Unlock()
	for _, d := range dead {
		m.failNode(d.addr, d.deactivate)
	}
}

// failNode marks one node dead (when not already) and detaches it from
// every partition - data AND meta - that lists it as a member. Idempotent:
// a node with no remaining memberships produces no proposals.
func (m *Master) failNode(addr string, deactivate bool) {
	if deactivate {
		_, _ = m.propose(&command{Kind: cmdSetNodeActive, Addr: addr, Active: false})
	}
	var hosted []replicaSet
	m.mu.Lock()
	m.soft.healthyStreak[addr] = 0 // hysteresis restarts from the declaration
	for _, rs := range m.state.replicaSets() {
		if slices.Contains(rs.members, addr) {
			hosted = append(hosted, rs)
		}
	}
	m.mu.Unlock()
	for _, rs := range hosted {
		m.detach(rs, addr)
	}
}

// reconfigure replicates rs's next configuration - members and detached
// under a bumped epoch, read-write - and returns it for the push. False
// means a racing reconfiguration won (stale epoch) or leadership was lost.
func (m *Master) reconfigure(rs replicaSet, members, detached []string) (replicaSet, bool) {
	rs.members, rs.detached, rs.epoch, rs.status = members, detached, rs.epoch+1, proto.PartitionReadWrite
	_, err := m.propose(&command{
		Kind:         cmdReconfigurePartition,
		VolumeName:   rs.volume,
		PartitionID:  rs.id,
		IsMeta:       rs.isMeta,
		Members:      members,
		Detached:     detached,
		ReplicaEpoch: rs.epoch,
		Status:       rs.status,
	})
	return rs, err == nil
}

func (m *Master) setStatus(rs replicaSet, status proto.PartitionStatus) error {
	_, err := m.propose(&command{
		Kind: cmdSetPartitionStatus, VolumeName: rs.volume,
		PartitionID: rs.id, Status: status, IsMeta: rs.isMeta,
	})
	return err
}

// without returns set minus addr, in order, as a fresh slice.
func without(set []string, addr string) []string {
	out := make([]string, 0, len(set))
	for _, a := range set {
		if a != addr {
			out = append(out, a)
		}
	}
	return out
}

// detach removes addr from rs's replica set under a bumped epoch; the
// partition returns to read-write on the survivors, and with no survivor
// left it is marked unavailable. What the push then means is the node's
// business: a data partition's chain reorders (a dead leader's first live
// follower is promoted and re-runs the quiesce-gated alignment pass before
// accepting writes), and either kind's Raft group shrinks with the record -
// whichever survivor wins (or holds) the Raft lead proposes the matching
// ConfChange, so the quorum denominator drops to the survivor count.
func (m *Master) detach(rs replicaSet, addr string) {
	members := without(rs.members, addr)
	if len(members) == len(rs.members) {
		return // stale report: addr is not (no longer) a member
	}
	if len(members) == 0 {
		if rs.status != proto.PartitionUnavailable { // idempotent under re-sweeps
			_ = m.setStatus(rs, proto.PartitionUnavailable)
		}
		return
	}
	next, ok := m.reconfigure(rs, members, append(slices.Clone(rs.detached), addr))
	if !ok {
		return
	}
	m.mu.Lock()
	// The dead replica's heartbeat stats may still say read-only/fuller
	// than the survivors; drop them so the refreshed record speaks.
	delete(m.soft.partStats, rs.id)
	delete(m.soft.failures, rs.id)
	if m.soft.detachedAt[rs.id] == nil {
		m.soft.detachedAt[rs.id] = make(map[string]time.Time)
	}
	m.soft.detachedAt[rs.id][addr] = time.Now()
	m.mu.Unlock()
	m.pushUpdate(next)
}

// checkReattach re-attaches detached replicas whose heartbeats resumed
// (strictly after the detach mark, so the heartbeat already in flight when
// the failure was declared cannot instantly undo it), and revives
// UNAVAILABLE partitions whose every member is heartbeating again - the
// last-member-death case leaves the member in place with the partition
// fenced, and without the revival a healthy returned node holding every
// committed byte would stay unwritable forever.
//
// Every decision here is hysteresis-gated: a returning node must hold
// ReattachHysteresis consecutive on-time heartbeats before it rejoins
// anything, so a flapping node produces one detach instead of an epoch-
// burning attach/detach cycle.
func (m *Master) checkReattach() {
	if !m.node.IsLeader() {
		return
	}
	type task struct {
		rs   replicaSet
		addr string // empty = revive
	}
	var tasks []task
	now := time.Now()
	m.mu.Lock()
	down := func(addr string) bool { return !m.healthyLocked(addr, now) }
	for _, rs := range m.state.replicaSets() {
		if rs.status == proto.PartitionUnavailable && len(rs.members) > 0 &&
			!slices.ContainsFunc(rs.members, down) {
			tasks = append(tasks, task{rs: rs})
			continue
		}
		for _, addr := range rs.detached {
			if down(addr) {
				continue
			}
			if da, ok := m.soft.detachedAt[rs.id][addr]; ok && !m.soft.lastHeartbeat[addr].After(da) {
				continue
			}
			tasks = append(tasks, task{rs: rs, addr: addr})
			break // one membership change per partition per scan
		}
	}
	m.mu.Unlock()
	for _, t := range tasks {
		if t.addr == "" {
			m.revive(t.rs)
		} else {
			m.reattach(t.rs, t.addr)
		}
	}
}

// healthyLocked reports whether a node is currently heartbeating on time
// AND has held an unbroken on-time streak of at least ReattachHysteresis
// beats. Caller holds m.mu.
func (m *Master) healthyLocked(addr string, now time.Time) bool {
	hb, ok := m.soft.lastHeartbeat[addr]
	return ok && now.Sub(hb) <= m.cfg.NodeTimeout &&
		m.soft.healthyStreak[addr] >= m.cfg.ReattachHysteresis
}

// revive flips an unavailable partition whose members all heartbeat again
// back to read-write; a data partition's leader is also tasked with a
// recovery pass to re-advance the committed frontier.
func (m *Master) revive(rs replicaSet) {
	if m.setStatus(rs, proto.PartitionReadWrite) != nil {
		return
	}
	m.mu.Lock()
	delete(m.soft.partStats, rs.id)
	delete(m.soft.failures, rs.id)
	m.mu.Unlock()
	m.pushUpdate(rs)
	if !rs.isMeta {
		go m.taskRecover(rs)
	}
}

// reattach returns a detached replica to the END of rs's member order (a
// returning node is never promoted) under a bumped epoch. The push goes to
// every member INCLUDING the returning one: it rewrites that node's stale
// view (it may still believe it leads at the old epoch) or re-creates a
// partition it lost, and the leader's copy starts the catch-up - a data
// leader's alignment pass ships the missed tail, a Raft leader's AddNode
// ConfChange ships a snapshot or the log.
func (m *Master) reattach(rs replicaSet, addr string) {
	detached := without(rs.detached, addr)
	if len(detached) == len(rs.detached) {
		return // already re-attached by a racing trigger
	}
	next, ok := m.reconfigure(rs, append(slices.Clone(rs.members), addr), detached)
	if !ok {
		return
	}
	m.mu.Lock()
	delete(m.soft.detachedAt[rs.id], addr)
	m.mu.Unlock()
	m.pushUpdate(next)
}

// checkReplacement enforces the redundancy promise (DESIGN.md Section 5.5):
// no read-write partition stays below its replica target past
// ReplacementGrace while a healthy spare exists. Once waiting for the
// detached node stops being a plan, the master places a FRESH replica on a
// healthy node outside the partition's present and former membership and
// re-expands Members under a bumped epoch; the update push creates the
// missing partition on the newcomer and the leader fills it from zero. The
// detached record the newcomer replaces is dropped - if the dead node ever
// returns, it no longer re-attaches there.
func (m *Master) checkReplacement() {
	if !m.node.IsLeader() {
		return
	}
	type task struct {
		rs    replicaSet
		fresh string
	}
	var tasks []task
	now := time.Now()
	m.mu.Lock()
	for _, rs := range m.state.replicaSets() {
		if rs.status != proto.PartitionReadWrite || len(rs.members) == 0 ||
			len(rs.members) >= m.replicaCountLocked(rs.isMeta) || len(rs.detached) == 0 {
			delete(m.soft.degradedSince, rs.id)
			continue
		}
		since, ok := m.soft.degradedSince[rs.id]
		if !ok {
			m.soft.degradedSince[rs.id] = now
			continue
		}
		if now.Sub(since) < m.cfg.ReplacementGrace {
			continue
		}
		// A detached member about to re-attach makes replacement moot;
		// let checkReattach win that race.
		if slices.ContainsFunc(rs.detached, func(a string) bool { return m.healthyLocked(a, now) }) {
			continue
		}
		picked, err := pickNodesExcluding(m.state, m.soft, rs.isMeta, 1, func(addr string) bool {
			return slices.Contains(rs.members, addr) || slices.Contains(rs.detached, addr) ||
				!m.healthyLocked(addr, now)
		})
		if err != nil {
			continue // no spare healthy node yet; keep waiting
		}
		tasks = append(tasks, task{rs: rs, fresh: picked[0]})
	}
	m.mu.Unlock()
	for _, t := range tasks {
		m.replace(t.rs, t.fresh)
	}
}

// replace swaps rs's longest-absent detached replica for a fresh node:
// Members re-expands with the newcomer at the END (never promoted) and the
// replaced corpse leaves Detached for good. A data leader is tasked with
// the recovery pass that creates and ships every extent to the empty
// newcomer before the committed frontier re-advances through it.
func (m *Master) replace(rs replicaSet, fresh string) {
	drop := rs.detached[0]
	next, ok := m.reconfigure(rs, append(slices.Clone(rs.members), fresh), without(rs.detached, drop))
	if !ok {
		return
	}
	m.mu.Lock()
	delete(m.soft.degradedSince, rs.id)
	delete(m.soft.detachedAt[rs.id], drop)
	m.mu.Unlock()
	m.pushUpdate(next)
	if !rs.isMeta {
		go m.taskRecover(next)
	}
}

// onNodeReturned reacts to a data node's re-registration: partitions that
// still list the node as a follower get a targeted leader Recover (a quick
// restart loses the in-memory committed map and possibly a tail; before
// this hook, realignment waited for the leader's own next pass). Detached
// replicas are NOT re-attached here: re-attachment is the maintenance
// scan's call, gated on the returning node first proving itself with
// ReattachHysteresis on-time heartbeats.
func (m *Master) onNodeReturned(addr string) {
	var follows []replicaSet
	m.mu.Lock()
	for _, rs := range m.state.replicaSets() {
		if slices.Contains(rs.members, addr) && rs.members[0] != addr {
			follows = append(follows, rs)
		}
	}
	m.mu.Unlock()
	for _, rs := range follows {
		m.taskRecover(rs)
	}
}

// taskRecover asks a data partition's leader to run one recovery pass now.
// Best-effort with bounded retries: ErrBusy means writers are bound (the
// pass will run at the next quiet moment or the next trigger), and the
// heartbeat-driven re-push path is the durable backstop.
func (m *Master) taskRecover(rs replicaSet) {
	req := &proto.RecoverPartitionReq{PartitionID: rs.id}
	for attempt := 0; attempt < 5; attempt++ {
		if err := m.nw.Call(rs.members[0], uint8(proto.OpAdminRecoverPartition), req, nil); err == nil {
			return
		}
		time.Sleep(time.Duration(attempt+1) * 20 * time.Millisecond)
	}
}

// pushUpdate delivers a reconfiguration to every member, with bounded
// retries per member. The request body is where the kinds differ: each
// carries, beside Members and the epoch, what its node needs to create a
// partition it does not host (a replacement newcomer, a wiped disk). Misses
// are tolerated: the member's next heartbeat reports its stale epoch and
// repushPartition repairs it.
func (m *Master) pushUpdate(rs replicaSet) {
	op, req := proto.OpAdminUpdateDataPartition, any(&proto.UpdateDataPartitionReq{
		PartitionID:  rs.id,
		Volume:       rs.volume,
		Capacity:     rs.capacity,
		Members:      rs.members,
		ReplicaEpoch: rs.epoch,
	})
	if rs.isMeta {
		op, req = proto.OpAdminUpdateMetaPartition, &proto.UpdateMetaPartitionReq{
			PartitionID:  rs.id,
			Volume:       rs.volume,
			Start:        rs.start,
			End:          rs.end,
			Members:      rs.members,
			ReplicaEpoch: rs.epoch,
		}
	}
	for _, addr := range rs.members {
		for attempt := 0; attempt < 3; attempt++ {
			if err := m.nw.Call(addr, uint8(op), req, nil); err == nil {
				break
			}
			time.Sleep(time.Duration(attempt+1) * 10 * time.Millisecond)
		}
	}
}

// repushPartition re-delivers the current reconfiguration to a partition's
// members after a heartbeat revealed one of them holds a stale epoch.
func (m *Master) repushPartition(pid uint64) {
	m.mu.Lock()
	rs, ok := m.state.find(pid)
	m.mu.Unlock()
	if ok {
		m.pushUpdate(rs)
	}
	m.mu.Lock()
	delete(m.soft.pushing, pid)
	m.mu.Unlock()
}
