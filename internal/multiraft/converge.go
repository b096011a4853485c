package multiraft

import (
	"slices"
	"time"

	"cfs/internal/raft"
)

// Reconcile brings this node's replica of group id in line with the
// master's record, in the background: it hosts the group if the node does
// not yet (a partition that grew from one replica to many, or one restored
// from disk before the node heard the (re)create - each member does the
// same with the same set, like the original create fan-out, and attach
// hands the new group to its partition), then drives the group's Raft
// membership to the set desired() names - the Members record under the
// partition's replica epoch - until the two agree, this node is no longer
// in the record, or the manager closes. Every member calls it after
// adopting a reconfiguration; only the replica that holds (or wins) Raft
// leadership proposes, so each ConfChange is issued once per delta no
// matter how many replicas race here. desired is re-read every round, so a
// newer reconfiguration simply retargets the loop; the loop is
// single-flight per group (a second call returns at once and the running
// one picks the new record up). Close waits for it.
func (m *Manager) Reconcile(id uint64, sm raft.StateMachine, desired func() []string, attach func(*Group)) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.wg.Add(1)
	m.mu.Unlock()
	go func() {
		defer m.wg.Done()
		g := m.Group(id)
		if g == nil {
			want := desired()
			if len(want) <= 1 || !slices.Contains(want, m.addr) {
				return
			}
			var err error
			if g, err = m.CreateGroup(id, want, sm); err != nil {
				return // closed, or lost the create to a concurrent call: the winner converges
			}
			attach(g)
		}
		g.convergeTo(desired)
	}()
}

// convergeTo is Reconcile's loop over a hosted group.
func (g *Group) convergeTo(desired func() []string) {
	if !g.converging.CompareAndSwap(false, true) {
		return
	}
	defer g.converging.Store(false)
	self := g.mgr.addr
	delay := 10 * time.Millisecond
	for {
		want := desired()
		if !slices.Contains(want, self) {
			return // removed from the set; the survivors own the group now
		}
		// Bias the record's first node to win the election: with a dead
		// replica detached, Members[0] is the survivor the master chose
		// (for data partitions, the primary-backup leader - one node
		// answering for both roles minimizes the window where they differ).
		if want[0] == self && !g.IsLeader() {
			g.Campaign()
		}
		if g.IsLeader() {
			if g.proposeConfDiff(want) {
				return
			}
		} else if sameMembers(g.Members(), want) {
			return // some other replica finished the job
		}
		select {
		case <-g.mgr.stopc:
			return
		case <-time.After(delay):
		}
		if delay < 2*time.Second {
			delay *= 2
		}
	}
}

// proposeConfDiff proposes the next single ConfChange moving the group
// toward want, removals first (shrinking quorum past the dead replica is
// what un-wedges the group). Returns true once the views match.
func (g *Group) proposeConfDiff(want []string) bool {
	current := g.Members()
	for _, addr := range current {
		if !slices.Contains(want, addr) {
			_ = g.ProposeConfChange(raft.ConfChange{Type: raft.ConfRemoveNode, Addr: addr})
			return false // one at a time; re-check next round
		}
	}
	for _, addr := range want {
		if !slices.Contains(current, addr) {
			_ = g.ProposeConfChange(raft.ConfChange{Type: raft.ConfAddNode, Addr: addr})
			return false
		}
	}
	return true
}

func sameMembers(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		if !slices.Contains(b, x) {
			return false
		}
	}
	return true
}
