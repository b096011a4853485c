package multiraft

import (
	"slices"
	"time"

	"cfs/internal/raft"
)

// ConvergeTo drives the group's Raft membership to the set desired()
// names - the master's Members record under the partition's replica epoch
// - and returns once the two agree, this node (self) is no longer in the
// record, or stop closes. Every member calls it after adopting a
// reconfiguration; only the replica that holds (or wins) Raft leadership
// proposes, so each ConfChange is issued once per delta no matter how
// many replicas race here. desired is re-read every round, so a newer
// reconfiguration simply retargets the loop; calls are single-flight per
// group (a second call returns at once and the running one picks the new
// record up).
func (g *Group) ConvergeTo(self string, desired func() []string, stop <-chan struct{}) {
	if !g.converging.CompareAndSwap(false, true) {
		return
	}
	defer g.converging.Store(false)
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
		case <-stop:
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
