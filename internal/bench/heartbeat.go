package bench

// The MultiRaft heartbeat-scaling experiment: the paper's metadata and
// data subsystems host thousands of Raft groups per node and stay viable
// only because heartbeats are exchanged per node PAIR, not per group
// (Section 2.1.2). This harness boots a 3-node cluster of MultiRaft
// managers, registers N groups spread across them, and measures idle
// heartbeat traffic as N grows. The headline number is wire messages per
// logical tick: coalescing holds it at O(node pairs) while the per-group
// beats carried inside those messages grow with N.

import (
	"fmt"
	"time"

	"cfs/internal/multiraft"
	"cfs/internal/raft"
	"cfs/internal/transport"
)

// idleSM is a no-op state machine for heartbeat-only groups.
type idleSM struct{}

// Apply implements raft.StateMachine.
func (s *idleSM) Apply(index uint64, data []byte) (any, error) { return nil, nil }

// Snapshot implements raft.StateMachine.
func (s *idleSM) Snapshot() ([]byte, error) { return nil, nil }

// Restore implements raft.StateMachine.
func (s *idleSM) Restore(data []byte) error { return nil }

// HeartbeatPoint is one measured cluster configuration.
type HeartbeatPoint struct {
	Nodes  int
	Groups int
	// BatchesPerTick is coalesced heartbeat wire messages per logical
	// tick across the cluster - the number MultiRaft keeps O(nodes).
	BatchesPerTick float64
	// BeatsPerTick is group-level beats carried inside those messages -
	// what the wire count would be without coalescing, O(groups).
	BeatsPerTick float64
	// BatchesPerSec is the absolute wire-message rate.
	BatchesPerSec float64
}

// RunHeartbeatScaling measures idle heartbeat traffic on 3 nodes for each
// group count, observing for the given duration per point.
func RunHeartbeatScaling(groupCounts []int, observe time.Duration) (*Table, []HeartbeatPoint, error) {
	const nodes = 3
	if observe == 0 {
		observe = 300 * time.Millisecond
	}
	var points []HeartbeatPoint
	for _, groups := range groupCounts {
		p, err := measureHeartbeats(nodes, groups, observe)
		if err != nil {
			return nil, nil, fmt.Errorf("heartbeat scaling at %d groups: %w", groups, err)
		}
		points = append(points, p)
	}
	t := &Table{
		Title:  fmt.Sprintf("MultiRaft heartbeat scaling: %d nodes, idle cluster (Section 2.1.2)", nodes),
		Header: []string{"Groups", "HB msgs/tick", "HB msgs/s", "Beats/tick (uncoalesced cost)"},
	}
	for _, p := range points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.Groups),
			fmt.Sprintf("%.2f", p.BatchesPerTick),
			fmt.Sprintf("%.0f", p.BatchesPerSec),
			fmt.Sprintf("%.1f", p.BeatsPerTick),
		})
	}
	return t, points, nil
}

func measureHeartbeats(nodes, groups int, observe time.Duration) (HeartbeatPoint, error) {
	nw := transport.NewMemory()
	addrs := make([]string, nodes)
	mgrs := make([]*multiraft.Manager, nodes)
	tick := 2 * time.Millisecond
	for i := range addrs {
		addrs[i] = fmt.Sprintf("hb%d", i)
	}
	var lns []transport.Listener
	defer func() {
		for _, m := range mgrs {
			if m != nil {
				m.Close()
			}
		}
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i, a := range addrs {
		mgrs[i] = multiraft.New(a, nw, multiraft.Config{
			RaftDefaults: raft.Config{
				TickInterval:   tick,
				HeartbeatTicks: 2,
				ElectionTicks:  10,
			},
		})
		ln, err := nw.Listen(a, mgrs[i].Handler())
		if err != nil {
			return HeartbeatPoint{}, err
		}
		lns = append(lns, ln)
	}
	for g := 1; g <= groups; g++ {
		for _, m := range mgrs {
			if _, err := m.CreateGroup(uint64(g), addrs, &idleSM{}); err != nil {
				return HeartbeatPoint{}, err
			}
		}
		mgrs[g%nodes].Group(uint64(g)).Campaign()
	}
	// Wait for every group to elect, then let catch-up traffic drain.
	deadline := time.Now().Add(10 * time.Second)
	for g := 1; g <= groups; g++ {
		for {
			elected := false
			for _, m := range mgrs {
				if grp := m.Group(uint64(g)); grp != nil && grp.IsLeader() {
					elected = true
					break
				}
			}
			if elected {
				break
			}
			if time.Now().After(deadline) {
				return HeartbeatPoint{}, fmt.Errorf("group %d never elected a leader", g)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	time.Sleep(20 * tick)

	sum := func() (batches, beats, ticks uint64) {
		for _, m := range mgrs {
			st := m.Stats()
			batches += st.HeartbeatBatches
			beats += st.HeartbeatsCoalesced
			ticks += st.Ticks
		}
		return
	}
	b0, c0, t0 := sum()
	start := time.Now()
	time.Sleep(observe)
	elapsed := time.Since(start).Seconds()
	b1, c1, t1 := sum()
	ticks := float64(t1-t0) / float64(nodes)
	if ticks == 0 {
		return HeartbeatPoint{}, fmt.Errorf("clock did not advance")
	}
	return HeartbeatPoint{
		Nodes:          nodes,
		Groups:         groups,
		BatchesPerTick: float64(b1-b0) / ticks,
		BeatsPerTick:   float64(c1-c0) / ticks,
		BatchesPerSec:  float64(b1-b0) / elapsed,
	}, nil
}
