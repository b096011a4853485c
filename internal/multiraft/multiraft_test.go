package multiraft_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"cfs/internal/multiraft"
	"cfs/internal/proto"
	"cfs/internal/raft"
	"cfs/internal/transport"
	"cfs/internal/util"
)

// counterSM counts applied entries.
type counterSM struct {
	mu      sync.Mutex
	applied int
}

func (s *counterSM) Apply(index uint64, data []byte) (any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applied++
	return s.applied, nil
}

func (s *counterSM) Snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return []byte(fmt.Sprintf("%d", s.applied)), nil
}

func (s *counterSM) Restore(data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int
	fmt.Sscanf(string(data), "%d", &n)
	s.applied = n
	return nil
}

func (s *counterSM) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

func startManager(t *testing.T, nw *transport.Memory, addr string) *multiraft.Manager {
	t.Helper()
	mgr := multiraft.New(addr, nw, multiraft.Config{
		RaftDefaults: raft.Config{
			TickInterval:   2 * time.Millisecond,
			HeartbeatTicks: 2,
			ElectionTicks:  10,
			ProposeTimeout: 3 * time.Second,
		},
	})
	ln, err := nw.Listen(addr, mgr.Handler())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close(); ln.Close() })
	return mgr
}

func waitLeader(t *testing.T, mgrs []*multiraft.Manager, groupID uint64) *multiraft.Group {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, m := range mgrs {
			if g := m.Group(groupID); g != nil && g.IsLeader() {
				return g
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("no leader for group %d", groupID)
	return nil
}

// idleHeartbeatRates boots 3 nodes hosting `groups` shared Raft groups,
// lets them settle, and measures the steady-state heartbeat traffic:
// coalesced wire batches per logical tick and group-level beats per tick.
func idleHeartbeatRates(t *testing.T, groups int) (batchesPerTick, beatsPerTick float64) {
	t.Helper()
	nw := transport.NewMemory()
	addrs := []string{"a", "b", "c"}
	var mgrs []*multiraft.Manager
	for _, a := range addrs {
		mgrs = append(mgrs, startManager(t, nw, a))
	}
	for g := uint64(1); g <= uint64(groups); g++ {
		for _, m := range mgrs {
			if _, err := m.CreateGroup(g, addrs, &counterSM{}); err != nil {
				t.Fatal(err)
			}
		}
		// Spread leaders round-robin so every node pair carries traffic in
		// both directions, as in a real cluster.
		mgrs[int(g)%len(mgrs)].Group(g).Campaign()
	}
	for g := uint64(1); g <= uint64(groups); g++ {
		waitLeader(t, mgrs, g)
	}
	time.Sleep(100 * time.Millisecond) // let elections and catch-up settle

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
	time.Sleep(400 * time.Millisecond)
	b1, c1, t1 := sum()
	ticks := float64(t1-t0) / float64(len(mgrs)) // avg ticks per manager
	if ticks == 0 {
		t.Fatal("clock did not advance")
	}
	return float64(b1-b0) / ticks, float64(c1-c0) / ticks
}

// TestCoalescedHeartbeatTraffic is the MultiRaft acceptance check: idle
// heartbeat WIRE messages scale with node pairs, not groups. Tripling the
// group count must leave the batch rate flat (< 10% growth) while the
// group-level beats inside those batches scale with the groups.
func TestCoalescedHeartbeatTraffic(t *testing.T) {
	const base = 6
	batches1, beats1 := idleHeartbeatRates(t, base)
	batches3, beats3 := idleHeartbeatRates(t, 3*base)
	t.Logf("groups=%d: %.2f hb batches/tick, %.2f beats/tick", base, batches1, beats1)
	t.Logf("groups=%d: %.2f hb batches/tick, %.2f beats/tick", 3*base, batches3, beats3)

	if batches3 > batches1*1.10 {
		t.Fatalf("heartbeat batches grew with groups: %.2f -> %.2f per tick (>10%%)",
			batches1, batches3)
	}
	// Per node pair, not per group: 3 nodes have 6 ordered pairs and the
	// heartbeat interval spans 2 ticks, so the ceiling is 3 batches/tick -
	// far below the 18 per tick that per-group heartbeats would cost.
	if batches3 > 6.5 {
		t.Fatalf("heartbeat batches/tick = %.2f, want <= ~3 (per node pair)", batches3)
	}
	// The groups are still all heartbeating - inside the batches.
	if beats3 < beats1*2 {
		t.Fatalf("coalesced beats did not scale with groups: %.2f -> %.2f per tick",
			beats1, beats3)
	}
}

// TestReplicationAcrossManyGroups is the end-to-end sanity check that the
// shared clock + coalesced heartbeats + stream delivery still commit.
func TestReplicationAcrossManyGroups(t *testing.T) {
	nw := transport.NewMemory()
	addrs := []string{"a", "b", "c"}
	var mgrs []*multiraft.Manager
	for _, a := range addrs {
		mgrs = append(mgrs, startManager(t, nw, a))
	}
	const groups = 5
	sms := make(map[uint64][]*counterSM)
	for g := uint64(1); g <= groups; g++ {
		for _, m := range mgrs {
			sm := &counterSM{}
			if _, err := m.CreateGroup(g, addrs, sm); err != nil {
				t.Fatal(err)
			}
			sms[g] = append(sms[g], sm)
		}
	}
	for g := uint64(1); g <= groups; g++ {
		leader := waitLeader(t, mgrs, g)
		for i := 0; i < 5; i++ {
			if _, err := leader.Propose([]byte(fmt.Sprintf("g%d-%d", g, i))); err != nil {
				t.Fatalf("group %d proposal %d: %v", g, i, err)
			}
		}
	}
	for g := uint64(1); g <= groups; g++ {
		for i, sm := range sms[g] {
			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) && sm.count() < 5 {
				time.Sleep(2 * time.Millisecond)
			}
			if sm.count() < 5 {
				t.Fatalf("group %d member %d applied %d/5", g, i, sm.count())
			}
		}
	}
}

// TestFollowerCommitAdvancesViaHeartbeat verifies the liveness half of the
// lightweight heartbeat: followers learn the commit index (and apply) from
// coalesced beats alone, with no further appends.
func TestFollowerCommitAdvancesViaHeartbeat(t *testing.T) {
	nw := transport.NewMemory()
	addrs := []string{"a", "b", "c"}
	var mgrs []*multiraft.Manager
	var sms []*counterSM
	for _, a := range addrs {
		m := startManager(t, nw, a)
		mgrs = append(mgrs, m)
		sm := &counterSM{}
		if _, err := m.CreateGroup(1, addrs, sm); err != nil {
			t.Fatal(err)
		}
		sms = append(sms, sm)
	}
	leader := waitLeader(t, mgrs, 1)
	if _, err := leader.Propose([]byte("x")); err != nil {
		t.Fatal(err)
	}
	// Every member must apply; followers get the commit index via the
	// heartbeat path (the append that carried the entry raced the commit).
	for i, sm := range sms {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) && sm.count() < 1 {
			time.Sleep(2 * time.Millisecond)
		}
		if sm.count() < 1 {
			t.Fatalf("member %d never applied", i)
		}
	}
}

func TestDuplicateGroupRejected(t *testing.T) {
	nw := transport.NewMemory()
	m := startManager(t, nw, "a")
	if _, err := m.CreateGroup(1, []string{"a"}, &counterSM{}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateGroup(1, []string{"a"}, &counterSM{}); !errors.Is(err, util.ErrExist) {
		t.Fatalf("duplicate group: %v", err)
	}
	if m.GroupCount() != 1 {
		t.Fatalf("GroupCount = %d", m.GroupCount())
	}
}

func TestGroupStopRemovesFromManager(t *testing.T) {
	nw := transport.NewMemory()
	m := startManager(t, nw, "a")
	g, err := m.CreateGroup(1, []string{"a"}, &counterSM{})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !g.IsLeader() {
		time.Sleep(2 * time.Millisecond)
	}
	g.Stop()
	if m.Group(1) != nil {
		t.Fatal("group still present after stop")
	}
	if _, err := g.Propose([]byte("x")); !errors.Is(err, raft.ErrStopped) {
		t.Fatalf("propose on stopped group: %v", err)
	}
}

func TestCreateAfterCloseFails(t *testing.T) {
	nw := transport.NewMemory()
	m := multiraft.New("a", nw, multiraft.Config{})
	m.Close()
	if _, err := m.CreateGroup(1, []string{"a"}, &counterSM{}); !errors.Is(err, util.ErrClosed) {
		t.Fatalf("create after close: %v", err)
	}
	m.Close() // idempotent
}

func TestHandlerRejectsWrongBody(t *testing.T) {
	nw := transport.NewMemory()
	m := startManager(t, nw, "a")
	_, err := m.Handler()(uint8(proto.OpRaftMessage), &proto.HeartbeatReq{})
	if !errors.Is(err, util.ErrInvalidArgument) {
		t.Fatalf("wrong body accepted: %v", err)
	}
}
