package raftstore

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

// counterSM counts applied entries and remembers the last payload.
type counterSM struct {
	mu      sync.Mutex
	applied int
	last    []byte
}

func (s *counterSM) Apply(index uint64, data []byte) (any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applied++
	s.last = append([]byte(nil), data...)
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

type testNode struct {
	store *Store
	ln    transport.Listener
}

func startNode(t *testing.T, nw *transport.Memory, addr string) *testNode {
	t.Helper()
	cfg := Config{
		RaftDefaults: raft.Config{
			TickInterval:   2 * time.Millisecond,
			HeartbeatTicks: 2,
			ElectionTicks:  10,
			ProposeTimeout: 3 * time.Second,
		},
	}
	st := New(addr, nw, cfg)
	ln, err := nw.Listen(addr, st.Handler())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close(); ln.Close() })
	return &testNode{store: st, ln: ln}
}

func waitGroupLeader(t *testing.T, nodes []*testNode, groupID uint64) (*multiraft.Group, int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for i, n := range nodes {
			g := n.store.Group(groupID)
			if g != nil && g.IsLeader() {
				return g, i
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("no leader for group %d", groupID)
	return nil, -1
}

func TestMultiGroupReplication(t *testing.T) {
	nw := transport.NewMemory()
	addrs := []string{"m1", "m2", "m3"}
	var nodes []*testNode
	for _, a := range addrs {
		nodes = append(nodes, startNode(t, nw, a))
	}

	// Several groups share the three stores.
	const groups = 5
	sms := make(map[uint64][]*counterSM)
	for g := uint64(1); g <= groups; g++ {
		for _, n := range nodes {
			sm := &counterSM{}
			if _, err := n.store.CreateGroup(g, addrs, sm); err != nil {
				t.Fatal(err)
			}
			sms[g] = append(sms[g], sm)
		}
	}

	for g := uint64(1); g <= groups; g++ {
		leader, _ := waitGroupLeader(t, nodes, g)
		for i := 0; i < 10; i++ {
			if _, err := leader.Propose([]byte(fmt.Sprintf("g%d-%d", g, i))); err != nil {
				t.Fatalf("group %d proposal %d: %v", g, i, err)
			}
		}
	}

	// Every member of every group applies all 10 entries.
	for g := uint64(1); g <= groups; g++ {
		for i, sm := range sms[g] {
			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) && sm.count() < 10 {
				time.Sleep(2 * time.Millisecond)
			}
			if sm.count() < 10 {
				t.Fatalf("group %d member %d applied %d/10", g, i, sm.count())
			}
		}
	}
}

func TestDuplicateGroupRejected(t *testing.T) {
	nw := transport.NewMemory()
	n := startNode(t, nw, "a")
	if _, err := n.store.CreateGroup(1, []string{"a"}, &counterSM{}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.store.CreateGroup(1, []string{"a"}, &counterSM{}); !errors.Is(err, util.ErrExist) {
		t.Fatalf("duplicate group: %v", err)
	}
	if n.store.GroupCount() != 1 {
		t.Fatalf("GroupCount = %d", n.store.GroupCount())
	}
}

func TestRemoveGroup(t *testing.T) {
	nw := transport.NewMemory()
	n := startNode(t, nw, "a")
	g, err := n.store.CreateGroup(1, []string{"a"}, &counterSM{})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && !g.IsLeader() {
		time.Sleep(2 * time.Millisecond)
	}
	n.store.RemoveGroup(1)
	if n.store.Group(1) != nil {
		t.Fatal("group still present after remove")
	}
	if _, err := g.Propose([]byte("x")); !errors.Is(err, raft.ErrStopped) {
		t.Fatalf("propose on removed group: %v", err)
	}
}

func TestCreateAfterCloseFails(t *testing.T) {
	nw := transport.NewMemory()
	st := New("a", nw, Config{})
	st.Close()
	if _, err := st.CreateGroup(1, []string{"a"}, &counterSM{}); !errors.Is(err, util.ErrClosed) {
		t.Fatalf("create after close: %v", err)
	}
	st.Close() // idempotent
}

func TestBatchingReducesRPCs(t *testing.T) {
	// With G groups between two nodes, per-flush batching should produce
	// far fewer transport calls than G per heartbeat interval.
	nw := transport.NewMemory()
	addrs := []string{"a", "b", "c"}
	var nodes []*testNode
	for _, a := range addrs {
		nodes = append(nodes, startNode(t, nw, a))
	}
	const groups = 20
	for g := uint64(1); g <= groups; g++ {
		for _, n := range nodes {
			if _, err := n.store.CreateGroup(g, addrs, &counterSM{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for g := uint64(1); g <= groups; g++ {
		waitGroupLeader(t, nodes, g)
	}
	start := nw.Calls()
	time.Sleep(100 * time.Millisecond)
	calls := nw.Calls() - start
	// Heartbeat interval is ~4ms -> ~25 heartbeat rounds in 100ms. With
	// no batching, 20 groups x 2 followers x 25 rounds = ~1000 RPCs
	// minimum. Batching should push well below that; allow margin for
	// elections and timing jitter.
	if calls > 700 {
		t.Fatalf("batching ineffective: %d transport calls in 100ms for %d groups", calls, groups)
	}
}

func TestHandlerRejectsWrongBody(t *testing.T) {
	nw := transport.NewMemory()
	n := startNode(t, nw, "a")
	_, err := n.store.Handler()(uint8(proto.OpRaftMessage), &proto.HeartbeatReq{})
	if !errors.Is(err, util.ErrInvalidArgument) {
		t.Fatalf("wrong body accepted: %v", err)
	}
}

func TestStoreAddr(t *testing.T) {
	nw := transport.NewMemory()
	n := startNode(t, nw, "addr-x")
	if n.store.Addr() != "addr-x" {
		t.Fatalf("Addr = %q", n.store.Addr())
	}
}
