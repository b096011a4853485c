package multiraft

// Lane tests: when a peer's delivery lane lets a message leave. They run
// in-package so they can read a peer's pending state, and on a recording
// network with the clock set to an hour, so nothing a wall-clock tick could
// do helps them pass.

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cfs/internal/proto"
	"cfs/internal/raft"
	"cfs/internal/transport"
)

type nopSM struct{}

func (nopSM) Apply(uint64, []byte) (any, error) { return nil, nil }
func (nopSM) Snapshot() ([]byte, error)         { return nil, nil }
func (nopSM) Restore([]byte) error              { return nil }

type wireBatch struct {
	to string
	b  *Batch
}

// recNet is a StreamNetwork that records every batch put on the wire and
// delivers none. While hold is set, a Send parks (after recording) until
// the channel is closed - the sender goroutine is then "on the wire".
type recNet struct {
	mu   sync.Mutex
	sent []wireBatch
	hold chan struct{}
}

func (n *recNet) Listen(string, transport.Handler) (transport.Listener, error) {
	return nil, errors.New("recNet has no listeners")
}

func (n *recNet) Call(addr string, _ uint8, req, _ any) error {
	n.mu.Lock()
	n.sent = append(n.sent, wireBatch{to: addr, b: req.(*Batch)})
	hold := n.hold
	n.mu.Unlock()
	if hold != nil {
		<-hold
	}
	return nil
}

func (n *recNet) OpenStream(addr string) transport.Stream { return recStream{n, addr} }

type recStream struct {
	n    *recNet
	addr string
}

func (s recStream) Send(op uint8, req any) error { return s.n.Call(s.addr, op, req, nil) }
func (s recStream) Close() error                 { return nil }

func (n *recNet) setHold(c chan struct{}) {
	n.mu.Lock()
	n.hold = c
	n.mu.Unlock()
}

func (n *recNet) wire() []wireBatch {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]wireBatch(nil), n.sent...)
}

// waitFor polls cond until it holds, failing the test after within.
func waitFor(t testing.TB, within time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(within); !cond(); time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("after %v: %s", within, what)
		}
	}
}

// waitWire waits until at least want batches were put on the wire.
func (n *recNet) waitWire(t *testing.T, want int, within time.Duration) []wireBatch {
	t.Helper()
	waitFor(t, within, "too few batches on the wire", func() bool { return len(n.wire()) >= want })
	return n.wire()
}

// clocklessManager hosts group 1 of {a,b,c} on node self with the clock
// parked: only event-driven sends can reach the wire.
func clocklessManager(t *testing.T, nw transport.Network, self string) (*Manager, *Group) {
	t.Helper()
	m := New(self, nw, Config{
		TickInterval: time.Hour,
		RaftDefaults: raft.Config{ProposeTimeout: 5 * time.Second},
	})
	t.Cleanup(m.Close)
	g, err := m.CreateGroup(1, []string{"a", "b", "c"}, nopSM{})
	if err != nil {
		t.Fatal(err)
	}
	return m, g
}

// appendFrom is leader a's first append as follower b receives it.
func appendFrom() *raft.Message {
	return &raft.Message{
		GroupID: 1, Type: raft.MsgApp, From: "a", To: "b", Term: 1,
		Entries: []raft.Entry{{Index: 1, Term: 1, Data: []byte("x")}},
	}
}

// (a) + (d): an append handed to a hosted follower is answered on the wire
// without any tick, and the answer's batch takes no heartbeat slot with it.
func TestReplyLeavesWithoutATick(t *testing.T) {
	nw := &recNet{}
	m, _ := clocklessManager(t, nw, "b")
	// A heartbeat first, so a response slot is waiting for the (parked)
	// heartbeat tick when the reply leaves.
	m.handleBatch(&Batch{From: "a", Beats: []proto.RaftHeartbeat{{GroupID: 1, Term: 1}}})
	p := m.peer("a")
	waitFor(t, time.Second, "heartbeat response never queued", func() bool { return pendingOf(p).beatResps == 1 })

	m.handleBatch(&Batch{From: "a", Messages: []*raft.Message{appendFrom()}})
	w := nw.waitWire(t, 1, 100*time.Millisecond)
	b := w[0].b
	if w[0].to != "a" || len(b.Messages) != 1 || b.Messages[0].Type != raft.MsgAppResp || !b.Messages[0].Success {
		t.Fatalf("first batch on the wire: to %q %+v", w[0].to, b)
	}
	if len(b.Beats)+len(b.BeatResps) != 0 {
		t.Fatalf("reply-only batch carried heartbeat slots: %d beats, %d responses", len(b.Beats), len(b.BeatResps))
	}
	if got := pendingOf(p).beatResps; got != 1 {
		t.Fatalf("heartbeat response slot: %d pending, want 1 still waiting for its tick", got)
	}
}

// (b) entries are not paced: a proposal reaches each follower's wire once,
// at once. Raft's gate, not a clock, holds a second proposal back while the
// first is unacked, and the ack releases it.
func TestEntriesLeaveWithoutATick(t *testing.T) {
	nw := &recNet{}
	m, g := clocklessManager(t, nw, "a")
	step := func(msg *raft.Message) { m.handleBatch(&Batch{From: msg.From, Messages: []*raft.Message{msg}}) }
	ack := func(from string, match uint64) {
		step(&raft.Message{GroupID: 1, Type: raft.MsgAppResp, From: from, To: "a", Term: 1, Success: true, MatchIndex: match})
	}
	g.Campaign()
	nw.waitWire(t, 2, time.Second) // the vote requests, one per follower
	step(&raft.Message{GroupID: 1, Type: raft.MsgVoteResp, From: "b", To: "a", Term: 1, Granted: true})
	waitFor(t, time.Second, "the new leader's no-op never reached both followers", func() bool {
		return nw.carrying("b", 1) == 1 && nw.carrying("c", 1) == 1
	})
	ack("b", 1)
	ack("c", 1)

	propose := func() { go g.Propose([]byte("v")) } // returns ErrStopped at Close
	propose()
	waitFor(t, time.Second, "the proposal never reached both followers", func() bool {
		return nw.carrying("b", 2) == 1 && nw.carrying("c", 2) == 1
	})
	propose()
	waitFor(t, time.Second, "the second proposal was never appended", func() bool { return g.Status().LastIndex == 3 })
	// Barrier: a stale vote request from b is answered on b's lane behind
	// anything the second proposal queued for b.
	step(&raft.Message{GroupID: 1, Type: raft.MsgVote, From: "b", To: "a"})
	waitFor(t, time.Second, "the vote answer never left", func() bool { return nw.count("b", raft.MsgVoteResp) == 1 })
	if n := nw.carrying("b", 3); n != 0 {
		t.Fatalf("entry 3 reached b %d times while entry 2 was unacked", n)
	}

	ack("b", 2)
	waitFor(t, time.Second, "b's ack released nothing", func() bool { return nw.carrying("b", 3) == 1 })
	for _, f := range []string{"b", "c"} {
		if n := nw.carrying(f, 2); n != 1 {
			t.Fatalf("entry 2 reached %s %d times, want once", f, n)
		}
	}
}

// carrying counts the appends put on the wire to addr that carry entry index.
func (n *recNet) carrying(addr string, index uint64) int {
	c := 0
	for _, w := range n.wire() {
		for _, msg := range w.b.Messages {
			if w.to != addr || msg.Type != raft.MsgApp {
				continue
			}
			for _, e := range msg.Entries {
				if e.Index == index {
					c++
				}
			}
		}
	}
	return c
}

// count counts the messages of type typ put on the wire to addr.
func (n *recNet) count(addr string, typ raft.MsgType) int {
	c := 0
	for _, w := range n.wire() {
		for _, msg := range w.b.Messages {
			if w.to == addr && msg.Type == typ {
				c++
			}
		}
	}
	return c
}

// (c) replies produced while the sender is on the wire leave as ONE batch,
// none dropped - more of them than the old 16-slot outbox could queue.
func TestRepliesBatchWhileSenderIsOnTheWire(t *testing.T) {
	const k = 64
	nw := &recNet{}
	m, _ := clocklessManager(t, nw, "b")
	hold := make(chan struct{})
	nw.setHold(hold)
	m.handleBatch(&Batch{From: "a", Messages: []*raft.Message{appendFrom()}})
	nw.waitWire(t, 1, time.Second) // the sender is now parked inside Send

	for i := 0; i < k; i++ {
		m.handleBatch(&Batch{From: "a", Messages: []*raft.Message{appendFrom()}})
	}
	p := m.peer("a")
	waitFor(t, time.Second, "not every reply queued", func() bool { return pendingOf(p).msgs == k })
	nw.setHold(nil)
	close(hold)
	w := nw.waitWire(t, 2, time.Second)
	if got := len(w[1].b.Messages); got != k {
		t.Fatalf("second batch carries %d replies, want all %d in one", got, k)
	}
	time.Sleep(20 * time.Millisecond)
	if n := len(nw.wire()); n != 2 {
		t.Fatalf("%d batches on the wire, want 2", n)
	}
}

type pendingCounts struct{ msgs, entryApps, beats, beatResps int }

// pendingOf counts what p's lane holds, released or not; entryApps counts
// the messages among msgs that carry entries: appends with entries, and
// snapshots, which Raft's gate treats as appends.
func pendingOf(p *peer) pendingCounts {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := pendingCounts{
		msgs:      len(p.due.Messages),
		beats:     len(p.beats) + len(p.due.Beats),
		beatResps: len(p.beatResps) + len(p.due.BeatResps),
	}
	for _, msg := range p.due.Messages {
		if (msg.Type == raft.MsgApp && len(msg.Entries) > 0) || msg.Type == raft.MsgSnap {
			c.entryApps++
		}
	}
	return c
}

// TestHungPeerIsBoundedAndIsolated: one peer's handler never returns, so
// its sender parks inside Send for good. Under 2 s of concurrent proposals
// Raft's gate keeps that peer's lane short - one retransmitted append per
// group per heartbeat tick - and within maxPending per class, and the two
// healthy peers keep committing under the same leader and term: their
// heartbeats were not held up.
func TestHungPeerIsBoundedAndIsolated(t *testing.T) {
	nw := transport.NewMemory()
	addrs := []string{"a", "b", "c"}
	hang := make(chan struct{})
	var hung atomic.Bool
	mgrs := make(map[string]*Manager)
	var groups []*Group
	for _, addr := range addrs {
		m := New(addr, nw, Config{
			RaftDefaults: raft.Config{
				TickInterval:   2 * time.Millisecond,
				HeartbeatTicks: 2,
				ElectionTicks:  10,
				ProposeTimeout: 3 * time.Second,
			},
		})
		h := m.Handler()
		if addr == "c" {
			inner := h
			h = func(op uint8, req any) (any, error) {
				if hung.Load() {
					<-hang
				}
				return inner(op, req)
			}
		}
		ln, err := nw.Listen(addr, h)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close(); ln.Close() })
		g, err := m.CreateGroup(1, addrs, nopSM{})
		if err != nil {
			t.Fatal(err)
		}
		mgrs[addr] = m
		groups = append(groups, g)
	}
	t.Cleanup(func() { close(hang) }) // runs first: un-parks the senders so Close can join them
	leader := groups[0]
	leader.Campaign()
	waitFor(t, 5*time.Second, "a never became leader", leader.IsLeader)
	if _, err := leader.Propose([]byte("warm")); err != nil {
		t.Fatal(err)
	}
	term := leader.Status().Term

	ticks0 := mgrs["a"].Stats().Ticks
	hung.Store(true)
	var committed atomic.Int64
	var wg sync.WaitGroup
	stop := time.Now().Add(2 * time.Second)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				if _, err := leader.Propose([]byte("v")); err != nil {
					t.Errorf("propose with one peer hung: %v", err)
					return
				}
				committed.Add(1)
			}
		}()
	}
	wg.Wait()
	c := pendingOf(mgrs["a"].peer("c"))
	beatTicks := int(mgrs["a"].Stats().Ticks-ticks0)/2 + 1 // HeartbeatTicks 2; a partial interval counts
	const groupCount = 1
	t.Logf("%d commits in 2 s with c hung; a's lane to c holds %d entry-carrying appends after %d heartbeat ticks: %+v",
		committed.Load(), c.entryApps, beatTicks, c)
	if c.msgs > maxPending || c.beats > maxPending || c.beatResps > maxPending {
		t.Fatalf("lane to the hung peer exceeds maxPending=%d: %+v", maxPending, c)
	}
	if bound := groupCount * (1 + beatTicks); c.entryApps > bound {
		t.Fatalf("lane to the hung peer holds %d entry-carrying appends, want <= %d (one per group per heartbeat tick, plus one)",
			c.entryApps, bound)
	}
	if committed.Load() < 200 {
		t.Fatalf("healthy majority committed only %d entries in 2 s", committed.Load())
	}
	for _, g := range groups[:2] {
		if st := g.Status(); st.Term != term || st.Leader != "a" {
			t.Fatalf("%s: term %d leader %q, want term %d leader a (a hung peer disturbed the healthy ones)",
				st.ID, st.Term, st.Leader, term)
		}
	}
}
