package multiraft

// Lane tests: the two message classes of a peer's delivery lane. They run
// in-package so they can read a peer's pending state, and on a recording
// network with the flush clock set to an hour, so nothing a wall-clock tick
// could do helps them pass.

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

// clocklessManager hosts group 1 of {a,b,c} on node self with both clocks
// parked: only event-driven sends can reach the wire.
func clocklessManager(t *testing.T, nw transport.Network, self string, maxBatch int) (*Manager, *Group) {
	t.Helper()
	m := New(self, nw, Config{
		TickInterval:  time.Hour,
		FlushInterval: time.Hour,
		MaxBatch:      maxBatch,
		RaftDefaults:  raft.Config{ProposeTimeout: 5 * time.Second},
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
	m, _ := clocklessManager(t, nw, "b", 0)
	// A heartbeat first, so a response slot is waiting for the (parked)
	// heartbeat tick when the reply leaves.
	m.HandleBatch(&Batch{From: "a", Beats: []proto.RaftHeartbeat{{GroupID: 1, Term: 1}}})
	p := m.peer("a")
	waitFor(t, time.Second, "heartbeat response never queued", func() bool { return pendingOf(p).beatResps == 1 })

	m.HandleBatch(&Batch{From: "a", Messages: []*raft.Message{appendFrom()}})
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

// (b) entries are still paced: a leader's proposals put nothing on the
// wire until a tick is forced, here by the queue reaching MaxBatch.
func TestEntriesWaitForTheTick(t *testing.T) {
	nw := &recNet{}
	// Per follower: 1 vote + the new leader's no-op append + 2 proposals.
	m, g := clocklessManager(t, nw, "a", 4)
	g.Campaign()
	p := m.peer("b")
	waitFor(t, time.Second, "vote request never queued", func() bool { return pendingOf(p).requests == 1 })
	m.HandleBatch(&Batch{From: "b", Messages: []*raft.Message{
		{GroupID: 1, Type: raft.MsgVoteResp, From: "b", To: "a", Term: 1, Granted: true},
	}})
	waitFor(t, time.Second, "a never became leader", g.IsLeader)
	propose := func() { go g.Propose([]byte("v")) } // returns ErrStopped at Close
	propose()
	waitFor(t, time.Second, "proposal never queued", func() bool { return pendingOf(p).requests == 3 })
	time.Sleep(50 * time.Millisecond)
	if w := nw.wire(); len(w) != 0 {
		t.Fatalf("%d batches left without a tick; first: %+v", len(w), w[0].b)
	}

	propose()
	entries := 0
	for _, w := range nw.waitWire(t, 2, time.Second) { // one batch per follower
		if len(w.b.Messages) != 4 {
			t.Fatalf("forced batch to %s has %d messages, want 4", w.to, len(w.b.Messages))
		}
		for _, msg := range w.b.Messages {
			entries += len(msg.Entries)
		}
	}
	if entries == 0 {
		t.Fatal("forced batches carry no entries")
	}
}

// (c) replies produced while the sender is on the wire leave as ONE batch,
// none dropped - more of them than the old 16-slot outbox could queue.
func TestRepliesBatchWhileSenderIsOnTheWire(t *testing.T) {
	const k = 64
	nw := &recNet{}
	m, _ := clocklessManager(t, nw, "b", 0)
	hold := make(chan struct{})
	nw.setHold(hold)
	m.HandleBatch(&Batch{From: "a", Messages: []*raft.Message{appendFrom()}})
	nw.waitWire(t, 1, time.Second) // the sender is now parked inside Send

	for i := 0; i < k; i++ {
		m.HandleBatch(&Batch{From: "a", Messages: []*raft.Message{appendFrom()}})
	}
	p := m.peer("a")
	waitFor(t, time.Second, "not every reply queued", func() bool { return pendingOf(p).replies == k })
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

type pendingCounts struct{ replies, requests, beats, beatResps int }

// pendingOf counts what p's lane holds, released or not.
func pendingOf(p *peer) pendingCounts {
	p.mu.Lock()
	defer p.mu.Unlock()
	return pendingCounts{
		replies:   len(p.replies),
		requests:  len(p.requests) + len(p.due.Messages),
		beats:     len(p.beats) + len(p.due.Beats),
		beatResps: len(p.beatResps) + len(p.due.BeatResps),
	}
}

// TestHungPeerIsBoundedAndIsolated: the pending bound is safety code. One
// peer's handler never returns, so its sender parks inside Send for good;
// under 2 s of concurrent proposals that peer's lane stays within
// maxPending per class, and the two healthy peers keep committing under
// the same leader and term - their heartbeats were not held up.
func TestHungPeerIsBoundedAndIsolated(t *testing.T) {
	nw := transport.NewMemory()
	addrs := []string{"a", "b", "c"}
	hang := make(chan struct{})
	var hung atomic.Bool
	mgrs := make(map[string]*Manager)
	var groups []*Group
	for _, addr := range addrs {
		m := New(addr, nw, Config{
			FlushInterval: time.Millisecond,
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
	peak := 0
	toHung := mgrs["a"].peer("c")
	for time.Now().Before(stop) {
		if r := pendingOf(toHung).requests; r > peak {
			peak = r
		}
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	t.Logf("%d commits in 2 s with c hung; a's lane to c peaked at %d requests (cap %d)", committed.Load(), peak, maxPending)
	if c := pendingOf(toHung); c.requests > maxPending || c.replies > maxPending ||
		c.beats > maxPending || c.beatResps > maxPending {
		t.Fatalf("lane to the hung peer exceeds maxPending=%d: %+v", maxPending, c)
	}
	if peak != maxPending {
		t.Fatalf("lane to the hung peer peaked at %d requests, want exactly the cap %d (lower: the load never exercised the bound)", peak, maxPending)
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
