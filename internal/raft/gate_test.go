package raft

// Flow-control tests: a leader keeps one append in flight per follower.
// Each drives nodes on ExternalClock with nobody ticking but the test, and
// records what they send, so no wall-clock timing can help them pass.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gateLeader is node l of {l, f1, f2}, elected by f1's vote, with a
// heartbeat on every tick. Its followers are played by the test: they
// answer only what the test steps in.
type gateLeader struct {
	t   *testing.T
	n   *Node
	out chan *Message
	// noop holds the new leader's first append to each follower.
	noop map[string]*Message
}

func newGateLeader(t *testing.T, sm StateMachine, maxLog int) *gateLeader {
	t.Helper()
	out := make(chan *Message, 4096) // never fills: the event loop must not block
	n, err := NewNode(Config{
		ID: "l", Peers: []string{"l", "f1", "f2"}, GroupID: 1, SM: sm,
		Sender: SenderFunc(func(m *Message) { out <- m }), ExternalClock: true,
		HeartbeatTicks: 1, MaxLogEntries: maxLog,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	h := &gateLeader{t: t, n: n, out: out, noop: map[string]*Message{}}
	n.Campaign()
	for i := 0; i < 2; i++ {
		if m := h.next(); m.Type != MsgVote {
			t.Fatalf("campaign sent %v", m.Type)
		}
	}
	h.step(&Message{Type: MsgVoteResp, From: "f1", Term: 1, Granted: true})
	for len(h.noop) < 2 {
		m := h.next()
		if m.Type != MsgApp {
			t.Fatalf("new leader sent %v, want its no-op append", m.Type)
		}
		h.noop[m.To] = m
	}
	return h
}

func (h *gateLeader) next() *Message {
	h.t.Helper()
	select {
	case m := <-h.out:
		return m
	case <-time.After(5 * time.Second):
		h.t.Fatal("leader sent nothing")
		return nil
	}
}

func (h *gateLeader) step(m *Message) {
	m.GroupID, m.To = 1, "l"
	h.n.Step(m)
}

// settle returns everything the leader sent before it answered a stale
// vote request: received messages are handled in order, so that is
// everything the messages stepped so far made it send.
func (h *gateLeader) settle() []*Message {
	h.t.Helper()
	h.step(&Message{Type: MsgVote, From: "f1"})
	var sent []*Message
	for m := h.next(); m.Type != MsgVoteResp; m = h.next() {
		sent = append(sent, m)
	}
	return sent
}

// tick runs one heartbeat and returns what it sent: one message per
// follower.
func (h *gateLeader) tick() map[string]*Message {
	h.t.Helper()
	h.n.Tick()
	sent := map[string]*Message{}
	for len(sent) < 2 {
		m := h.next()
		sent[m.To] = m
	}
	return sent
}

// propose appends data without waiting for it to commit.
func (h *gateLeader) propose(data string) {
	want := h.n.Status().LastIndex + 1
	go h.n.Propose([]byte(data)) // fails with ErrStopped at cleanup
	for h.n.Status().LastIndex < want {
	}
}

// ack answers app as its follower would: success up to its last entry.
func (h *gateLeader) ack(app *Message) {
	h.step(&Message{Type: MsgAppResp, From: app.To, Term: app.Term, Success: true,
		MatchIndex: app.PrevLogIndex + uint64(len(app.Entries))})
}

func entryApps(msgs []*Message, to string) int {
	c := 0
	for _, m := range msgs {
		if m.To == to && (m.Type == MsgSnap || (m.Type == MsgApp && len(m.Entries) > 0)) {
			c++
		}
	}
	return c
}

// A mute follower gets at most one entry-carrying append per heartbeat
// tick, however much is proposed, and the retransmit carries everything.
func TestGateOneAppendPerTickToAMuteFollower(t *testing.T) {
	h := newGateLeader(t, newKVSM(), 0)
	for i := 0; i < 10; i++ {
		h.propose(fmt.Sprintf("k%d=v", i))
	}
	if sent := h.settle(); len(sent) != 0 {
		t.Fatalf("10 proposals to followers with an append out sent %d messages, want 0", len(sent))
	}
	for tick := 1; tick <= 3; tick++ {
		beat := h.tick()
		if sent := append([]*Message{beat["f1"], beat["f2"]}, h.settle()...); entryApps(sent, "f2") != 1 {
			t.Fatalf("tick %d: %d entry-carrying appends to the mute f2, want 1", tick, entryApps(sent, "f2"))
		}
		if app := beat["f2"]; app.PrevLogIndex != 0 || len(app.Entries) != 11 {
			t.Fatalf("tick %d: retransmit after %d carries %d entries, want all 11", tick, app.PrevLogIndex, len(app.Entries))
		}
	}
}

// snapCountingSM counts Snapshot calls.
type snapCountingSM struct {
	*kvSM
	snapshots atomic.Int64
}

func (s *snapCountingSM) Snapshot() ([]byte, error) {
	s.snapshots.Add(1)
	return s.kvSM.Snapshot()
}

// A follower behind the compaction point costs one SM.Snapshot per
// retransmit, not one per event that calls sendAppend.
func TestGateSnapshotOncePerRetransmit(t *testing.T) {
	sm := &snapCountingSM{kvSM: newKVSM()}
	h := newGateLeader(t, sm, 4)
	// f1 acks every append; f2 stays mute while 20 entries commit and the
	// log compacts past everything f2 has.
	app := h.noop["f1"]
	for i := 0; i < 20; i++ {
		h.ack(app)
		h.propose(fmt.Sprintf("k%d=v", i))
		for app = h.next(); app.To != "f1" || app.Type != MsgApp; app = h.next() {
		}
	}
	h.ack(app)
	h.settle()
	if st := h.n.Status(); st.Commit != 21 || st.FirstIndex <= 1 {
		t.Fatalf("commit %d, first index %d: want 21 committed and the no-op compacted away", st.Commit, st.FirstIndex)
	}

	// f2 is alive but slow: ten heartbeat answers reach the leader, then
	// two heartbeat ticks pass.
	sm.snapshots.Store(0)
	for i := 0; i < 10; i++ {
		h.step(&Message{Type: MsgHeartbeatResp, From: "f2", Term: 1})
	}
	sent := h.settle()
	const ticks = 2
	for i := 0; i < ticks; i++ {
		beat := h.tick()
		sent = append(append(sent, beat["f1"], beat["f2"]), h.settle()...)
	}
	if got := sm.snapshots.Load(); got > 1+ticks {
		t.Fatalf("SM.Snapshot called %d times for f2, want <= %d (one, plus one per retransmit)", got, 1+ticks)
	}
	if got := entryApps(sent, "f2"); got != ticks {
		t.Fatalf("%d snapshots sent to f2, want one per tick (%d)", got, ticks)
	}
}

// Only an answer to the append in flight reopens the gate: a success short
// of its last index, or a rejection of some other append, sends nothing
// and moves nothing.
func TestGateIgnoresStaleAnswers(t *testing.T) {
	h := newGateLeader(t, newKVSM(), 0)
	for _, kv := range []string{"a=1", "b=2", "c=3"} {
		h.propose(kv)
	}
	h.settle()
	if app := h.tick()["f1"]; app.PrevLogIndex != 0 || len(app.Entries) != 4 {
		t.Fatalf("retransmit to f1: after %d with %d entries, want after 0 with 4", app.PrevLogIndex, len(app.Entries))
	}

	// f1's answer to the no-op append, which ended at 1, arrives late.
	h.step(&Message{Type: MsgAppResp, From: "f1", Term: 1, Success: true, MatchIndex: 1})
	if sent := h.settle(); len(sent) != 0 {
		t.Fatalf("a stale success reopened the gate: sent %+v", sent[0])
	}
	// A rejection of an append after 3, which is not the one out.
	h.step(&Message{Type: MsgAppResp, From: "f1", Term: 1, MatchIndex: 3, HintIndex: 2})
	if sent := h.settle(); len(sent) != 0 {
		t.Fatalf("a stale rejection reopened the gate: sent %+v", sent[0])
	}

	// The answer to the append out reopens the gate, and the stale
	// rejection did not move where the next append starts.
	h.step(&Message{Type: MsgAppResp, From: "f1", Term: 1, Success: true, MatchIndex: 4})
	h.propose("d=4")
	sent := h.settle()
	if len(sent) != 1 || sent[0].To != "f1" || sent[0].PrevLogIndex != 4 || len(sent[0].Entries) != 1 {
		t.Fatalf("after f1 acked 4, proposing 5 sent %+v; want one append of 5 after 4 to f1", sent)
	}
	// A rejection of exactly that append backs off and retries at once.
	h.step(&Message{Type: MsgAppResp, From: "f1", Term: 1, MatchIndex: 4, HintIndex: 3})
	sent = h.settle()
	if len(sent) != 1 || sent[0].PrevLogIndex != 2 || len(sent[0].Entries) != 3 {
		t.Fatalf("rejection of the append out sent %+v; want one append of 3..5 after 2", sent)
	}
}

// At 16 closed-loop proposers each entry crosses the wire about once per
// follower: the gate's group commit, not a resend of the unacked suffix
// per proposal.
func TestGateEntryBytesPerCommitAt16Proposers(t *testing.T) {
	const proposers, each, followers = 16, 25, 2
	entry := []byte("k=0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcd")
	r := newRouter()
	var entryBytes atomic.Int64
	deliver := r.sender()
	counting := SenderFunc(func(m *Message) {
		for _, e := range m.Entries {
			entryBytes.Add(int64(len(e.Data)))
		}
		deliver.Send(m)
	})
	peers := []string{"n0", "n1", "n2"}
	var leader *Node
	for _, id := range peers {
		node, err := NewNode(Config{
			ID: id, Peers: peers, GroupID: 1, Sender: counting, SM: newKVSM(), ExternalClock: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Stop)
		r.mu.Lock()
		r.nodes[id] = node
		r.mu.Unlock()
		if leader == nil {
			leader = node
		}
	}
	leader.Campaign()
	for !leader.IsLeader() {
	}
	var wg sync.WaitGroup
	for p := 0; p < proposers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := leader.Propose(entry); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	floor := float64(followers * len(entry) * proposers * each)
	got := float64(entryBytes.Load())
	t.Logf("%.0f entry bytes on the wire for %d commits: %.2f x the floor", got, proposers*each, got/floor)
	if got > 1.5*floor {
		t.Fatalf("%.0f entry bytes for %d commits of %d B to %d followers: %.2f x the floor, want <= 1.5",
			got, proposers*each, len(entry), followers, got/floor)
	}
}

// A follower acks, and commits, only the prefix an append verified (Raft
// Fig. 2). Its log may hold a deposed leader's suffix past that prefix;
// counting it would let the new leader count a replica it does not have,
// and committing it would apply entries the cluster never chose.
func TestFollowerAcksOnlyWhatTheAppendVerified(t *testing.T) {
	out := make(chan *Message, 16)
	sm := newKVSM()
	n, err := NewNode(Config{
		ID: "f", Peers: []string{"f", "l", "x"}, GroupID: 1, SM: sm,
		Sender: SenderFunc(func(m *Message) { out <- m }), ExternalClock: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Stop)
	answer := func(m *Message) *Message {
		t.Helper()
		m.GroupID, m.To = 1, "f"
		n.Step(m)
		select {
		case resp := <-out:
			return resp
		case <-time.After(5 * time.Second):
			t.Fatal("follower sent nothing")
			return nil
		}
	}
	// Deposed leader x replicated five term-1 entries here and committed
	// none of them.
	var old []Entry
	for i, kv := range []string{"a=1", "b=1", "c=old", "d=old", "e=old"} {
		old = append(old, Entry{Index: uint64(i + 1), Term: 1, Data: []byte(kv)})
	}
	if resp := answer(&Message{Type: MsgApp, From: "x", Term: 1, Entries: old}); !resp.Success || resp.MatchIndex != 5 {
		t.Fatalf("first append: %+v", resp)
	}
	// Leader l of term 2 shares entries 1 and 2 with f and has committed 5
	// entries of its own; its append after 1 carries only entry 2.
	resp := answer(&Message{Type: MsgApp, From: "l", Term: 2, PrevLogIndex: 1, PrevLogTerm: 1,
		Entries: old[1:2], Commit: 5})
	st := n.Status()
	if !resp.Success || resp.MatchIndex != 2 {
		t.Fatalf("append of 2 after 1 answered success=%v match=%d, want success up to 2", resp.Success, resp.MatchIndex)
	}
	if _, applied := sm.get("c"); st.Commit != 2 || st.Applied != 2 || applied {
		t.Fatalf("commit %d applied %d (c applied: %v), want 2 and 2: entries 3..5 were never verified", st.Commit, st.Applied, applied)
	}
	// A stale snapshot is answered with what is applied, not the log's end.
	if resp := answer(&Message{Type: MsgSnap, From: "l", Term: 2, SnapIndex: 1, SnapTerm: 1}); !resp.Success || resp.MatchIndex != 2 {
		t.Fatalf("stale snapshot answered success=%v match=%d, want success at the applied index 2", resp.Success, resp.MatchIndex)
	}
}

// An answer from a member removed while the request was out is ignored: it
// neither resumes replication to the removed server nor lets that server's
// raised term depose the leader.
func TestAnswerFromRemovedMemberIsIgnored(t *testing.T) {
	h := newGateLeader(t, newKVSM(), 0)
	h.ack(h.noop["f1"])
	done := make(chan error, 1)
	go func() { done <- h.n.ProposeConfChange(ConfChange{Type: ConfRemoveNode, Addr: "f2"}) }()
	app := h.next()
	for app.To != "f1" || app.Type != MsgApp {
		app = h.next()
	}
	h.ack(app)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	h.settle()

	h.step(&Message{Type: MsgAppResp, From: "f2", Term: 1, Success: true, MatchIndex: 1})
	h.step(&Message{Type: MsgHeartbeatResp, From: "f2", Term: 9})
	if sent := h.settle(); len(sent) != 0 {
		t.Fatalf("answers from the removed f2 made the leader send %+v", sent[0])
	}
	if st := h.n.Status(); st.Role != Leader || st.Term != 1 {
		t.Fatalf("answers from the removed f2 moved the leader to %v at term %d", st.Role, st.Term)
	}
}

// IsLeader reads what the event loop published at its last role change: a
// new leader's no-op appends are out before the test looks, and a higher
// term, the node's own committed removal or Stop clears it. A reader polls
// it throughout, so the race suite sees handlers' loads interleave with
// the loop's stores.
func TestGateLeadershipPublishedAtEachRoleChange(t *testing.T) {
	leader := func() *gateLeader {
		h := newGateLeader(t, newKVSM(), 0)
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
					h.n.IsLeader()
				}
			}
		}()
		t.Cleanup(func() { close(stop); <-done })
		if !h.n.IsLeader() {
			t.Fatal("IsLeader false after the new leader's no-op appends left")
		}
		return h
	}

	h := leader()
	if allocs := testing.AllocsPerRun(100, func() { h.n.IsLeader() }); allocs != 0 {
		t.Fatalf("IsLeader allocates %.1f times per call, want 0", allocs)
	}
	h.n.Stop()
	if h.n.IsLeader() {
		t.Fatal("IsLeader true after Stop")
	}

	h = leader()
	h.step(&Message{Type: MsgApp, From: "f1", Term: 2})
	h.settle()
	if h.n.IsLeader() {
		t.Fatal("IsLeader true after a term-2 append from f1 was handled")
	}

	h = leader()
	h.ack(h.noop["f1"])
	done := make(chan error, 1)
	go func() { done <- h.n.ProposeConfChange(ConfChange{Type: ConfRemoveNode, Addr: "l"}) }()
	app := h.next()
	for app.To != "f1" || app.Type != MsgApp {
		app = h.next()
	}
	h.ack(app)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if h.n.IsLeader() {
		t.Fatal("IsLeader true after the node's own removal committed")
	}
}
