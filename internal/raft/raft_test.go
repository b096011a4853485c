package raft

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// kvSM is a tiny replicated map used as the test state machine.
type kvSM struct {
	mu      sync.Mutex
	data    map[string]string
	applied uint64
}

func newKVSM() *kvSM { return &kvSM{data: make(map[string]string)} }

func (s *kvSM) Apply(index uint64, data []byte) (any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if index <= s.applied {
		return nil, fmt.Errorf("reapply of index %d (applied %d)", index, s.applied)
	}
	s.applied = index
	parts := bytes.SplitN(data, []byte("="), 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("bad command %q", data)
	}
	s.data[string(parts[0])] = string(parts[1])
	return string(parts[1]), nil
}

func (s *kvSM) Snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s.data); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (s *kvSM) Restore(data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := make(map[string]string)
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&m); err != nil {
		return err
	}
	s.data = m
	return nil
}

func (s *kvSM) get(k string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.data[k]
	return v, ok
}

// router delivers messages between test nodes with optional partitions.
type router struct {
	mu    sync.Mutex
	nodes map[string]*Node
	cut   map[string]bool
}

func newRouter() *router {
	return &router{nodes: make(map[string]*Node), cut: make(map[string]bool)}
}

func (r *router) sender() Sender {
	return SenderFunc(func(msg *Message) {
		r.mu.Lock()
		n := r.nodes[msg.To]
		blocked := r.cut[msg.To] || r.cut[msg.From]
		r.mu.Unlock()
		if n == nil || blocked {
			return
		}
		n.Step(msg)
	})
}

func (r *router) partition(id string) {
	r.mu.Lock()
	r.cut[id] = true
	r.mu.Unlock()
}

func (r *router) heal(id string) {
	r.mu.Lock()
	delete(r.cut, id)
	r.mu.Unlock()
}

type cluster struct {
	t      *testing.T
	router *router
	nodes  map[string]*Node
	sms    map[string]*kvSM
	peers  []string
}

func newCluster(t *testing.T, n int, maxLog int) *cluster {
	t.Helper()
	c := &cluster{
		t:      t,
		router: newRouter(),
		nodes:  make(map[string]*Node),
		sms:    make(map[string]*kvSM),
	}
	for i := 0; i < n; i++ {
		c.peers = append(c.peers, fmt.Sprintf("n%d", i))
	}
	for _, id := range c.peers {
		sm := newKVSM()
		node, err := NewNode(Config{
			ID:             id,
			Peers:          c.peers,
			GroupID:        1,
			Sender:         c.router.sender(),
			SM:             sm,
			TickInterval:   2 * time.Millisecond,
			HeartbeatTicks: 2,
			ElectionTicks:  10,
			MaxLogEntries:  maxLog,
			ProposeTimeout: 2 * time.Second,
			Seed:           uint64(len(id)*1000 + int(id[1])),
		})
		if err != nil {
			t.Fatal(err)
		}
		c.router.mu.Lock()
		c.router.nodes[id] = node
		c.router.mu.Unlock()
		c.nodes[id] = node
		c.sms[id] = sm
	}
	t.Cleanup(c.stopAll)
	return c
}

func (c *cluster) stopAll() {
	for _, n := range c.nodes {
		n.Stop()
	}
}

// waitLeader blocks until exactly one reachable node is leader and a
// majority agrees on it, returning its id.
func (c *cluster) waitLeader() string {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		counts := map[string]int{}
		for id, n := range c.nodes {
			c.router.mu.Lock()
			cut := c.router.cut[id]
			c.router.mu.Unlock()
			if cut {
				continue
			}
			st := n.Status()
			if st.Leader != "" {
				counts[st.Leader]++
			}
		}
		for leader, votes := range counts {
			c.router.mu.Lock()
			cut := c.router.cut[leader]
			c.router.mu.Unlock()
			if cut {
				continue
			}
			if votes > len(c.peers)/2 && c.nodes[leader].Status().Role == Leader {
				return leader
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.t.Fatal("no leader elected within deadline")
	return ""
}

func (c *cluster) propose(key, val string) error {
	leader := c.waitLeader()
	_, err := c.nodes[leader].Propose([]byte(key + "=" + val))
	return err
}

func (c *cluster) waitValue(id, key, want string) {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if v, ok := c.sms[id].get(key); ok && v == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	v, _ := c.sms[id].get(key)
	c.t.Fatalf("node %s: key %q = %q, want %q", id, key, v, want)
}

func TestSingleNodeCommit(t *testing.T) {
	c := newCluster(t, 1, 0)
	leader := c.waitLeader()
	if leader != "n0" {
		t.Fatalf("leader = %s", leader)
	}
	v, err := c.nodes["n0"].Propose([]byte("a=1"))
	if err != nil {
		t.Fatal(err)
	}
	if v.(string) != "1" {
		t.Fatalf("apply result = %v", v)
	}
	c.waitValue("n0", "a", "1")
}

func TestThreeNodeElectionAndReplication(t *testing.T) {
	c := newCluster(t, 3, 0)
	leader := c.waitLeader()
	if _, err := c.nodes[leader].Propose([]byte("k=v")); err != nil {
		t.Fatal(err)
	}
	for _, id := range c.peers {
		c.waitValue(id, "k", "v")
	}
}

func TestProposeOnFollowerFails(t *testing.T) {
	c := newCluster(t, 3, 0)
	leader := c.waitLeader()
	for _, id := range c.peers {
		if id == leader {
			continue
		}
		_, err := c.nodes[id].Propose([]byte("x=y"))
		if !errors.Is(err, ErrNotLeader) {
			t.Fatalf("follower %s accepted proposal: %v", id, err)
		}
		return
	}
}

func TestLeaderFailover(t *testing.T) {
	c := newCluster(t, 3, 0)
	leader1 := c.waitLeader()
	if _, err := c.nodes[leader1].Propose([]byte("before=1")); err != nil {
		t.Fatal(err)
	}
	c.router.partition(leader1)
	leader2 := c.waitLeader()
	if leader2 == leader1 {
		t.Fatalf("partitioned leader still considered leader")
	}
	if _, err := c.nodes[leader2].Propose([]byte("after=2")); err != nil {
		t.Fatalf("propose after failover: %v", err)
	}
	// Old leader heals and must converge as follower with the new data.
	c.router.heal(leader1)
	c.waitValue(leader1, "after", "2")
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.nodes[leader1].Status().Role == Follower {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := c.nodes[leader1].Status().Role; got != Follower {
		t.Fatalf("healed old leader role = %v", got)
	}
}

func TestManySequentialProposals(t *testing.T) {
	c := newCluster(t, 3, 0)
	leader := c.waitLeader()
	const n = 200
	for i := 0; i < n; i++ {
		if _, err := c.nodes[leader].Propose([]byte(fmt.Sprintf("k%d=v%d", i, i))); err != nil {
			// Leadership may move mid-run; re-resolve and retry once.
			leader = c.waitLeader()
			if _, err := c.nodes[leader].Propose([]byte(fmt.Sprintf("k%d=v%d", i, i))); err != nil {
				t.Fatalf("proposal %d failed twice: %v", i, err)
			}
		}
	}
	for _, id := range c.peers {
		c.waitValue(id, fmt.Sprintf("k%d", n-1), fmt.Sprintf("v%d", n-1))
	}
}

func TestConcurrentProposals(t *testing.T) {
	c := newCluster(t, 3, 0)
	leader := c.waitLeader()
	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.nodes[leader].Propose([]byte(fmt.Sprintf("c%d=%d", i, i))); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent proposal failed: %v", err)
	}
	for i := 0; i < 50; i++ {
		c.waitValue("n0", fmt.Sprintf("c%d", i), fmt.Sprintf("%d", i))
	}
}

func TestLogCompactionAndSnapshotInstall(t *testing.T) {
	// Tiny log limit forces compaction; a partitioned follower must then
	// catch up via snapshot install.
	c := newCluster(t, 3, 16)
	leader := c.waitLeader()
	var lagging string
	for _, id := range c.peers {
		if id != leader {
			lagging = id
			break
		}
	}
	c.router.partition(lagging)
	for i := 0; i < 100; i++ {
		if _, err := c.nodes[leader].Propose([]byte(fmt.Sprintf("s%d=%d", i, i))); err != nil {
			t.Fatalf("proposal %d: %v", i, err)
		}
	}
	st := c.nodes[leader].Status()
	if st.FirstIndex == 1 {
		t.Fatalf("log never compacted: first=%d last=%d", st.FirstIndex, st.LastIndex)
	}
	c.router.heal(lagging)
	c.waitValue(lagging, "s99", "99")
}

func TestTermMonotonicAndStableLeader(t *testing.T) {
	c := newCluster(t, 3, 0)
	leader := c.waitLeader()
	term1 := c.nodes[leader].Status().Term
	time.Sleep(200 * time.Millisecond) // many heartbeat intervals
	leader2 := c.waitLeader()
	term2 := c.nodes[leader2].Status().Term
	if term2 < term1 {
		t.Fatalf("term went backwards: %d -> %d", term1, term2)
	}
	if leader2 != leader {
		t.Fatalf("leadership churned without failures: %s -> %s", leader, leader2)
	}
}

func TestStoppedNodeRejectsPropose(t *testing.T) {
	c := newCluster(t, 1, 0)
	c.waitLeader()
	c.nodes["n0"].Stop()
	_, err := c.nodes["n0"].Propose([]byte("a=1"))
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("propose after stop: %v", err)
	}
}

func TestNewNodeValidation(t *testing.T) {
	_, err := NewNode(Config{})
	if err == nil {
		t.Fatal("empty config accepted")
	}
	_, err = NewNode(Config{ID: "x", Peers: []string{"y"}, Sender: SenderFunc(func(*Message) {}), SM: newKVSM()})
	if err == nil {
		t.Fatal("ID not in peers accepted")
	}
}

func TestMinorityPartitionCannotCommit(t *testing.T) {
	c := newCluster(t, 3, 0)
	leader := c.waitLeader()
	// Cut the two followers: the leader is now in a minority.
	for _, id := range c.peers {
		if id != leader {
			c.router.partition(id)
		}
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.nodes[leader].Propose([]byte("iso=1"))
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("minority leader committed a proposal")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("proposal neither failed nor timed out")
	}
}

func TestNoOpCommitEstablishesLeadership(t *testing.T) {
	c := newCluster(t, 3, 0)
	leader := c.waitLeader()
	st := c.nodes[leader].Status()
	if st.Commit == 0 {
		// The no-op entry should commit shortly after election.
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if c.nodes[leader].Status().Commit > 0 {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatal("no-op entry never committed")
	}
}

// ---------------------------------------------------------------------------
// Membership change (single-server ConfChange).

// addNode boots an extra node into the cluster's router. The node is
// bootstrapped with the POST-change peer list (its creator knows the new
// membership); existing members only admit it once the AddNode commits.
func (c *cluster) addNode(id string, peers []string) {
	c.t.Helper()
	sm := newKVSM()
	node, err := NewNode(Config{
		ID:             id,
		Peers:          peers,
		GroupID:        1,
		Sender:         c.router.sender(),
		SM:             sm,
		TickInterval:   2 * time.Millisecond,
		HeartbeatTicks: 2,
		ElectionTicks:  10,
		ProposeTimeout: 2 * time.Second,
		Seed:           uint64(len(id)*1000 + int(id[1])),
	})
	if err != nil {
		c.t.Fatal(err)
	}
	c.router.mu.Lock()
	c.router.nodes[id] = node
	c.router.mu.Unlock()
	c.nodes[id] = node
	c.sms[id] = sm
}

func waitPeers(t *testing.T, n *Node, want int) Status {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := n.Status()
		if len(st.Peers) == want {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := n.Status()
	t.Fatalf("node %s peers = %v, want %d members", st.ID, st.Peers, want)
	return st
}

// TestConfChangeRemoveDeadMember: removing a dead member shrinks the
// quorum so the survivors keep committing, and the removed server's
// (eventual) candidacies are ignored by the new configuration.
func TestConfChangeRemoveDeadMember(t *testing.T) {
	c := newCluster(t, 3, 0)
	leader := c.waitLeader()
	if _, err := c.nodes[leader].Propose([]byte("a=1")); err != nil {
		t.Fatal(err)
	}
	var dead string
	for _, id := range c.peers {
		if id != leader {
			dead = id
			break
		}
	}
	c.router.partition(dead)
	if err := c.nodes[leader].ProposeConfChange(ConfChange{Type: ConfRemoveNode, Addr: dead}); err != nil {
		t.Fatalf("remove %s: %v", dead, err)
	}
	for _, id := range c.peers {
		if id == dead {
			continue
		}
		waitPeers(t, c.nodes[id], 2)
	}
	if _, err := c.nodes[leader].Propose([]byte("b=2")); err != nil {
		t.Fatalf("propose after removal: %v", err)
	}
	// Removing again is a satisfied no-op.
	if err := c.nodes[leader].ProposeConfChange(ConfChange{Type: ConfRemoveNode, Addr: dead}); err != nil {
		t.Fatalf("idempotent remove: %v", err)
	}
}

// TestConfChangeAddNodeCatchesUp: a fresh member added via ConfChange is
// caught up by the leader and counts toward the quorum.
func TestConfChangeAddNodeCatchesUp(t *testing.T) {
	c := newCluster(t, 3, 0)
	leader := c.waitLeader()
	if _, err := c.nodes[leader].Propose([]byte("seed=1")); err != nil {
		t.Fatal(err)
	}
	newID := "n3"
	c.addNode(newID, append(append([]string(nil), c.peers...), newID))
	if err := c.nodes[leader].ProposeConfChange(ConfChange{Type: ConfAddNode, Addr: newID}); err != nil {
		t.Fatalf("add %s: %v", newID, err)
	}
	waitPeers(t, c.nodes[leader], 4)
	if _, err := c.nodes[leader].Propose([]byte("post=2")); err != nil {
		t.Fatal(err)
	}
	c.waitValue(newID, "seed", "1")
	c.waitValue(newID, "post", "2")
}

// TestRemovedNodeCannotWinElection: after removal, the deposed member's
// campaigns are ignored — the remaining configuration keeps its leader
// and the removed node never becomes leader of the group.
func TestRemovedNodeCannotWinElection(t *testing.T) {
	c := newCluster(t, 3, 0)
	leader := c.waitLeader()
	var removed string
	for _, id := range c.peers {
		if id != leader {
			removed = id
			break
		}
	}
	if err := c.nodes[leader].ProposeConfChange(ConfChange{Type: ConfRemoveNode, Addr: removed}); err != nil {
		t.Fatal(err)
	}
	waitPeers(t, c.nodes[leader], 2)
	// The removed node still has a live network path. Force campaigns: its
	// vote requests must be ignored by members, and membership gating must
	// keep it from ever winning.
	for i := 0; i < 5; i++ {
		c.nodes[removed].Campaign()
		time.Sleep(20 * time.Millisecond)
	}
	if c.nodes[removed].Status().Role == Leader {
		t.Fatal("removed node won an election")
	}
	st := c.nodes[leader].Status()
	if st.Role != Leader {
		t.Fatalf("leader %s deposed by removed node (role=%v)", leader, st.Role)
	}
	if _, err := c.nodes[leader].Propose([]byte("fence=1")); err != nil {
		t.Fatalf("propose after removed-node campaigns: %v", err)
	}
}

// TestConfChangeSerialized: a second membership change proposed while one
// is uncommitted fails with ErrConfChangePending.
func TestConfChangeSerialized(t *testing.T) {
	c := newCluster(t, 3, 0)
	leader := c.waitLeader()
	if _, err := c.nodes[leader].Propose([]byte("warm=1")); err != nil {
		t.Fatal(err)
	}
	// Cut both followers so the first change can append but not commit.
	for _, id := range c.peers {
		if id != leader {
			c.router.partition(id)
		}
	}
	first := make(chan error, 1)
	go func() {
		first <- c.nodes[leader].ProposeConfChange(ConfChange{Type: ConfAddNode, Addr: "nX"})
	}()
	// Wait until the conf entry is visibly pending on the leader.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && !c.nodes[leader].Status().ConfPending {
		time.Sleep(2 * time.Millisecond)
	}
	if !c.nodes[leader].Status().ConfPending {
		t.Fatal("first conf change never became pending")
	}
	err := c.nodes[leader].ProposeConfChange(ConfChange{Type: ConfAddNode, Addr: "nY"})
	if !errors.Is(err, ErrConfChangePending) {
		t.Fatalf("second conf change: %v, want ErrConfChangePending", err)
	}
	// Heal: the first change must now commit and apply everywhere.
	for _, id := range c.peers {
		c.router.heal(id)
	}
	if err := <-first; err != nil && !errors.Is(err, ErrTimeout) {
		t.Fatalf("first conf change: %v", err)
	}
	for _, id := range c.peers {
		waitPeers(t, c.nodes[id], 4)
	}
}

// TestConfChangeSurvivesLeaderKill: the leader dies right after appending
// a RemoveNode entry. Whatever the outcome of that in-flight entry, the
// survivors converge on one configuration and keep committing.
func TestConfChangeSurvivesLeaderKill(t *testing.T) {
	c := newCluster(t, 3, 0)
	leader := c.waitLeader()
	var target string
	for _, id := range c.peers {
		if id != leader {
			target = id
			break
		}
	}
	// Propose asynchronously and cut the leader as fast as possible.
	go func() {
		_ = c.nodes[leader].ProposeConfChange(ConfChange{Type: ConfRemoveNode, Addr: target})
	}()
	c.router.partition(leader)
	// Give the two followers time to elect among themselves (target may or
	// may not have received the conf entry - both outcomes must converge),
	// several election timeouts' worth, but do not require it: if the entry
	// committed before the cut, the configuration is {leader, the other
	// follower}, and with the leader cut nobody can win until it is back.
	survivorLeads := func() bool {
		for id, n := range c.nodes {
			if id != leader && n.IsLeader() {
				return true
			}
		}
		return false
	}
	for deadline := time.Now().Add(300 * time.Millisecond); !survivorLeads() && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
	}
	// The old leader comes back (its process was only cut mid-change); it
	// must rejoin as follower. Without it, removing target could leave a
	// single live member of a two-member configuration.
	c.router.heal(leader)
	// Drive the change to a known state through whoever leads NOW, resolved
	// afresh on every attempt: after the heal that can be any of the three,
	// target included (a leader may remove itself).
	var err error
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if err = c.nodes[c.waitLeader()].ProposeConfChange(ConfChange{Type: ConfRemoveNode, Addr: target}); err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("conf change never committed after the leader kill: %v", err)
	}
	// The final proposal goes to whoever leads the SURVIVORS: target, once
	// removed, leads nothing, and if it led until now they must elect first.
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		survivor := c.waitLeader()
		if survivor == target {
			continue
		}
		waitPeers(t, c.nodes[survivor], 2)
		if _, err = c.nodes[survivor].Propose([]byte("after=1")); err == nil {
			return
		}
	}
	t.Fatalf("propose after kill-during-confchange: %v", err)
}

// TestStaleTermSnapshotIsRefused: a follower whose term rose while it was
// cut off (it campaigned alone) answers the old leader's MsgSnap with a
// rejecting MsgAppResp carrying its own term, exactly as it answers a
// stale-term MsgApp - so the leader learns the term and the follower gets
// the snapshot it needs from whoever leads next. A dropped frame left it
// behind for good (TestLogCompactionAndSnapshotInstall's -race flake).
// Clock-free: ExternalClock with nobody ticking, a recording Sender.
func TestStaleTermSnapshotIsRefused(t *testing.T) {
	out := make(chan *Message, 16) // two campaigns x two votes + the answer, never blocks the event loop
	n, err := NewNode(Config{
		ID: "f", Peers: []string{"f", "l", "x"}, GroupID: 1, SM: newKVSM(),
		Sender: SenderFunc(func(m *Message) { out <- m }), ExternalClock: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	next := func() *Message {
		t.Helper()
		select {
		case m := <-out:
			return m
		case <-time.After(5 * time.Second):
			t.Fatal("node sent nothing")
			return nil
		}
	}
	for term := uint64(1); term <= 2; term++ {
		n.Campaign()
		for i := 0; i < 2; i++ {
			if m := next(); m.Type != MsgVote || m.Term != term {
				t.Fatalf("campaign %d sent %v at term %d", term, m.Type, m.Term)
			}
		}
	}
	n.Step(&Message{GroupID: 1, Type: MsgSnap, From: "l", To: "f", Term: 1, SnapIndex: 100, SnapTerm: 1, SnapData: []byte("x")})
	resp := next()
	st := n.Status()
	n.Stop() // the event loop has exited: nothing more can be sent
	if resp.Type != MsgAppResp || resp.To != "l" || resp.Success || resp.Term != 2 || resp.HintIndex != 1 {
		t.Fatalf("answer to the stale snapshot: %+v, want a rejecting MsgAppResp to l at term 2 hinting index 1", resp)
	}
	if len(out) != 0 {
		t.Fatalf("%d more messages after the one answer, first %+v", len(out), <-out)
	}
	if st.Applied != 0 || st.Term != 2 {
		t.Fatalf("stale snapshot moved the node: applied=%d term=%d", st.Applied, st.Term)
	}
}
