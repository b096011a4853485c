// Package raft implements the Raft consensus protocol (Ongaro &
// Ousterhout, USENIX ATC'14), which CFS uses for meta-partition
// replication, the overwrite path of data partitions, and the resource
// manager's own state (paper Sections 2, 2.1.2, 2.2.4).
//
// The implementation covers leader election with randomized timeouts, log
// replication with one append in flight per follower (each entry leaves
// once; the heartbeat tick retransmits), commitment, synchronous
// state-machine application, log compaction by snapshot, and snapshot
// installation for lagging followers.
// Each Node runs a single event-loop goroutine; messages move through a
// Sender, liveness heartbeats are the entry-free MsgHeartbeat /
// MsgHeartbeatResp pair, and the logical clock can be driven externally
// (Config.ExternalClock + Node.Tick). Package multiraft builds on those
// three seams to multiplex many groups over one stream per peer node and
// coalesce their heartbeats per node pair (the MultiRaft arrangement the
// paper adopts to reduce heartbeat traffic).
package raft

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cfs/internal/util"
)

// MsgType enumerates Raft messages.
type MsgType uint8

const (
	MsgVote MsgType = iota + 1
	MsgVoteResp
	MsgApp
	MsgAppResp
	MsgSnap
	MsgSnapResp
	// MsgHeartbeat is the leader's liveness-only beat: no log entries, just
	// Term and a commit index already known to be held by the follower. It
	// is separate from MsgApp so that package multiraft can coalesce the
	// beats of every group sharing a node pair into one wire message.
	MsgHeartbeat
	MsgHeartbeatResp
)

func (m MsgType) String() string {
	switch m {
	case MsgVote:
		return "Vote"
	case MsgVoteResp:
		return "VoteResp"
	case MsgApp:
		return "App"
	case MsgAppResp:
		return "AppResp"
	case MsgSnap:
		return "Snap"
	case MsgSnapResp:
		return "SnapResp"
	case MsgHeartbeat:
		return "Heartbeat"
	case MsgHeartbeatResp:
		return "HeartbeatResp"
	default:
		return "Msg(unknown)"
	}
}

// Entry is one replicated log record. Conf marks a membership-change
// entry: Data holds an encoded ConfChange instead of application bytes,
// and the entry is applied to the node's configuration (not the state
// machine) when it commits.
type Entry struct {
	Index uint64
	Term  uint64
	Data  []byte
	Conf  bool
}

// ConfChangeType enumerates single-server membership changes.
type ConfChangeType uint8

const (
	ConfAddNode ConfChangeType = iota + 1
	ConfRemoveNode
)

func (t ConfChangeType) String() string {
	switch t {
	case ConfAddNode:
		return "AddNode"
	case ConfRemoveNode:
		return "RemoveNode"
	default:
		return "ConfChange(unknown)"
	}
}

// ConfChange adds or removes exactly one member. Single-server changes
// keep the old and new configurations' majorities overlapping (Raft
// dissertation section 4.1), so no joint-consensus phase is needed; the
// node serializes them by refusing a new change while one is in flight.
type ConfChange struct {
	Type ConfChangeType
	Addr string
}

func encodeConfChange(cc ConfChange) []byte {
	return append([]byte{byte(cc.Type)}, cc.Addr...)
}

func decodeConfChange(data []byte) (ConfChange, error) {
	if len(data) < 2 {
		return ConfChange{}, fmt.Errorf("raft: %w: short conf change", util.ErrInvalidArgument)
	}
	return ConfChange{Type: ConfChangeType(data[0]), Addr: string(data[1:])}, nil
}

// Message is the single frame type exchanged between peers. Fields are a
// union across message types; GroupID routes it to the right Node when many
// groups share a transport.
type Message struct {
	GroupID uint64
	Type    MsgType
	From    string
	To      string
	Term    uint64

	// MsgVote / MsgVoteResp
	LastLogIndex uint64
	LastLogTerm  uint64
	Granted      bool

	// MsgApp / MsgAppResp
	PrevLogIndex uint64
	PrevLogTerm  uint64
	Entries      []Entry
	Commit       uint64
	Success      bool
	MatchIndex   uint64
	HintIndex    uint64 // follower's conflict hint for fast backoff

	// MsgSnap
	SnapIndex uint64
	SnapTerm  uint64
	SnapData  []byte
	// SnapPeers carries the sender's membership so a follower restored
	// from snapshot learns conf changes compacted out of the log. Conf
	// entries still in the shipped tail re-apply idempotently on top.
	SnapPeers []string
}

// Sender delivers messages to peers; delivery is best-effort and may drop
// or reorder (Raft tolerates both). Implementations must not block for
// long: the node event loop calls Send inline.
type Sender interface {
	Send(msg *Message)
}

// SenderFunc adapts a function to the Sender interface.
type SenderFunc func(msg *Message)

// Send implements Sender.
func (f SenderFunc) Send(msg *Message) { f(msg) }

// StateMachine is the replicated application. Apply is called exactly once
// per committed entry, in index order, from the node's event loop. The
// returned value completes the corresponding Propose on the leader.
type StateMachine interface {
	Apply(index uint64, data []byte) (any, error)
	// Snapshot serializes the full state at the current applied index.
	Snapshot() ([]byte, error)
	// Restore replaces state from a snapshot produced by Snapshot.
	Restore(data []byte) error
}

// LogObserver is an optional StateMachine extension. A follower calls
// Logged for every application entry an append brings into its log, in
// index order, from the node's event loop and before it acks the append:
// so by the time the leader can count this node toward a commit, the state
// machine knows an entry at index is coming. Logged entries may still be
// truncated and replaced; Node.Applied passing index is the only sign that
// whatever sits there now has been applied.
type LogObserver interface {
	Logged(index uint64, data []byte)
}

// Role is a node's current Raft role.
type Role int32

const (
	Follower Role = iota
	Candidate
	Leader
)

func (r Role) String() string {
	switch r {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	default:
		return "role(unknown)"
	}
}

// Errors returned by Propose and reads.
var (
	// ErrNotLeader reports the proposal was submitted to a non-leader;
	// use Status().Leader for a redirect hint.
	ErrNotLeader = util.ErrNotLeader
	// ErrStopped reports the node has been shut down.
	ErrStopped = errors.New("raft: node stopped")
	// ErrProposalDropped reports a proposal lost leadership before commit.
	ErrProposalDropped = errors.New("raft: proposal dropped")
	// ErrTimeout reports a proposal did not commit in time.
	ErrTimeout = util.ErrTimeout
	// ErrConfChangePending reports a membership change was refused because
	// an earlier one has not committed yet (one change at a time keeps
	// single-server majorities overlapping).
	ErrConfChangePending = errors.New("raft: conf change pending")
)

// Config configures a Node.
type Config struct {
	// ID is this member's address (unique within the group).
	ID string
	// Peers lists every member including ID. It is the INITIAL
	// configuration: committed ConfChange entries move membership after
	// that, and Status().Peers reports the live view.
	Peers []string
	// GroupID distinguishes groups multiplexed on one transport.
	GroupID uint64
	// Sender delivers outgoing messages.
	Sender Sender
	// SM is the replicated state machine.
	SM StateMachine

	// TickInterval is the logical clock period. Heartbeats fire every
	// HeartbeatTicks ticks; elections fire after a randomized timeout in
	// [ElectionTicks, 2*ElectionTicks). Zero values take defaults
	// (tick 10ms, heartbeat 2 ticks, election 10 ticks).
	TickInterval   time.Duration
	HeartbeatTicks int
	ElectionTicks  int

	// ExternalClock disables the node's own ticker; the owner advances the
	// logical clock by calling Tick. Package multiraft sets it so that every
	// group on a node shares one clock and heartbeats align for coalescing.
	ExternalClock bool

	// MaxLogEntries triggers compaction once the in-memory log grows past
	// it: applied entries are dropped but for a tail of MaxEntriesPerMsg,
	// and a follower that needs a dropped one is sent a snapshot. Zero
	// means 4096.
	MaxLogEntries int
	// MaxEntriesPerMsg bounds entries per AppendEntries. Zero means 64.
	MaxEntriesPerMsg int
	// ProposeTimeout bounds Propose. Zero means 5s.
	ProposeTimeout time.Duration
	// Seed randomizes election timeouts; zero derives from ID.
	Seed uint64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.TickInterval == 0 {
		out.TickInterval = 10 * time.Millisecond
	}
	if out.HeartbeatTicks == 0 {
		out.HeartbeatTicks = 2
	}
	if out.ElectionTicks == 0 {
		out.ElectionTicks = 10
	}
	if out.MaxLogEntries == 0 {
		out.MaxLogEntries = 4096
	}
	if out.MaxEntriesPerMsg == 0 {
		out.MaxEntriesPerMsg = 64
	}
	if out.ProposeTimeout == 0 {
		out.ProposeTimeout = 5 * time.Second
	}
	if out.Seed == 0 {
		var h uint64 = 1469598103934665603
		for i := 0; i < len(out.ID); i++ {
			h ^= uint64(out.ID[i])
			h *= 1099511628211
		}
		out.Seed = h | 1
	}
	return out
}

// Status is a point-in-time view of a node.
type Status struct {
	ID      string
	Role    Role
	Term    uint64
	Leader  string
	Commit  uint64
	Applied uint64
	// FirstIndex is the first log index still held (post-compaction).
	FirstIndex uint64
	LastIndex  uint64
	// Peers is the current configuration (initial Peers plus every
	// committed ConfChange).
	Peers []string
	// ConfPending reports an uncommitted ConfChange entry in the log.
	ConfPending bool
}

type proposal struct {
	data []byte
	conf *ConfChange
	resp chan proposeResult
}

type proposeResult struct {
	value any
	err   error
}

type pendingApply struct {
	term uint64
	resp chan proposeResult
}

// flight identifies an unanswered append: a success that reaches last
// answers it, and so does a rejection echoing prev (its PrevLogIndex).
type flight struct{ prev, last uint64 }

// Node is one Raft group member.
type Node struct {
	cfg  Config
	rand *util.Rand

	// leading mirrors role == Leader for readers outside the event loop;
	// setRole is its only writer while the loop runs.
	leading atomic.Bool
	// appliedPub mirrors applied for readers outside the event loop,
	// stored after the entries up to it have been applied.
	appliedPub atomic.Uint64
	// observer is cfg.SM's LogObserver side, nil if it has none.
	observer LogObserver

	// Event-loop state (owned by run goroutine).
	role Role
	term uint64
	// peers is the current configuration: cfg.Peers plus every committed
	// ConfChange. All quorum math and broadcasts use it, never cfg.Peers.
	peers       []string
	votedFor    string
	leader      string
	log         []Entry // log[0].Index == firstIndex
	firstIndex  uint64  // index of log[0]; snapshot covers < firstIndex
	snapTerm    uint64  // term at snapshot boundary (firstIndex-1)
	commitIndex uint64
	applied     uint64
	votes       map[string]bool
	nextIndex   map[string]uint64
	matchIndex  map[string]uint64
	pending     map[uint64]pendingApply // log index -> waiter
	elapsed     int                     // ticks since last reset
	timeoutIn   int                     // randomized election deadline in ticks
	hbElapsed   int

	// inflight is Raft's flow control: per follower, the one append (or
	// snapshot) it has not answered yet. While it is set, sendAppend sends
	// nothing to that follower, so each entry leaves once and everything
	// proposed meanwhile rides the next append.
	inflight map[string]flight

	recvq    chan *Message
	propq    chan proposal
	statusq  chan chan Status
	campq    chan struct{}
	tickq    chan struct{}
	stopOnce sync.Once
	stopc    chan struct{}
	donec    chan struct{}
	ticker   *time.Ticker // nil under ExternalClock
}

// NewNode starts a Raft node and its event loop.
func NewNode(cfg Config) (*Node, error) {
	c := cfg.withDefaults()
	if c.ID == "" || len(c.Peers) == 0 || c.Sender == nil || c.SM == nil {
		return nil, fmt.Errorf("raft: %w: ID, Peers, Sender and SM are required", util.ErrInvalidArgument)
	}
	found := false
	for _, p := range c.Peers {
		if p == c.ID {
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("raft: %w: ID %q not in Peers", util.ErrInvalidArgument, c.ID)
	}
	n := &Node{
		cfg:        c,
		rand:       util.NewRand(c.Seed),
		role:       Follower,
		peers:      append([]string(nil), c.Peers...),
		firstIndex: 1,
		votes:      make(map[string]bool),
		nextIndex:  make(map[string]uint64),
		matchIndex: make(map[string]uint64),
		inflight:   make(map[string]flight),
		pending:    make(map[uint64]pendingApply),
		recvq:      make(chan *Message, 1024),
		propq:      make(chan proposal, 256),
		statusq:    make(chan chan Status),
		campq:      make(chan struct{}, 1),
		tickq:      make(chan struct{}, 8),
		stopc:      make(chan struct{}),
		donec:      make(chan struct{}),
	}
	n.observer, _ = c.SM.(LogObserver)
	n.resetElectionTimer()
	if !c.ExternalClock {
		n.ticker = time.NewTicker(c.TickInterval)
	}
	go n.run()
	return n, nil
}

// Stop terminates the event loop. Outstanding proposals fail with
// ErrStopped. Stop is idempotent.
func (n *Node) Stop() {
	n.stopOnce.Do(func() { close(n.stopc) })
	<-n.donec
}

// Step hands a message received from the network to the node.
func (n *Node) Step(msg *Message) {
	select {
	case n.recvq <- msg:
	case <-n.stopc:
	default:
		// Queue full: drop. Raft retries via timeouts.
	}
}

// Campaign asks the node to start an election immediately (used by tests
// and by bootstrap to avoid waiting a full timeout).
func (n *Node) Campaign() {
	select {
	case n.campq <- struct{}{}:
	default:
	}
}

// Tick advances the logical clock by one tick under ExternalClock. It never
// blocks; if the event loop is saturated the tick is dropped, which only
// stretches timeouts (Raft tolerates a slow clock).
func (n *Node) Tick() {
	select {
	case n.tickq <- struct{}{}:
	case <-n.stopc:
	default:
	}
}

// Status returns a snapshot of node state.
func (n *Node) Status() Status {
	ch := make(chan Status, 1)
	select {
	case n.statusq <- ch:
		return <-ch
	case <-n.stopc:
		return Status{ID: n.cfg.ID}
	}
}

// IsLeader reports whether the node currently believes it is leader. It is
// one atomic load of what the event loop published at its last role change:
// a point-in-time view, as a Status snapshot is, that may be stale by the
// time the caller acts on it (propose re-checks inside the loop). A
// deposed leader cut off from the group keeps answering true until it
// hears the higher term. A stopped node is not leader.
func (n *Node) IsLeader() bool { return n.leading.Load() }

// Applied returns the index up to which every entry (application, empty
// or membership) has been applied or installed by snapshot: one atomic
// load, a point-in-time view like IsLeader.
func (n *Node) Applied() uint64 { return n.appliedPub.Load() }

// Propose replicates data and waits until it is committed and applied,
// returning the state machine's result. It fails fast with ErrNotLeader on
// non-leaders.
func (n *Node) Propose(data []byte) (any, error) {
	resp := make(chan proposeResult, 1)
	select {
	case n.propq <- proposal{data: data, resp: resp}:
	case <-n.stopc:
		return nil, ErrStopped
	}
	select {
	case r := <-resp:
		return r.value, r.err
	case <-time.After(n.cfg.ProposeTimeout):
		return nil, fmt.Errorf("raft: propose: %w", ErrTimeout)
	case <-n.stopc:
		return nil, ErrStopped
	}
}

// ProposeConfChange replicates a single-server membership change and waits
// until it commits and the configuration switches. A change that is
// already satisfied (adding a member, removing a non-member) returns nil
// immediately; a change proposed while another is uncommitted fails with
// ErrConfChangePending so callers serialize.
func (n *Node) ProposeConfChange(cc ConfChange) error {
	if cc.Addr == "" || (cc.Type != ConfAddNode && cc.Type != ConfRemoveNode) {
		return fmt.Errorf("raft: %w: bad conf change %v %q", util.ErrInvalidArgument, cc.Type, cc.Addr)
	}
	resp := make(chan proposeResult, 1)
	select {
	case n.propq <- proposal{conf: &cc, resp: resp}:
	case <-n.stopc:
		return ErrStopped
	}
	select {
	case r := <-resp:
		return r.err
	case <-time.After(n.cfg.ProposeTimeout):
		return fmt.Errorf("raft: propose conf change: %w", ErrTimeout)
	case <-n.stopc:
		return ErrStopped
	}
}

// run is the event loop; all protocol state is confined to it.
func (n *Node) run() {
	defer close(n.donec)
	var tickc <-chan time.Time
	if n.ticker != nil {
		tickc = n.ticker.C
		defer n.ticker.Stop()
	}
	for {
		select {
		case <-n.stopc:
			n.leading.Store(false)
			n.failAllPending(ErrStopped)
			return
		case <-tickc:
			n.tick()
		case <-n.tickq:
			n.tick()
		case msg := <-n.recvq:
			n.handle(msg)
		case p := <-n.propq:
			n.propose(p)
		case ch := <-n.statusq:
			ch <- n.status()
		case <-n.campq:
			n.startElection()
		}
	}
}

// setRole is the one place the role changes, so IsLeader can never miss a
// transition.
func (n *Node) setRole(r Role) {
	n.role = r
	n.leading.Store(r == Leader)
}

func (n *Node) status() Status {
	return Status{
		ID:          n.cfg.ID,
		Role:        n.role,
		Term:        n.term,
		Leader:      n.leader,
		Commit:      n.commitIndex,
		Applied:     n.applied,
		FirstIndex:  n.firstIndex,
		LastIndex:   n.lastIndex(),
		Peers:       append([]string(nil), n.peers...),
		ConfPending: n.hasPendingConf(),
	}
}

// isMember reports whether addr is in the current configuration.
func (n *Node) isMember(addr string) bool {
	for _, p := range n.peers {
		if p == addr {
			return true
		}
	}
	return false
}

// hasPendingConf reports an appended-but-uncommitted ConfChange entry.
func (n *Node) hasPendingConf() bool {
	from := n.commitIndex + 1
	if from < n.firstIndex {
		from = n.firstIndex
	}
	for idx := from; idx <= n.lastIndex(); idx++ {
		if n.log[idx-n.firstIndex].Conf {
			return true
		}
	}
	return false
}

func (n *Node) resetElectionTimer() {
	n.elapsed = 0
	n.timeoutIn = n.cfg.ElectionTicks + n.rand.Intn(n.cfg.ElectionTicks)
}

func (n *Node) tick() {
	if !n.isMember(n.cfg.ID) {
		// Removed from the configuration: stay silent. No elections (a
		// removed server must not disrupt or win one) and no heartbeats.
		return
	}
	if n.role == Leader {
		n.hbElapsed++
		if n.hbElapsed >= n.cfg.HeartbeatTicks {
			n.hbElapsed = 0
			n.broadcastHeartbeat()
		}
		return
	}
	n.elapsed++
	if n.elapsed >= n.timeoutIn {
		n.startElection()
	}
}

// broadcastHeartbeat sends the per-interval liveness signal. Up-to-date
// followers get an entry-free MsgHeartbeat (coalescible across groups by
// package multiraft); a follower that has not acked the last entry gets a
// real AppendEntries / snapshot instead. The tick is the retransmit timer:
// it reopens that follower's gate first, so a lost append or answer costs
// one heartbeat interval.
func (n *Node) broadcastHeartbeat() {
	for _, p := range n.peers {
		if p == n.cfg.ID {
			continue
		}
		if n.matchIndex[p] < n.lastIndex() {
			delete(n.inflight, p)
			n.sendAppend(p)
			continue
		}
		n.cfg.Sender.Send(&Message{
			GroupID: n.cfg.GroupID,
			Type:    MsgHeartbeat,
			From:    n.cfg.ID,
			To:      p,
			Term:    n.term,
			// Capped by the follower's acked match index: every index up
			// to it is known identical on both logs, so the follower may
			// commit it without a consistency check.
			Commit: util.MinU64(n.commitIndex, n.matchIndex[p]),
		})
	}
}

func (n *Node) handleHeartbeat(msg *Message) {
	if msg.Term < n.term {
		// Stale leader: answer with our term so it steps down.
		n.sendHeartbeatResp(msg.From)
		return
	}
	n.becomeFollowerKeepVote(msg.Term, msg.From)
	if msg.Commit > n.commitIndex {
		n.commitIndex = util.MinU64(msg.Commit, n.lastIndex())
		n.applyCommitted()
	}
	n.sendHeartbeatResp(msg.From)
}

func (n *Node) sendHeartbeatResp(to string) {
	n.cfg.Sender.Send(&Message{
		GroupID: n.cfg.GroupID,
		Type:    MsgHeartbeatResp,
		From:    n.cfg.ID,
		To:      to,
		Term:    n.term,
	})
}

func (n *Node) handleHeartbeatResp(msg *Message) {
	if msg.Term > n.term {
		n.becomeFollower(msg.Term, "")
		return
	}
	if n.role != Leader || msg.Term < n.term {
		return
	}
	// A follower that has acked less than our last entry needs a real
	// append; heartbeats alone never carry entries. If one is already in
	// flight, the gate makes this a no-op.
	if n.matchIndex[msg.From] < n.lastIndex() {
		n.sendAppend(msg.From)
	}
}

// ---------------------------------------------------------------------------
// Elections.

func (n *Node) startElection() {
	if !n.isMember(n.cfg.ID) {
		return // removed servers do not campaign
	}
	if len(n.peers) == 1 {
		// Single-member group: become leader immediately.
		n.term++
		n.becomeLeader()
		return
	}
	n.setRole(Candidate)
	n.term++
	n.votedFor = n.cfg.ID
	n.leader = ""
	n.votes = map[string]bool{n.cfg.ID: true}
	n.resetElectionTimer()
	for _, p := range n.peers {
		if p == n.cfg.ID {
			continue
		}
		n.cfg.Sender.Send(&Message{
			GroupID:      n.cfg.GroupID,
			Type:         MsgVote,
			From:         n.cfg.ID,
			To:           p,
			Term:         n.term,
			LastLogIndex: n.lastIndex(),
			LastLogTerm:  n.lastTerm(),
		})
	}
}

func (n *Node) becomeFollower(term uint64, leader string) {
	prev := n.role
	n.setRole(Follower)
	n.term = term
	n.leader = leader
	if prev == Leader || prev == Candidate {
		n.votedFor = ""
	}
	n.resetElectionTimer()
	if prev == Leader {
		n.failAllPending(ErrProposalDropped)
	}
}

func (n *Node) becomeLeader() {
	n.setRole(Leader)
	n.leader = n.cfg.ID
	n.hbElapsed = 0
	last := n.lastIndex()
	for _, p := range n.peers {
		n.nextIndex[p] = last + 1
		n.matchIndex[p] = 0
	}
	clear(n.inflight)
	n.matchIndex[n.cfg.ID] = last
	// Commit a no-op entry to establish commitment in the new term
	// (Raft section 5.4.2: a leader may only count replicas for entries
	// of its own term).
	n.appendLocal(nil)
	n.broadcastAppend()
	n.maybeCommit()
}

func (n *Node) handleVote(msg *Message) {
	if !n.isMember(msg.From) {
		// A server outside the committed configuration (removed, or added
		// but not yet committed here) must not win NOR disrupt elections:
		// ignore the request entirely so its inflated term cannot depose a
		// healthy leader (dissertation section 4.2.3).
		return
	}
	if msg.Term > n.term && n.leader != "" && n.elapsed < n.cfg.ElectionTicks {
		// Leader stickiness: we heard from a live leader within the
		// minimum election timeout, so this candidacy is either a removed
		// server that has not yet learned its removal or a network-flap
		// rejoin; granting (or even adopting the term) would churn a
		// healthy group during membership changes.
		return
	}
	granted := false
	if msg.Term >= n.term {
		if msg.Term > n.term {
			n.becomeFollower(msg.Term, "")
		}
		upToDate := msg.LastLogTerm > n.lastTerm() ||
			(msg.LastLogTerm == n.lastTerm() && msg.LastLogIndex >= n.lastIndex())
		if (n.votedFor == "" || n.votedFor == msg.From) && upToDate {
			granted = true
			n.votedFor = msg.From
			n.resetElectionTimer()
		}
	}
	n.cfg.Sender.Send(&Message{
		GroupID: n.cfg.GroupID,
		Type:    MsgVoteResp,
		From:    n.cfg.ID,
		To:      msg.From,
		Term:    n.term,
		Granted: granted,
	})
}

func (n *Node) handleVoteResp(msg *Message) {
	if n.role != Candidate || msg.Term != n.term {
		if msg.Term > n.term {
			n.becomeFollower(msg.Term, "")
		}
		return
	}
	if msg.Granted {
		n.votes[msg.From] = true
		if n.countVotes() > len(n.peers)/2 {
			n.becomeLeader()
		}
	}
}

func (n *Node) countVotes() int {
	c := 0
	for _, ok := range n.votes {
		if ok {
			c++
		}
	}
	return c
}

// ---------------------------------------------------------------------------
// Log access helpers. The log is log[], with log[0].Index == firstIndex;
// entries below firstIndex live only in the snapshot.

func (n *Node) lastIndex() uint64 {
	if len(n.log) == 0 {
		return n.firstIndex - 1
	}
	return n.log[len(n.log)-1].Index
}

func (n *Node) lastTerm() uint64 {
	if len(n.log) == 0 {
		return n.snapTerm
	}
	return n.log[len(n.log)-1].Term
}

// termAt returns the term of the entry at index, or (0,false) if the entry
// has been compacted away or does not exist.
func (n *Node) termAt(index uint64) (uint64, bool) {
	if index == n.firstIndex-1 {
		return n.snapTerm, true
	}
	if index < n.firstIndex || index > n.lastIndex() {
		return 0, false
	}
	return n.log[index-n.firstIndex].Term, true
}

func (n *Node) entriesFrom(index uint64, max int) []Entry {
	if index < n.firstIndex || index > n.lastIndex() {
		return nil
	}
	start := index - n.firstIndex
	end := uint64(len(n.log))
	if end-start > uint64(max) {
		end = start + uint64(max)
	}
	out := make([]Entry, end-start)
	copy(out, n.log[start:end])
	return out
}

func (n *Node) appendLocal(data []byte) uint64 {
	idx := n.lastIndex() + 1
	n.log = append(n.log, Entry{Index: idx, Term: n.term, Data: data})
	n.matchIndex[n.cfg.ID] = idx
	return idx
}

// ---------------------------------------------------------------------------
// Replication.

func (n *Node) propose(p proposal) {
	if n.role != Leader {
		p.resp <- proposeResult{err: fmt.Errorf("raft: %w (leader=%s)", ErrNotLeader, n.leader)}
		return
	}
	if p.conf != nil {
		n.proposeConfChange(p)
		return
	}
	idx := n.appendLocal(p.data)
	n.pending[idx] = pendingApply{term: n.term, resp: p.resp}
	n.broadcastAppend()
	n.maybeCommit() // single-node groups commit immediately
}

func (n *Node) proposeConfChange(p proposal) {
	cc := *p.conf
	member := n.isMember(cc.Addr)
	if (cc.Type == ConfAddNode && member) || (cc.Type == ConfRemoveNode && !member) {
		p.resp <- proposeResult{} // already satisfied
		return
	}
	if n.hasPendingConf() {
		p.resp <- proposeResult{err: ErrConfChangePending}
		return
	}
	idx := n.lastIndex() + 1
	n.log = append(n.log, Entry{Index: idx, Term: n.term, Data: encodeConfChange(cc), Conf: true})
	n.matchIndex[n.cfg.ID] = idx
	n.pending[idx] = pendingApply{term: n.term, resp: p.resp}
	n.broadcastAppend()
	n.maybeCommit()
}

// applyConfChange switches the configuration when the Conf entry at idx
// commits. It is idempotent: snapshot-restored membership plus a replayed
// tail may re-apply changes already reflected.
func (n *Node) applyConfChange(cc ConfChange, idx uint64) {
	switch cc.Type {
	case ConfAddNode:
		if n.isMember(cc.Addr) {
			return
		}
		n.peers = append(append([]string(nil), n.peers...), cc.Addr)
		if n.role == Leader {
			n.nextIndex[cc.Addr] = n.lastIndex() + 1
			n.matchIndex[cc.Addr] = 0
			delete(n.inflight, cc.Addr)
			n.sendAppend(cc.Addr) // start catching the new member up now
		}
	case ConfRemoveNode:
		if !n.isMember(cc.Addr) {
			return
		}
		out := make([]string, 0, len(n.peers)-1)
		for _, p := range n.peers {
			if p != cc.Addr {
				out = append(out, p)
			}
		}
		n.peers = out
		delete(n.votes, cc.Addr)
		delete(n.nextIndex, cc.Addr)
		delete(n.matchIndex, cc.Addr)
		delete(n.inflight, cc.Addr)
		if cc.Addr == n.cfg.ID {
			// We were removed. Step down and go silent; tick() and
			// startElection() check membership so we cannot campaign.
			// Later pending entries can no longer commit through us, but
			// the removal entry itself just succeeded - spare its waiter.
			if n.role == Leader {
				for pidx, w := range n.pending {
					if pidx == idx {
						continue
					}
					delete(n.pending, pidx)
					w.resp <- proposeResult{err: ErrProposalDropped}
				}
			}
			n.setRole(Follower)
			n.leader = ""
			return
		}
	}
}

func (n *Node) broadcastAppend() {
	for _, p := range n.peers {
		if p == n.cfg.ID {
			continue
		}
		n.sendAppend(p)
	}
}

// sendAppend sends the follower what it lacks from nextIndex on, unless an
// earlier append to it is still unanswered (see inflight).
func (n *Node) sendAppend(to string) {
	if _, out := n.inflight[to]; out {
		return
	}
	prev := n.nextIndex[to] - 1
	prevTerm, ok := n.termAt(prev)
	if !ok {
		// Follower needs entries we compacted: ship the snapshot.
		n.sendSnapshot(to)
		return
	}
	entries := n.entriesFrom(prev+1, n.cfg.MaxEntriesPerMsg)
	n.inflight[to] = flight{prev: prev, last: prev + uint64(len(entries))}
	n.cfg.Sender.Send(&Message{
		GroupID:      n.cfg.GroupID,
		Type:         MsgApp,
		From:         n.cfg.ID,
		To:           to,
		Term:         n.term,
		PrevLogIndex: prev,
		PrevLogTerm:  prevTerm,
		Entries:      entries,
		Commit:       n.commitIndex,
	})
}

func (n *Node) sendSnapshot(to string) {
	data, err := n.cfg.SM.Snapshot()
	if err != nil {
		return // retried on next heartbeat
	}
	// In flight like an append that ends at the snapshot's index.
	snapIndex := n.firstIndex - 1
	n.inflight[to] = flight{prev: snapIndex, last: snapIndex}
	n.cfg.Sender.Send(&Message{
		GroupID:   n.cfg.GroupID,
		Type:      MsgSnap,
		From:      n.cfg.ID,
		To:        to,
		Term:      n.term,
		SnapIndex: snapIndex,
		SnapTerm:  n.snapTerm,
		SnapData:  data,
		SnapPeers: append([]string(nil), n.peers...),
		Commit:    n.commitIndex,
	})
}

// handleApp answers every append. A rejection's MatchIndex echoes the
// rejected PrevLogIndex, so the leader can tell which append it answers.
func (n *Node) handleApp(msg *Message) {
	if msg.Term < n.term {
		n.sendAppResp(msg.From, false, msg.PrevLogIndex, n.lastIndex()+1)
		return
	}
	n.becomeFollowerKeepVote(msg.Term, msg.From)
	prevTerm, ok := n.termAt(msg.PrevLogIndex)
	if !ok || prevTerm != msg.PrevLogTerm {
		// Conflict: hint the leader to back off to our last plausible
		// index so it can catch us up (or snapshot us).
		hint := util.MinU64(msg.PrevLogIndex, n.lastIndex()+1)
		if hint < n.firstIndex {
			hint = n.firstIndex
		}
		n.sendAppResp(msg.From, false, msg.PrevLogIndex, hint)
		return
	}
	// Append entries, truncating any conflicting suffix.
	for _, e := range msg.Entries {
		if t, ok := n.termAt(e.Index); ok && t == e.Term {
			continue // already have it
		}
		if e.Index <= n.lastIndex() {
			// Conflict: drop our suffix from e.Index.
			if e.Index >= n.firstIndex {
				n.log = n.log[:e.Index-n.firstIndex]
			}
		}
		if e.Index == n.lastIndex()+1 {
			n.log = append(n.log, e)
		}
	}
	if n.observer != nil {
		for _, e := range msg.Entries {
			if !e.Conf && len(e.Data) > 0 {
				n.observer.Logged(e.Index, e.Data)
			}
		}
	}
	// Only the prefix this append verified is known to match the leader's
	// log; a longer local suffix may be a deposed leader's. Neither the ack
	// nor the commit index may reach past it (Raft Fig. 2).
	last := msg.PrevLogIndex + uint64(len(msg.Entries))
	if c := util.MinU64(msg.Commit, last); c > n.commitIndex {
		n.commitIndex = c
		n.applyCommitted()
	}
	n.sendAppResp(msg.From, true, last, 0)
}

// becomeFollowerKeepVote differs from becomeFollower by not clearing
// votedFor when the term is unchanged (the AppendEntries sender is simply
// the established leader).
func (n *Node) becomeFollowerKeepVote(term uint64, leader string) {
	if term > n.term {
		n.becomeFollower(term, leader)
		return
	}
	if n.role == Leader && leader != n.cfg.ID {
		// Same-term competing leader cannot happen in correct Raft;
		// treat defensively as term bump.
		n.becomeFollower(term, leader)
		return
	}
	n.setRole(Follower)
	n.leader = leader
	n.resetElectionTimer()
}

func (n *Node) sendAppResp(to string, success bool, match, hint uint64) {
	n.cfg.Sender.Send(&Message{
		GroupID:    n.cfg.GroupID,
		Type:       MsgAppResp,
		From:       n.cfg.ID,
		To:         to,
		Term:       n.term,
		Success:    success,
		MatchIndex: match,
		HintIndex:  hint,
	})
}

func (n *Node) handleAppResp(msg *Message) {
	if msg.Term > n.term {
		n.becomeFollower(msg.Term, "")
		return
	}
	if n.role != Leader || msg.Term < n.term {
		return
	}
	if msg.Success {
		if msg.MatchIndex > n.matchIndex[msg.From] {
			n.matchIndex[msg.From] = msg.MatchIndex
		}
		n.nextIndex[msg.From] = util.MaxU64(n.nextIndex[msg.From], msg.MatchIndex+1)
		if f, out := n.inflight[msg.From]; out && msg.MatchIndex >= f.last {
			delete(n.inflight, msg.From)
		}
		n.maybeCommit()
		if n.lastIndex() >= n.nextIndex[msg.From] {
			n.sendAppend(msg.From) // keep streaming backlog
		}
		return
	}
	// Rejected. Only a rejection of the append in flight counts: an older
	// one's hint is stale, and acting on it would send a duplicate.
	if f, out := n.inflight[msg.From]; !out || f.prev != msg.MatchIndex {
		return
	}
	delete(n.inflight, msg.From)
	n.nextIndex[msg.From] = util.MaxU64(msg.HintIndex, 1)
	n.sendAppend(msg.From)
}

func (n *Node) maybeCommit() {
	if n.role != Leader {
		return
	}
	for idx := n.lastIndex(); idx > n.commitIndex; idx-- {
		t, ok := n.termAt(idx)
		if !ok || t != n.term {
			break // only commit entries from the current term by counting
		}
		votes := 0
		for _, p := range n.peers {
			if n.matchIndex[p] >= idx {
				votes++
			}
		}
		if votes > len(n.peers)/2 {
			n.commitIndex = idx
			n.applyCommitted()
			break
		}
	}
}

func (n *Node) applyCommitted() {
	confChanged := false
	for n.applied < n.commitIndex {
		idx := n.applied + 1
		if idx < n.firstIndex {
			// Should not happen: applied always >= firstIndex-1.
			n.applied = n.firstIndex - 1
			continue
		}
		e := n.log[idx-n.firstIndex]
		var result any
		var err error
		switch {
		case e.Conf:
			// Membership entries reconfigure the node, not the SM.
			if cc, derr := decodeConfChange(e.Data); derr == nil {
				n.applyConfChange(cc, idx)
				confChanged = true
			}
		case len(e.Data) > 0:
			result, err = n.cfg.SM.Apply(e.Index, e.Data)
		}
		n.applied = idx
		if w, ok := n.pending[idx]; ok {
			delete(n.pending, idx)
			if w.term == e.Term {
				w.resp <- proposeResult{value: result, err: err}
			} else {
				w.resp <- proposeResult{err: ErrProposalDropped}
			}
		}
	}
	n.appliedPub.Store(n.applied)
	n.maybeCompact()
	if confChanged && n.role == Leader {
		// A shrunk quorum may make entries waiting on the removed
		// member's ack committable. Safe to recurse here: applied has
		// caught up to commitIndex, so the loop above re-runs only for
		// newly committed entries.
		n.maybeCommit()
	}
}

// maybeCompact drops applied entries once the log outgrows MaxLogEntries.
// It only drops: the state machine is serialized when a follower needs a
// snapshot (sendSnapshot), never here, so compacting a large partition
// costs the event loop nothing. The last MaxEntriesPerMsg entries below
// applied stay, so a follower one append behind is sent that append, not
// the whole state. On the leader, nothing a live follower still lacks is
// dropped either (compactFloor), and a cut is made only once it frees at
// least half of MaxLogEntries, so a log held at the floor is not copied
// again on every commit.
func (n *Node) maybeCompact() {
	if len(n.log) <= n.cfg.MaxLogEntries {
		return
	}
	keep := uint64(n.cfg.MaxEntriesPerMsg)
	if n.applied <= keep {
		return
	}
	keepFrom := n.applied - keep
	if n.role == Leader {
		keepFrom = min(keepFrom, n.compactFloor())
	}
	if keepFrom <= n.firstIndex+uint64(n.cfg.MaxLogEntries/2) {
		return
	}
	term, _ := n.termAt(keepFrom - 1) // held: firstIndex-1 < keepFrom-1 < applied
	n.log = append([]Entry(nil), n.log[keepFrom-n.firstIndex:]...)
	n.firstIndex = keepFrom
	n.snapTerm = term
}

// compactFloor is the first index the leader's log must keep: the next
// entry of the follower furthest behind, which is then sent an append
// rather than the whole state. A follower more than 2*MaxLogEntries behind
// the last index (dead, or cut off) no longer holds the floor, so it
// cannot pin the log; it gets a snapshot when it answers again.
func (n *Node) compactFloor() uint64 {
	floor := n.lastIndex() + 1
	for _, p := range n.peers {
		if p != n.cfg.ID {
			floor = min(floor, n.matchIndex[p]+1)
		}
	}
	if span := 2 * uint64(n.cfg.MaxLogEntries); n.lastIndex() > span {
		floor = max(floor, n.lastIndex()-span)
	}
	return floor
}

func (n *Node) handleSnap(msg *Message) {
	if msg.Term < n.term {
		// Refuse with this node's term, as handleApp does: a follower whose
		// term rose while it was cut off would otherwise never get the
		// snapshot it needs, and the leader would never learn the term.
		n.sendAppResp(msg.From, false, 0, n.lastIndex()+1)
		return
	}
	n.becomeFollowerKeepVote(msg.Term, msg.From)
	if msg.SnapIndex <= n.applied {
		// Stale snapshot; ack what is applied. It is committed, so it
		// matches the leader's log, and it covers the snapshot's index. An
		// unverified suffix past it must not be counted, as in handleApp.
		n.sendAppResp(msg.From, true, n.applied, 0)
		return
	}
	if err := n.cfg.SM.Restore(msg.SnapData); err != nil {
		return
	}
	n.log = nil
	n.firstIndex = msg.SnapIndex + 1
	n.snapTerm = msg.SnapTerm
	n.applied = msg.SnapIndex
	n.appliedPub.Store(n.applied)
	n.commitIndex = util.MaxU64(n.commitIndex, msg.SnapIndex)
	if len(msg.SnapPeers) > 0 {
		// Adopt the sender's membership: conf entries below the snapshot
		// boundary are compacted away and can only arrive this way.
		n.peers = append([]string(nil), msg.SnapPeers...)
	}
	n.sendAppResp(msg.From, true, msg.SnapIndex, 0)
}

func (n *Node) handle(msg *Message) {
	if n.answerFromOutside(msg) {
		return
	}
	switch msg.Type {
	case MsgVote:
		n.handleVote(msg)
	case MsgVoteResp:
		n.handleVoteResp(msg)
	case MsgApp:
		n.handleApp(msg)
	case MsgAppResp:
		n.handleAppResp(msg)
	case MsgSnap:
		n.handleSnap(msg)
	case MsgHeartbeat:
		n.handleHeartbeat(msg)
	case MsgHeartbeatResp:
		n.handleHeartbeatResp(msg)
	}
}

// answerFromOutside reports an answer from a server removed from the
// configuration while the request was out. It counts for nothing, and
// acting on it would resume replication to that server, whose raised term
// could then depose a healthy leader.
func (n *Node) answerFromOutside(msg *Message) bool {
	switch msg.Type {
	case MsgVoteResp, MsgAppResp, MsgHeartbeatResp:
		return !n.isMember(msg.From)
	}
	return false
}

func (n *Node) failAllPending(err error) {
	for idx, w := range n.pending {
		delete(n.pending, idx)
		w.resp <- proposeResult{err: err}
	}
}
