// Package multiraft is the per-node MultiRaft manager (paper Section
// 2.1.2): one object owns every Raft group hosted by a node, drives them
// all from a single logical clock, multiplexes their messages over one
// reused transport stream per peer node, and coalesces heartbeats across
// groups so that idle Raft traffic grows with the number of peer NODES,
// not the number of GROUPS.
//
// A production CFS node hosts hundreds of meta and data partitions, each
// its own Raft group. With independent groups, every leader exchanges its
// own heartbeats and the per-node message rate is O(groups) - the failure
// mode the paper's MultiRaft adoption is designed around. The manager
// fixes this in three layers:
//
//  1. Clock: groups are created with raft.Config.ExternalClock and are
//     advanced by the manager's single ticker, so every group's heartbeat
//     schedule is phase-locked to the manager's.
//  2. Coalescing: leaders emit entry-free raft.MsgHeartbeat frames; the
//     manager intercepts them (and the MsgHeartbeatResp replies) into
//     per-destination slots and, once per heartbeat interval, sends ONE
//     Batch per peer carrying every group's beat. The receiver expands the
//     batch back into per-group messages.
//  3. Streams: each peer gets one pinned, one-way transport stream
//     (re-dialed lazily on failure) shared by all groups, so Raft load does
//     not churn the connection pool used by the data path. A Batch encodes
//     itself (codec.go), so it is one frame with nothing sent back.
//
// Every non-heartbeat message travels the same per-peer lane and is
// sendable at once: it wakes the peer's sender and leaves batched with
// whatever else accumulated while the previous batch was on the wire. No
// clock paces it. Package raft's own flow control (one append in flight
// per follower) is what keeps the lane short, so the sender's natural
// batching is the group commit (DESIGN.md Section 6.2). Only the coalesced
// heartbeat slots wait, for the heartbeat tick. The heartbeat-scaling
// effect is measured by BenchmarkMultiRaft_HeartbeatScaling
// (EXPERIMENTS.md).
package multiraft

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cfs/internal/proto"
	"cfs/internal/raft"
	"cfs/internal/transport"
	"cfs/internal/util"
)

// Batch is the single wire frame exchanged between MultiRaft managers: the
// multiplexed non-heartbeat messages of every group plus the coalesced
// heartbeat slots, all for one (from node, to node) pair. It encodes itself
// (codec.go), so it crosses as one frame of its own layout.
type Batch struct {
	From      string
	Messages  []*raft.Message
	Beats     []proto.RaftHeartbeat
	BeatResps []proto.RaftHeartbeatResp
}

// Config tunes a Manager.
type Config struct {
	// TickInterval is the shared logical clock period driving every group
	// and, every HeartbeatTicks ticks, the coalesced heartbeats. Zero falls
	// back to RaftDefaults.TickInterval, then 10ms.
	TickInterval time.Duration
	// RaftDefaults are applied to every group created through the manager
	// (ID, Peers, GroupID, Sender, SM and ExternalClock are always
	// overridden).
	RaftDefaults raft.Config
}

// Stats are the manager's monotonic traffic counters. The heartbeat pair
// (batches sent vs group-level beats carried) is the MultiRaft win: the
// first scales with peer nodes, the second with groups.
type Stats struct {
	// Ticks of the shared logical clock so far.
	Ticks uint64
	// HeartbeatBatches is the number of wire messages that carried
	// coalesced heartbeat traffic (at most one per peer per interval).
	HeartbeatBatches uint64
	// HeartbeatsCoalesced is the number of group-level beats and responses
	// those batches carried - what would have been individual wire
	// messages without MultiRaft.
	HeartbeatsCoalesced uint64
	// Messages is the number of non-heartbeat Raft messages sent.
	Messages uint64
	// Batches is the total number of wire batches sent.
	Batches uint64
}

// Manager owns the Raft groups hosted by one node.
type Manager struct {
	addr string
	nw   transport.StreamNetwork
	cfg  Config
	hbEv int // manager ticks per heartbeat flush

	mu        sync.Mutex
	groups    map[uint64]*Group
	groupList []*Group // cached snapshot for the tick loop; nil when stale
	peers     map[string]*peer
	closed    bool

	ticks       atomic.Uint64
	hbBatches   atomic.Uint64
	hbCoalesced atomic.Uint64
	msgsSent    atomic.Uint64
	batchesSent atomic.Uint64

	wg    sync.WaitGroup
	stopc chan struct{}
}

// maxPending caps each class of message a peer's lane holds (messages,
// heartbeat slots, heartbeat response slots). It is safety code for a hung
// peer, whose lane never drains: Raft's gate lets each group queue one
// retransmitted append per heartbeat tick for it, so without a cap the
// lane would grow for as long as the peer hangs. A message past the cap is
// dropped, newest first; Raft retransmits on its heartbeat tick.
const maxPending = 2048

// peer is one destination's delivery lane: pending state under one small
// lock, drained by a dedicated sender goroutine over the pinned stream.
// Producers (every raft event loop, the heartbeat clock) only append and
// post a non-blocking wake, so none of them ever blocks on a slow or hung
// peer - and one bad peer cannot stall heartbeats to the healthy ones.
type peer struct {
	st transport.Stream
	// wake holds at most one token: whatever becomes sendable posts one,
	// and the sender takes everything sendable per token, so a token posted
	// while a batch is on the wire is never lost and a second is redundant.
	wake chan struct{}

	mu sync.Mutex
	// due is sendable now: every non-heartbeat message, and the heartbeat
	// slots the last heartbeat tick released.
	due Batch
	// Held for the heartbeat tick: the coalesced heartbeat slots.
	beats     []proto.RaftHeartbeat
	beatResps []proto.RaftHeartbeatResp
}

func (p *peer) wakeSender() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// releaseBeats runs on the heartbeat tick: it moves the heartbeat slots
// into due and wakes the sender if there are any. Slots are taken here, at
// the tick, not when the sender runs - a beat queued a moment after the
// tick waits for the next one, which is what keeps heartbeat wire traffic
// at one batch per pair per interval.
func (p *peer) releaseBeats() {
	p.mu.Lock()
	p.due.Beats = append(p.due.Beats, p.beats...)
	p.due.BeatResps = append(p.due.BeatResps, p.beatResps...)
	p.beats, p.beatResps = nil, nil
	sendable := len(p.due.Beats)+len(p.due.BeatResps) > 0
	p.mu.Unlock()
	if sendable {
		p.wakeSender()
	}
}

// take builds the next wire batch from everything sendable. Nil when
// nothing is.
func (p *peer) take(from string) *Batch {
	p.mu.Lock()
	defer p.mu.Unlock()
	b := p.due
	p.due = Batch{}
	b.From = from
	if len(b.Messages)+len(b.Beats)+len(b.BeatResps) == 0 {
		return nil
	}
	return &b
}

// New creates the manager for the node at addr. nw must pin per-peer
// streams (transport.StreamNetwork; every fabric in this module does). The
// owning node must route incoming proto.OpRaftMessage requests to Handler.
func New(addr string, nw transport.Network, cfg Config) *Manager {
	sn, ok := nw.(transport.StreamNetwork)
	if !ok {
		panic(fmt.Sprintf("multiraft: network %T has no per-peer streams", nw))
	}
	if cfg.TickInterval == 0 {
		cfg.TickInterval = cfg.RaftDefaults.TickInterval
	}
	if cfg.TickInterval == 0 {
		cfg.TickInterval = 10 * time.Millisecond
	}
	m := &Manager{
		addr:   addr,
		nw:     sn,
		cfg:    cfg,
		hbEv:   cfg.RaftDefaults.HeartbeatTicks,
		groups: make(map[uint64]*Group),
		peers:  make(map[string]*peer),
		stopc:  make(chan struct{}),
	}
	if m.hbEv <= 0 {
		m.hbEv = 2 // raft's default HeartbeatTicks
	}
	m.wg.Add(1)
	go m.tickLoop()
	return m
}

// Addr returns the node address the manager sends from.
func (m *Manager) Addr() string { return m.addr }

// Stats returns a snapshot of the traffic counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Ticks:               m.ticks.Load(),
		HeartbeatBatches:    m.hbBatches.Load(),
		HeartbeatsCoalesced: m.hbCoalesced.Load(),
		Messages:            m.msgsSent.Load(),
		Batches:             m.batchesSent.Load(),
	}
}

// ---------------------------------------------------------------------------
// Group registry.

// Group is the per-group handle the manager hands out: the consumer-facing
// surface of one Raft group whose clock, transport and heartbeats are owned
// by the manager.
type Group struct {
	id   uint64
	mgr  *Manager
	node *raft.Node
	// converging single-flights convergeTo.
	converging atomic.Bool
}

// ID returns the group id.
func (g *Group) ID() uint64 { return g.id }

// Propose replicates data through the group and returns the state
// machine's apply result (leader only).
func (g *Group) Propose(data []byte) (any, error) { return g.node.Propose(data) }

// IsLeader reports whether this node currently leads the group: one atomic
// load, never a round trip through the group's event loop.
func (g *Group) IsLeader() bool { return g.node.IsLeader() }

// Applied returns the index this member has applied through: one atomic
// load, like IsLeader.
func (g *Group) Applied() uint64 { return g.node.Applied() }

// Status returns a snapshot of the group member's Raft state.
func (g *Group) Status() raft.Status { return g.node.Status() }

// Campaign asks the member to start an election immediately.
func (g *Group) Campaign() { g.node.Campaign() }

// ProposeConfChange replicates a single-server membership change through
// the group (leader only) and waits for it to commit and apply. Changes
// are serialized: a second change while one is in flight fails with
// raft.ErrConfChangePending.
func (g *Group) ProposeConfChange(cc raft.ConfChange) error { return g.node.ProposeConfChange(cc) }

// Members returns the group's current committed configuration as seen by
// this member (initial peers plus applied ConfChanges).
func (g *Group) Members() []string { return g.node.Status().Peers }

// Stop removes the group from the manager and halts its member.
func (g *Group) Stop() { g.mgr.RemoveGroup(g.id) }

// CreateGroup starts a Raft group with this node as member ID m.Addr().
func (m *Manager) CreateGroup(groupID uint64, peers []string, sm raft.StateMachine) (*Group, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, util.ErrClosed
	}
	if _, ok := m.groups[groupID]; ok {
		return nil, fmt.Errorf("multiraft: group %d: %w", groupID, util.ErrExist)
	}
	cfg := m.cfg.RaftDefaults
	cfg.ID = m.addr
	cfg.Peers = peers
	cfg.GroupID = groupID
	cfg.Sender = raft.SenderFunc(m.send)
	cfg.SM = sm
	cfg.ExternalClock = true
	cfg.TickInterval = m.cfg.TickInterval
	node, err := raft.NewNode(cfg)
	if err != nil {
		return nil, err
	}
	g := &Group{id: groupID, mgr: m, node: node}
	m.groups[groupID] = g
	m.groupList = nil
	return g, nil
}

// Group returns the handle for groupID, or nil.
func (m *Manager) Group(groupID uint64) *Group {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.groups[groupID]
}

// RemoveGroup stops and forgets a group.
func (m *Manager) RemoveGroup(groupID uint64) {
	m.mu.Lock()
	g := m.groups[groupID]
	delete(m.groups, groupID)
	m.groupList = nil
	m.mu.Unlock()
	if g != nil {
		g.node.Stop()
	}
}

// GroupCount returns the number of hosted groups.
func (m *Manager) GroupCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.groups)
}

// Close stops the clock, every stream, and every group.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	groups := make([]*Group, 0, len(m.groups))
	for _, g := range m.groups {
		groups = append(groups, g)
	}
	m.groups = map[uint64]*Group{}
	m.groupList = nil
	peers := make([]*peer, 0, len(m.peers))
	for _, p := range m.peers {
		peers = append(peers, p)
	}
	m.mu.Unlock()
	close(m.stopc)
	// Groups stop before the wait: a Reconcile loop blocked in a proposal
	// against a lost quorum returns ErrStopped at once instead of after
	// ProposeTimeout. The clock may still tick a stopped group; Tick and
	// Step on a stopped node return without blocking.
	for _, g := range groups {
		g.node.Stop()
	}
	m.wg.Wait() // the clock, every peer sender and every Reconcile loop have exited
	for _, p := range peers {
		p.st.Close()
	}
}

// ---------------------------------------------------------------------------
// Outgoing path.

// send is the Sender for every group. One rule routes a message: heartbeat
// traffic parks in the coalescing slots until the heartbeat tick; every
// other message leaves at once. It only appends and wakes - a raft event
// loop never blocks here.
func (m *Manager) send(msg *raft.Message) {
	p := m.peer(msg.To)
	if p == nil {
		return // closed
	}
	wake := false
	p.mu.Lock()
	switch msg.Type {
	case raft.MsgHeartbeat:
		if len(p.beats)+len(p.due.Beats) < maxPending {
			p.beats = append(p.beats, proto.RaftHeartbeat{
				GroupID: msg.GroupID, Term: msg.Term, Commit: msg.Commit,
			})
		}
	case raft.MsgHeartbeatResp:
		if len(p.beatResps)+len(p.due.BeatResps) < maxPending {
			p.beatResps = append(p.beatResps, proto.RaftHeartbeatResp{
				GroupID: msg.GroupID, Term: msg.Term,
			})
		}
	default:
		if len(p.due.Messages) < maxPending {
			p.due.Messages = append(p.due.Messages, msg)
			wake = true
		}
	}
	p.mu.Unlock()
	if wake {
		p.wakeSender()
	}
}

// peer returns dest's lane, starting its sender (with its pinned stream) on
// first use; nil once the manager is closed.
func (m *Manager) peer(dest string) *peer {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	p := m.peers[dest]
	if p == nil {
		p = &peer{st: m.nw.OpenStream(dest), wake: make(chan struct{}, 1)}
		m.peers[dest] = p
		m.wg.Add(1)
		go m.peerLoop(p)
	}
	return p
}

// releaseBeats runs on the heartbeat tick: see peer.releaseBeats.
func (m *Manager) releaseBeats() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range m.peers {
		p.releaseBeats()
	}
}

// tickLoop is the single logical clock: every group ticks together, and
// every HeartbeatTicks ticks the accumulated beats are released as one
// batch per peer. Releasing on the clock (rather than per group) is what
// makes the wire count per pair exactly one per interval even when group
// heartbeat phases differ.
func (m *Manager) tickLoop() {
	defer m.wg.Done()
	t := time.NewTicker(m.cfg.TickInterval)
	defer t.Stop()
	for {
		select {
		case <-m.stopc:
			return
		case <-t.C:
			tick := m.ticks.Add(1)
			m.mu.Lock()
			if m.groupList == nil {
				m.groupList = make([]*Group, 0, len(m.groups))
				for _, g := range m.groups {
					m.groupList = append(m.groupList, g)
				}
			}
			groups := m.groupList
			m.mu.Unlock()
			for _, g := range groups {
				g.node.Tick()
			}
			if tick%uint64(m.hbEv) == 0 {
				m.releaseBeats()
			}
		}
	}
}

// peerLoop is one destination's sender: it serializes sends (preserving
// per-peer ordering) and is the only goroutine that ever blocks on this
// peer's network I/O. Whatever accumulated while one batch was on the wire
// leaves as the next. Delivery is best-effort and one-way by contract:
// nothing comes back on the stream, and Raft tolerates loss and retries via
// timeouts.
func (m *Manager) peerLoop(p *peer) {
	defer m.wg.Done()
	for {
		select {
		case <-m.stopc:
			return
		case <-p.wake:
		}
		b := p.take(m.addr)
		if b == nil {
			continue
		}
		m.batchesSent.Add(1)
		m.msgsSent.Add(uint64(len(b.Messages)))
		if hb := len(b.Beats) + len(b.BeatResps); hb > 0 {
			m.hbBatches.Add(1)
			m.hbCoalesced.Add(uint64(hb))
		}
		_ = p.st.Send(uint8(proto.OpRaftMessage), b)
	}
}

// ---------------------------------------------------------------------------
// Incoming path.

// Handler returns the transport.Handler for proto.OpRaftMessage, usable
// directly by nodes that host nothing else on the address. The body is a
// batch's wire bytes (transport.Raw). Nothing is answered: the lane is
// one-way.
func (m *Manager) Handler() transport.Handler { return m.handle }

func (m *Manager) handle(op uint8, req any) (any, error) {
	body, ok := req.(transport.Raw)
	if !ok {
		return nil, fmt.Errorf("multiraft: %w: body %T", util.ErrInvalidArgument, req)
	}
	b, err := decodeBatch(body, m.addr)
	if err != nil {
		return nil, err
	}
	m.handleBatch(b)
	return nil, nil
}

// handleBatch expands an incoming batch back into per-group messages and
// steps them into the right members.
func (m *Manager) handleBatch(b *Batch) {
	for _, hb := range b.Beats {
		if g := m.Group(hb.GroupID); g != nil {
			g.node.Step(&raft.Message{
				GroupID: hb.GroupID,
				Type:    raft.MsgHeartbeat,
				From:    b.From,
				To:      m.addr,
				Term:    hb.Term,
				Commit:  hb.Commit,
			})
		}
	}
	for _, hr := range b.BeatResps {
		if g := m.Group(hr.GroupID); g != nil {
			g.node.Step(&raft.Message{
				GroupID: hr.GroupID,
				Type:    raft.MsgHeartbeatResp,
				From:    b.From,
				To:      m.addr,
				Term:    hr.Term,
			})
		}
	}
	for _, msg := range b.Messages {
		if g := m.Group(msg.GroupID); g != nil {
			g.node.Step(msg)
		}
	}
}
