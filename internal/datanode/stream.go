package datanode

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cfs/internal/proto"
	"cfs/internal/transport"
	"cfs/internal/util"
)

// This file implements the pipelined side of the Figure 4 sequential-write
// protocol - a replication session - and the receive loop it shares with
// the read session (serveStream).
//
// A client opens one OpDataWriteStream per (client, partition leader) and
// multiplexes every extent it writes there - creates, appends, and
// small-file writes ride the same pinned stream. The leader appends packet
// N locally and forwards it to every follower over pinned per-follower
// packet streams while N-1's acks are still in flight. Acks return to the
// client strictly in sequence order, each one meaning "this packet is
// stored on EVERY replica", so the all-replica committed offset
// (Section 2.2.5) advances exactly as the window drains.
//
// Error containment follows the protocol's commit rule:
//
//   - A payload CRC mismatch or a local apply error fails only that
//     sequence: the packet is never forwarded, its error ack is delivered
//     in order, and later packets are unaffected.
//   - A follower failure (transport error, replication reject, or an ack
//     deadline expiring) aborts the session: every packet at or after the
//     first unacked sequence is reported uncommitted with
//     ResultErrAborted, because the all-replica guarantee can no longer be
//     met for any of them.
//
// The leader is a client of its followers here: each forward chain - the
// pinned stream to one follower - is a session of the engine the client
// rides (transport.Session). A hop registers in the chain's FIFO when it
// is written, so the follower's in-order ack is matched at the FIFO head
// and credited to its window entry; the engine's reply deadline converts a
// follower that stops acking without closing (the TCP half-open case)
// into the abort path above instead of wedging the window, and its
// keepalives - hop-marked, so a follower never takes them for a client -
// notice a dead follower before the next write blocks on it. A chain
// never retires itself when idle: its failure is reported to the master.
// Both stream servers run one receive loop (serveStream), whose idle timer
// closes a session once its client has gone silent past the idle timeout,
// so half-open clients cannot leak sessions. Committed offsets are
// gossiped to followers - piggybacked on every forward hop and broadcast
// with OpDataCommitted when the window drains - so followers enforce the
// Section 2.2.5 read clamp themselves.

// handleStream accepts data-path packet streams (wired by Start when the
// transport supports them) and dispatches on the dialed op: replication
// write sessions and read sessions ride separate streams so a large scan
// can never head-of-line-block write acks.
func (d *DataNode) handleStream(op uint8, cs transport.PacketStream) {
	switch proto.Op(op) {
	case proto.OpDataWriteStream:
		(&writeSession{d: d, cs: cs}).run()
	case proto.OpDataReadStream:
		newReadSession(d, cs).run()
	default:
		// Unknown stream service; transport closes the stream.
	}
}

// serveStream is the one receive loop of both stream servers: it hands
// each frame to handle, then drops the receive side's reference to it
// (handle has applied the payload, and anything that keeps it took its
// own reference), until the stream fails. Its idle timer closes the stream
// once the client has sent nothing for the idle timeout; each frame
// received restarts it. Silence alone is the signal - a live client pings
// at least every keepalive interval, even while its window waits on
// replies - so gating it on an empty window would be self-defeating: a
// client that dies mid-window blocks the server's reply send, the one
// thing that empties the window. Closing the stream ends this loop, which
// tears the session down, and unblocks a send wedged against a half-open
// client.
func (d *DataNode) serveStream(cs transport.PacketStream, handle func(*proto.Packet)) {
	idle := time.AfterFunc(d.idleTimeout, func() { cs.Close() })
	defer idle.Stop()
	for {
		pkt, err := cs.Recv()
		if err != nil {
			return
		}
		idle.Reset(d.idleTimeout)
		handle(pkt)
		pkt.Release()
	}
}

// repEntry is one in-flight packet of a replication session's window.
type repEntry struct {
	seq      uint64
	op       proto.Op
	extentID uint64
	offset   uint64 // extent offset assigned by the leader's local apply
	length   uint64
	acks     atomic.Int32 // follower acks credited so far
	code     uint8        // proto.ResultOK until an error claims the entry
	msg      string
}

// Reply implements transport.Request for the entry's hop on one forward
// chain: an OK ack credits the follower, a refusal fails the chain - and
// through its Failed hook the session. It runs under the chain's engine
// mutex, so the commit it may enable runs later, from the chain's Replied
// hook (commitReady can block on the client's stream).
func (e *repEntry) Reply(ack *proto.Packet) (bool, error) {
	if err := hopRefusal(ack); err != nil {
		return true, err
	}
	e.acks.Add(1)
	return true, nil
}

// Abort implements transport.Request: a chain that dies aborts the whole
// window through followerFailed, so one entry has nothing to add.
func (e *repEntry) Abort(error) {}

// gossipReq is the request a committed-offset broadcast rides down a
// chain: nothing waits for its ack, but a refusal fails the chain like a
// refused hop.
type gossipReq struct{}

func (gossipReq) Reply(ack *proto.Packet) (bool, error) { return true, hopRefusal(ack) }
func (gossipReq) Abort(error)                           {}

// hopRefusal is what a follower's ack says about the chain: nil for OK,
// else the error that fails it. A stale-epoch refusal means the follower
// holds a newer replica epoch - this leader is the stale party, not the
// follower (followerFailed reports nobody for it).
func hopRefusal(ack *proto.Packet) error {
	switch ack.ResultCode {
	case proto.ResultOK:
		return nil
	case proto.ResultErrStaleEpoch:
		return fmt.Errorf("replication refused: %s: %w", ack.Data, util.ErrStaleEpoch)
	default:
		return fmt.Errorf("replication rejected: %s", ack.Data)
	}
}

// chain is the leader's forward path to one follower: an engine session
// and the sender that feeds it. out is buffered so the fan-out to the
// followers runs in parallel; a full out blocks the receive loop, which
// is follower backpressure. It holds 64 hops, four full client write
// windows (util.DefaultWriteWindow, 16), so only a follower that falls
// behind blocks the leader.
type chain struct {
	addr string
	sess *transport.Session
	out  chan hop
}

// hop is one frame for a chain's sender: a data hop with its window
// entry, or a committed broadcast.
type hop struct {
	req transport.Request
	pkt *proto.Packet
}

type writeSession struct {
	d  *DataNode
	cs transport.PacketStream

	// sendMu serializes client-bound acks AND pins their order: a holder
	// pops committed entries and sends their acks before releasing, so two
	// concurrent ack sources cannot interleave out of sequence. Lock order
	// is always sendMu before mu.
	sendMu sync.Mutex

	mu         sync.Mutex
	p          *Partition // bound by the first leader packet
	pending    []*repEntry
	chains     []*chain
	failed     bool
	failMsg    string
	closed     bool // client went away; suppress failure escalation
	chainsOpen bool
	counted    bool // session holds a liveSessions slot on s.p
	wg         sync.WaitGroup
}

// run serves the client's frames until it closes its end, the transport
// fails, or the idle timer declares the client dead, then tears the
// session down.
func (s *writeSession) run() {
	s.d.serveStream(s.cs, s.handle)
	s.mu.Lock()
	s.closed = true
	chains := s.chains
	s.chains = nil
	s.mu.Unlock()
	s.releaseSlot()
	for _, c := range chains {
		close(c.out) // recv loop is done; commitReady sees closed
		c.sess.Close("write session closed", util.ErrClosed)
	}
	s.wg.Wait()
	for _, c := range chains {
		<-c.sess.Done()
	}
	s.cs.Close()
}

// releaseSlot gives back the partition's liveSessions slot exactly once;
// an aborted session is inert (its window is flushed, nothing commits
// through it anymore), so it stops counting before the client goes away.
func (s *writeSession) releaseSlot() {
	s.mu.Lock()
	p, counted := s.p, s.counted
	s.counted = false
	s.mu.Unlock()
	if counted && p != nil {
		p.sessionEnd()
	}
}

func (s *writeSession) handle(pkt *proto.Packet) {
	p := s.d.Partition(pkt.PartitionID)
	if p == nil {
		s.reject(pkt, proto.ResultErrArg, fmt.Sprintf("unknown partition %d", pkt.PartitionID))
		return
	}
	if pkt.ResultCode == resultHopFollower {
		s.followerPacket(p, pkt)
		return
	}
	s.leaderPacket(p, pkt)
}

// followerPacket applies one forwarded hop and acks it immediately; the
// receive loop is single-threaded, so acks leave in arrival order.
func (s *writeSession) followerPacket(p *Partition, pkt *proto.Packet) {
	switch pkt.Op {
	case proto.OpDataPing:
		// Keepalive: prove the replication loop (not just the kernel) is
		// alive. No apply, no offset movement.
	case proto.OpDataTruncate:
		// Alignment truncation travels the Call path only (AlignReplicas);
		// a hop-stamped truncate arriving on a stream is a forgery, and
		// unlike the other hops it is destructive - mirror the Call path's
		// client-op rejection instead of applying it.
		s.reject(pkt, proto.ResultErrArg, "truncate is not a stream op")
		return
	case proto.OpDataAppend:
		if !pkt.VerifyCRC() {
			s.reject(pkt, proto.ResultErrCRC, "payload crc mismatch")
			return
		}
		fallthrough
	default:
		// Appends, creates, truncates, and committed-offset gossip all
		// apply through applyFollowerHop so the replication apply rules
		// (including the stale-epoch fence) exist once.
		if err := p.applyFollowerHop(pkt); err != nil {
			s.reject(pkt, hopErrCode(err), err.Error())
			return
		}
	}
	ack := &proto.Packet{
		Op:           pkt.Op,
		ResultCode:   proto.ResultOK,
		ReqID:        pkt.ReqID,
		PartitionID:  pkt.PartitionID,
		ExtentID:     pkt.ExtentID,
		ExtentOffset: pkt.ExtentOffset,
	}
	s.sendMu.Lock()
	_ = s.cs.Send(ack)
	s.sendMu.Unlock()
}

func (s *writeSession) leaderPacket(p *Partition, pkt *proto.Packet) {
	// Epoch fence on the session handshake and every later frame: a client
	// whose cached view predates (or outruns) a reconfiguration is told to
	// refresh retriably before any byte lands. Pings are exempt - they are
	// advisory and epoch-free.
	if pkt.Op != proto.OpDataPing {
		if err := p.checkClientEpoch(pkt); err != nil {
			s.mu.Lock()
			unbound := s.p == nil
			s.mu.Unlock()
			if unbound {
				s.reject(pkt, proto.ResultErrStaleEpoch, err.Error())
			} else {
				// Ordered rejection, like every post-bind error: the ack
				// must not overtake pending window entries.
				s.enqueueError(pkt, proto.ResultErrStaleEpoch, err.Error())
			}
			return
		}
	}
	s.mu.Lock()
	if s.p == nil {
		if !p.sessionStart() { // slot released on abort/teardown (releaseSlot)
			s.mu.Unlock()
			// A recovery pass holds the partition quiesced; stay unbound
			// so the session can bind once it finishes.
			s.reject(pkt, proto.ResultErrAgain, fmt.Sprintf("partition %d recovering; retry", p.ID))
			return
		}
		s.p = p
		s.counted = true
	}
	bound := s.p
	failed, msg := s.failed, s.failMsg
	s.mu.Unlock()
	if bound != p {
		// Ordered rejection: an out-of-band ack racing ahead of pending
		// window entries would look like an ordering violation to the
		// client and poison its writer with the wrong error.
		s.enqueueError(pkt, proto.ResultErrArg, "session is bound to another partition")
		return
	}
	if failed {
		// Same ordering rule: followerFailed flagged every pending entry
		// (same critical section that set failed), so appending here and
		// flushing keeps this rejection strictly after the window flush.
		s.enqueueError(pkt, proto.ResultErrAborted, "session aborted: "+msg)
		return
	}
	if pkt.Op == proto.OpDataPing {
		// Client keepalive: decided on arrival, acked in window order (so
		// a ping behind a hung window stays unanswered - exactly the
		// signal the client's own deadline needs).
		s.enqueueDecided(&repEntry{seq: pkt.ReqID, op: proto.OpDataPing})
		return
	}
	if !p.isLeader() {
		s.enqueueError(pkt, proto.ResultErrNotLeader, "not primary")
		return
	}
	if !s.chainsOpen { // only the receive loop opens chains; no lock needed
		s.chainsOpen = true
		if !s.openChains(p) {
			s.enqueueError(pkt, proto.ResultErrAborted, "session aborted: cannot reach followers")
			return
		}
	}

	e := &repEntry{seq: pkt.ReqID, op: pkt.Op}
	var fwd *proto.Packet
	switch pkt.Op {
	case proto.OpDataCreateExtent:
		if err := p.checkWritable(); err != nil {
			s.enqueueError(pkt, proto.ResultErrIO, err.Error())
			return
		}
		id := p.store.NextID()
		if err := p.store.Create(id); err != nil {
			s.enqueueError(pkt, proto.ResultErrIO, err.Error())
			return
		}
		e.extentID = id
		fwd = createHopPacket(p.ID, pkt.ReqID, id, p.Epoch())
	case proto.OpDataAppend:
		if !pkt.VerifyCRC() {
			// Reject just this frame; the stream and later packets are
			// unaffected (the ack still flows in order).
			s.enqueueError(pkt, proto.ResultErrCRC, "payload crc mismatch")
			return
		}
		if err := p.checkWritable(); err != nil {
			s.enqueueError(pkt, proto.ResultErrIO, err.Error())
			return
		}
		var off uint64
		var err error
		extentID := pkt.ExtentID
		small := extentID == 0
		// VerifyCRC above already scanned the payload; hand the verified
		// checksum to the store so it folds it into the extent CRC by
		// combination instead of re-scanning (CRC once per chunk per node).
		if small {
			extentID, off, err = p.store.AppendSmallFileSum(pkt.Data, pkt.CRC)
		} else {
			off, err = p.store.AppendSum(extentID, pkt.Data, pkt.CRC)
		}
		if err != nil {
			s.enqueueError(pkt, proto.ResultErrIO, err.Error())
			return
		}
		e.extentID, e.offset, e.length = extentID, off, uint64(len(pkt.Data))
		fwd = appendHopPacket(p.ID, pkt, extentID, off, small, p.committedOf(extentID), p.Epoch())
	default:
		s.enqueueError(pkt, proto.ResultErrArg, fmt.Sprintf("op %s not allowed on a write stream", pkt.Op))
		return
	}

	s.mu.Lock()
	if s.failed {
		// The session aborted while this packet was being applied; its
		// local bytes are an unserved stale tail. Fail it in order -
		// nobody is left to ack it otherwise.
		e.code = proto.ResultErrAborted
		e.msg = "session aborted: " + s.failMsg
		s.pending = append(s.pending, e)
		s.mu.Unlock()
		fwd.Release() // never forwarded
		s.commitReady()
		return
	}
	s.pending = append(s.pending, e)
	chains := s.chains
	s.mu.Unlock()
	if len(chains) == 0 {
		fwd.Release()   // nobody to forward to
		s.commitReady() // single-replica partition commits immediately
		return
	}
	// The payload fans out to every chain and each chain's Send consumes a
	// reference, so it needs len(chains) references in total; SharePool
	// granted one at build time. Each chain stamps its own sequence, so
	// every chain but the first gets its own copy of the header, taken
	// before the first chain's sender may touch fwd.
	fwd.Retain(int32(len(chains) - 1))
	for _, c := range chains[1:] {
		cp := *fwd
		c.out <- hop{e, &cp} // buffered; blocking here is follower backpressure
	}
	chains[0].out <- hop{e, fwd}
}

// openChains dials one engine session per follower and starts its
// sender. Returns false (session aborted) if any follower is unreachable.
func (s *writeSession) openChains(p *Partition) bool {
	var chains []*chain
	for _, addr := range p.followers() {
		sess, err := transport.DialSession(s.d.nw, addr, uint8(proto.OpDataWriteStream), s.d.ackDeadline, s.d.keepalive, transport.SessionUser{
			Name: "forward chain",
			// Hop-marked: an unmarked ping would reach the follower's
			// client path and bind a liveSessions slot there, which makes
			// a recovery pass on it answer busy.
			Ping:    proto.Packet{Op: proto.OpDataPing, ResultCode: resultHopFollower, PartitionID: p.ID},
			Replied: s.commitReady,
			Failed:  func(err error) { s.followerFailed(addr, err) },
		})
		if err != nil {
			// Report first: closing the chains already open then finds the
			// session failed, so their hooks accuse nobody.
			s.followerFailed(addr, err)
			for _, c := range chains {
				c.sess.Close("write session aborted", util.ErrClosed)
			}
			return false
		}
		chains = append(chains, &chain{addr: addr, sess: sess, out: make(chan hop, 64)})
	}
	s.mu.Lock()
	s.chains = chains
	s.mu.Unlock()
	for _, c := range chains {
		s.wg.Add(1)
		go s.runSender(c)
	}
	return true
}

// runSender writes a chain's hops in the order the receive loop queued
// them. A data hop that cannot be written aborts the session. A committed
// broadcast is advisory: its failed write decides nothing on its own
// timing - the next data hop meets the chain's sticky error and aborts
// deterministically. A failed chain refuses (and releases) every later
// hop at once, so the receive loop never blocks on a dead chain's buffer.
func (s *writeSession) runSender(c *chain) {
	defer s.wg.Done()
	for h := range c.out {
		err := c.sess.Send(h.req, h.pkt)
		if _, gossip := h.req.(gossipReq); err != nil && !gossip {
			s.followerFailed(c.addr, err)
		}
	}
}

// entryDecided reports whether an entry's fate no longer depends on more
// follower acks: error-claimed, a keepalive, or all-replica acked.
func (s *writeSession) entryDecided(e *repEntry) bool {
	return e.code != proto.ResultOK || e.op == proto.OpDataPing || int(e.acks.Load()) >= len(s.chains)
}

// commitReady pops every leading entry whose fate is decided - all-replica
// acked (commit) or error-claimed (reject) - advances the committed offset
// for commits, and sends the acks in sequence order. When the window
// drains it broadcasts the freshly advanced committed offsets down the
// chains so followers can serve the tail they just stored (Section 2.2.5
// enforced follower-side).
func (s *writeSession) commitReady() {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	var acked []*proto.Packet
	var advanced map[uint64]struct{} // lazily allocated: most acks commit nothing
	for len(s.pending) > 0 {
		e := s.pending[0]
		if !s.entryDecided(e) {
			break
		}
		s.pending = s.pending[1:]
		if e.code == proto.ResultOK && e.op == proto.OpDataAppend {
			s.p.advanceCommitted(e.extentID, e.offset+e.length)
			if advanced == nil {
				advanced = make(map[uint64]struct{})
			}
			advanced[e.extentID] = struct{}{}
		}
		acked = append(acked, ackForEntry(s.p.ID, e))
	}
	if len(s.pending) == 0 && !s.failed {
		// Queued under mu, which run() holds to mark the session closed
		// before it closes the chains' out channels.
		for ext := range advanced {
			g := committedHopPacket(s.p.ID, ext, s.p.committedOf(ext), s.p.Epoch(), s.p.ovwAppliedOf(ext))
			for _, c := range s.chains {
				cp := *g // each chain stamps its own sequence on the frame
				select { // best-effort: a full buffer means traffic is
				case c.out <- hop{gossipReq{}, &cp}: // flowing and piggybacks
				default: // will carry it anyway
				}
			}
		}
	}
	p := s.p
	s.mu.Unlock()
	if len(advanced) > 0 {
		// Leader-side committed-snapshot cadence: persist (debounced) as
		// the window drains, so a leader kill -9 loses at most the
		// debounce window instead of everything since the last Recover.
		p.saveCommittedSoon()
	}
	for _, a := range acked {
		_ = s.cs.Send(a)
	}
}

func ackForEntry(partitionID uint64, e *repEntry) *proto.Packet {
	if e.code != proto.ResultOK {
		return &proto.Packet{
			Op:          e.op,
			ResultCode:  e.code,
			ReqID:       e.seq,
			PartitionID: partitionID,
			ExtentID:    e.extentID,
			Data:        []byte(e.msg),
		}
	}
	return &proto.Packet{
		Op:           e.op,
		ResultCode:   proto.ResultOK,
		ReqID:        e.seq,
		PartitionID:  partitionID,
		ExtentID:     e.extentID,
		ExtentOffset: e.offset,
	}
}

// committedHopPacket builds the leader -> follower frame gossiping an
// extent's all-replica committed offset plus the leader's overwrite version
// for the extent (rides the otherwise-unused FileOffset slot, so the frame
// format is unchanged).
func committedHopPacket(partitionID, extentID, committed, epoch, ovwVer uint64) *proto.Packet {
	return &proto.Packet{
		Op:          proto.OpDataCommitted,
		ResultCode:  resultHopFollower,
		PartitionID: partitionID,
		ExtentID:    extentID,
		Committed:   committed,
		Epoch:       epoch,
		FileOffset:  ovwVer,
	}
}

// followerFailed aborts the session: the failure is reported to the
// master, and every undecided window entry is rejected with
// ResultErrAborted (their bytes may sit on some replicas as stale tails,
// which recovery realigns; they are never served because the committed
// offset did not advance). A cause wrapping util.ErrStaleEpoch - the
// follower refused this leader's epoch - aborts the same way but reports
// nobody, since the follower is healthy and the partition has moved on;
// the entries carry ResultErrStaleEpoch so the client refreshes its view.
func (s *writeSession) followerFailed(addr string, cause error) {
	stale := errors.Is(cause, util.ErrStaleEpoch)
	code := proto.ResultErrAborted
	if stale {
		code = proto.ResultErrStaleEpoch
	}
	s.mu.Lock()
	if s.failed || s.closed {
		s.mu.Unlock()
		return
	}
	s.failed = true
	s.failMsg = fmt.Sprintf("replication to %s failed: %v", addr, cause)
	for _, e := range s.pending {
		if e.code == proto.ResultOK && e.op != proto.OpDataPing {
			e.code = code
			e.msg = s.failMsg
		}
	}
	p := s.p
	chains := s.chains
	s.mu.Unlock()
	// Fail every chain NOW: a sender wedged inside Send on a half-open
	// follower only unblocks when its stream dies, and until it drains its
	// buffer the single-threaded receive loop can be stuck on `c.out <-` -
	// the teardown in run() would never be reached. The channels still
	// belong to run(); senders just see every later Send refused.
	for _, c := range chains {
		c.sess.Close("write session aborted", util.ErrClosed)
	}
	s.releaseSlot()
	if p != nil && !stale {
		p.reportFailure(addr)
	}
	s.commitReady() // flush the whole window as ordered error acks
}

// enqueueError fails one sequence without touching the rest of the window:
// the entry takes its place in the ack order and carries the error.
func (s *writeSession) enqueueError(pkt *proto.Packet, code uint8, msg string) {
	s.enqueueDecided(&repEntry{seq: pkt.ReqID, op: pkt.Op, extentID: pkt.ExtentID, code: code, msg: msg})
}

// enqueueDecided appends an already-decided entry (an error, or a ping) to
// the window so its ack flows in sequence order.
func (s *writeSession) enqueueDecided(e *repEntry) {
	s.mu.Lock()
	s.pending = append(s.pending, e)
	s.mu.Unlock()
	s.commitReady()
}

// reject acks a packet outside the window bookkeeping (pre-bind errors and
// post-abort traffic).
func (s *writeSession) reject(pkt *proto.Packet, code uint8, msg string) {
	ack := &proto.Packet{
		Op:          pkt.Op,
		ResultCode:  code,
		ReqID:       pkt.ReqID,
		PartitionID: pkt.PartitionID,
		ExtentID:    pkt.ExtentID,
		Data:        []byte(msg),
	}
	s.sendMu.Lock()
	_ = s.cs.Send(ack)
	s.sendMu.Unlock()
}
