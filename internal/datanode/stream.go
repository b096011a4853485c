package datanode

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"cfs/internal/proto"
	"cfs/internal/transport"
	"cfs/internal/util"
)

// This file implements the pipelined side of the Figure 4 sequential-write
// protocol: a replication session.
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
// Liveness is first-class, not an afterthought: a per-session watchdog
// enforces an ack deadline on every forward chain (a follower that stops
// acking without closing - the TCP half-open case - trips the deadline and
// converts into the abort path above instead of wedging the window), sends
// OpDataPing keepalives down idle chains so a dead follower is noticed
// before the next write blocks on it, and closes sessions whose client has
// gone silent past the idle timeout so half-open clients cannot leak
// sessions. Committed offsets are gossiped to followers - piggybacked on
// every forward hop and broadcast with OpDataCommitted when the window
// drains - so followers enforce the Section 2.2.5 read clamp themselves.

// handleStream accepts data-path packet streams (wired by Start when the
// transport supports them) and dispatches on the dialed op: replication
// write sessions and read sessions ride separate streams so a large scan
// can never head-of-line-block write acks.
func (d *DataNode) handleStream(op uint8, cs transport.PacketStream) {
	switch proto.Op(op) {
	case proto.OpDataWriteStream:
		newWriteSession(d, cs).run()
	case proto.OpDataReadStream:
		newReadSession(d, cs).run()
	default:
		// Unknown stream service; transport closes the stream.
	}
}

// repEntry is one in-flight packet of a replication session's window.
type repEntry struct {
	seq      uint64
	op       proto.Op
	extentID uint64
	offset   uint64 // extent offset assigned by the leader's local apply
	length   uint64
	acks     int   // follower acks collected so far
	code     uint8 // proto.ResultOK until an error claims the entry
	msg      string
}

// ctrlSeqBase keeps leader-originated control frames (pings, committed
// broadcasts) out of the client's sequence space; clients count up from 1.
const ctrlSeqBase = uint64(1) << 62

// fwdChain is the pinned stream from the leader to one follower.
type fwdChain struct {
	addr string
	st   transport.PacketStream
	out  chan *proto.Packet // data hops, forwarded by the receive loop
	ctrl chan *proto.Packet // pings + committed broadcasts, best-effort
	// inFlight holds the window entries awaiting this follower's ack.
	// Data hops are registered by the receive loop before they enter out;
	// control frames are registered by the sender at write time, so the
	// two orders can interleave - acks are matched by sequence, not
	// position. Guarded by the session mutex, like the two timestamps.
	inFlight []*repEntry
	lastSend time.Time // last frame handed to this chain
	lastAck  time.Time // last ack received, or the empty->busy transition
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
	fwds       []*fwdChain
	nf         int // follower count, pinned when the chains open
	failed     bool
	failMsg    string
	closed     bool // client went away; suppress failure escalation
	chainsOpen bool
	counted    bool // session holds a liveSessions slot on s.p
	ctrlSeq    uint64
	lastClient time.Time // last frame received from the client
	stopc      chan struct{}
	wg         sync.WaitGroup
}

func newWriteSession(d *DataNode, cs transport.PacketStream) *writeSession {
	return &writeSession{d: d, cs: cs, lastClient: time.Now(), stopc: make(chan struct{})}
}

// run is the session's receive loop; it returns when the client closes its
// end, the transport fails, or the watchdog declares the client dead.
func (s *writeSession) run() {
	s.wg.Add(1)
	go s.runWatchdog()
	for {
		pkt, err := s.cs.Recv()
		if err != nil {
			break
		}
		s.mu.Lock()
		s.lastClient = time.Now()
		s.mu.Unlock()
		s.handle(pkt)
		// The session's reference: handle applied the payload (and any
		// forward hop took its own references), so the receive side is
		// done with the buffer.
		pkt.Release()
	}
	close(s.stopc)
	s.mu.Lock()
	s.closed = true
	chains := s.fwds
	s.fwds = nil
	s.mu.Unlock()
	s.releaseSlot()
	for _, c := range chains {
		close(c.out) // recv loop is done; nobody else sends on out
		c.st.Close()
	}
	s.wg.Wait()
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

// runWatchdog is the session's liveness loop: it trips the per-chain ack
// deadline, keeps idle chains warm with pings, and closes the session when
// the client itself goes silent.
func (s *writeSession) runWatchdog() {
	defer s.wg.Done()
	tick := s.d.keepalive / 2
	if d := s.d.ackDeadline / 4; d < tick {
		tick = d
	}
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.stopc:
			return
		case <-t.C:
		}
		now := time.Now()
		var hung string
		clientDead := false
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		if !s.failed {
			for _, c := range s.fwds {
				if len(c.inFlight) > 0 {
					if now.Sub(c.lastAck) > s.d.ackDeadline {
						hung = c.addr
						break
					}
				} else if now.Sub(c.lastSend) > s.d.keepalive {
					// Idle chain: queue a keepalive. The sender stamps the
					// sequence and registers the entry when it writes the
					// frame; a full ctrl buffer just skips this round.
					select {
					case c.ctrl <- &proto.Packet{
						Op:          proto.OpDataPing,
						ResultCode:  resultHopFollower,
						PartitionID: s.p.ID,
					}:
						c.lastSend = now
					default:
					}
				}
			}
		}
		// Silence alone is the signal: a live client pings at least every
		// keepalive interval even while its window is waiting on acks, so
		// a frame gap of idleTimeout means the client is gone. Gating this
		// on an empty window would be self-defeating - a client that dies
		// mid-window blocks commitReady on the ack send, which is the one
		// thing that empties the window.
		if now.Sub(s.lastClient) > s.d.idleTimeout {
			clientDead = true
		}
		s.mu.Unlock()
		if hung != "" {
			// Abort from a spawned goroutine: the flush inside
			// followerFailed sends error acks to the client, which can
			// block indefinitely if the CLIENT is also hung - and this
			// watchdog is the only goroutine that can then reap the
			// client (cs.Close below), which is what unblocks that send.
			// Duplicate spawns are no-ops (followerFailed is sticky).
			cause := fmt.Errorf("no ack within %v (half-open replica)", s.d.ackDeadline)
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.followerFailed(hung, cause)
			}()
		}
		if clientDead {
			// Closing our end unblocks the receive loop, which tears the
			// session down; a live client would have pinged by now.
			s.cs.Close()
			return
		}
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
	chains := s.fwds
	now := time.Now()
	for _, c := range chains {
		if len(c.inFlight) == 0 {
			c.lastAck = now // deadline clock starts at empty->busy
		}
		c.inFlight = append(c.inFlight, e)
		c.lastSend = now
	}
	s.mu.Unlock()
	if len(chains) == 0 {
		fwd.Release()   // nobody to forward to
		s.commitReady() // single-replica partition commits immediately
		return
	}
	// One fwd object fans out to every chain and each chain's Send
	// consumes a reference, so the payload needs len(chains) references
	// in total; SharePool granted one at build time.
	fwd.Retain(int32(len(chains) - 1))
	for _, c := range chains {
		c.out <- fwd // buffered; blocking here is follower backpressure
	}
}

// openChains dials the per-follower forward streams and starts their
// sender/ack-collector goroutine pairs. Returns false (session aborted) if
// any follower is unreachable.
func (s *writeSession) openChains(p *Partition) bool {
	snw, ok := s.d.nw.(transport.PacketStreamNetwork)
	var chains []*fwdChain
	for _, addr := range p.followers() {
		if !ok {
			s.followerFailed(addr, fmt.Errorf("transport has no packet streams"))
			return false
		}
		st, err := snw.DialStream(addr, uint8(proto.OpDataWriteStream))
		if err != nil {
			for _, c := range chains {
				close(c.out)
				c.st.Close()
			}
			s.followerFailed(addr, err)
			return false
		}
		now := time.Now()
		chains = append(chains, &fwdChain{
			addr: addr, st: st,
			out:      make(chan *proto.Packet, 64),
			ctrl:     make(chan *proto.Packet, 8),
			lastSend: now, lastAck: now,
		})
	}
	s.mu.Lock()
	s.fwds = chains
	s.nf = len(chains)
	s.mu.Unlock()
	for _, c := range chains {
		s.wg.Add(2)
		go s.runSender(c)
		go s.runAckReader(c)
	}
	return true
}

func (s *writeSession) runSender(c *fwdChain) {
	defer s.wg.Done()
	for {
		var pkt *proto.Packet
		ctrl := false
		select {
		case p, ok := <-c.out:
			if !ok {
				return // session torn down
			}
			pkt = p
		case pkt = <-c.ctrl:
			// Control frames get their sequence and window entry here, at
			// write time, so only this goroutine orders the wire.
			ctrl = true
			s.mu.Lock()
			if s.failed || s.closed {
				s.mu.Unlock()
				continue
			}
			s.ctrlSeq++
			pkt.ReqID = ctrlSeqBase + s.ctrlSeq
			if len(c.inFlight) == 0 {
				c.lastAck = time.Now()
			}
			c.inFlight = append(c.inFlight, &repEntry{seq: pkt.ReqID, op: pkt.Op})
			s.mu.Unlock()
		}
		if err := c.st.Send(pkt); err != nil {
			if ctrl {
				// Control frames are advisory: a failed ping or gossip
				// frame must not decide the session's fate on its own
				// timing (the next DATA frame hits the same transport
				// error and aborts deterministically, and a half-open
				// follower is the ack deadline's job - a ping that DID
				// send but never acks sits in inFlight and trips it).
				// Deregister the entry so the deadline doesn't count a
				// frame that never left.
				s.mu.Lock()
				for i, e := range c.inFlight {
					if e.seq == pkt.ReqID {
						c.inFlight = append(c.inFlight[:i], c.inFlight[i+1:]...)
						break
					}
				}
				s.mu.Unlock()
				continue
			}
			s.followerFailed(c.addr, err)
			// Keep draining so the receive loop never blocks on a dead
			// chain's buffer; the session is already aborted. Each queued
			// frame still holds the reference this chain's Send would have
			// consumed.
			for p := range c.out {
				p.Release()
			}
			return
		}
	}
}

func (s *writeSession) runAckReader(c *fwdChain) {
	defer s.wg.Done()
	for {
		ack, err := c.st.Recv()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if !closed {
				s.followerFailed(c.addr, err)
			}
			return
		}
		ok := s.followerAck(c, ack)
		ack.Release() // error text, if any, was copied into the failure message
		if !ok {
			return
		}
	}
}

// followerAck credits one follower ack to the matching in-flight entry.
// Data hops and control frames can be registered in slightly different
// orders than they hit the wire, so the match is by sequence (normally the
// head); an unknown sequence on a live session is a protocol violation.
func (s *writeSession) followerAck(c *fwdChain, ack *proto.Packet) bool {
	s.mu.Lock()
	var e *repEntry
	for i, cand := range c.inFlight {
		if cand.seq == ack.ReqID {
			e = cand
			c.inFlight = append(c.inFlight[:i], c.inFlight[i+1:]...)
			// Only a MATCHED ack is deadline progress - a peer spraying
			// unknown sequences must not keep deferring the deadline on a
			// chain whose real head frame is hung.
			c.lastAck = time.Now()
			break
		}
	}
	s.mu.Unlock()
	if e == nil {
		// Post-abort stragglers are expected noise; on a live session an
		// ack that matches nothing in flight is a protocol violation.
		if !s.isFailed() {
			s.followerFailed(c.addr, fmt.Errorf("ack for unknown seq %d", ack.ReqID))
		}
		return false
	}
	if ack.ResultCode == proto.ResultErrStaleEpoch {
		// The follower holds a newer replica epoch: this leader is the
		// stale party, not the follower.
		s.followerFailed(c.addr, fmt.Errorf("replication refused: %s: %w", ack.Data, util.ErrStaleEpoch))
		return false
	}
	if ack.ResultCode != proto.ResultOK {
		s.followerFailed(c.addr, fmt.Errorf("replication rejected: %s", ack.Data))
		return false
	}
	if e.seq >= ctrlSeqBase {
		return true // ping/committed keepalive; progress already recorded
	}
	s.mu.Lock()
	e.acks++
	s.mu.Unlock()
	s.commitReady()
	return true
}

func (s *writeSession) isFailed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// entryDecided reports whether an entry's fate no longer depends on more
// follower acks: error-claimed, a keepalive, or all-replica acked.
func (s *writeSession) entryDecided(e *repEntry) bool {
	return e.code != proto.ResultOK || e.op == proto.OpDataPing || e.acks >= s.nf
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
	var gossip []*proto.Packet
	if len(s.pending) == 0 && len(advanced) > 0 && !s.failed {
		for ext := range advanced {
			gossip = append(gossip, committedHopPacket(s.p.ID, ext, s.p.committedOf(ext), s.p.Epoch(), s.p.ovwAppliedOf(ext)))
		}
	}
	p := s.p
	chains := s.fwds
	s.mu.Unlock()
	if len(advanced) > 0 {
		// Leader-side committed-snapshot cadence: persist (debounced) as
		// the window drains, so a leader kill -9 loses at most the
		// debounce window instead of everything since the last Recover.
		p.saveCommittedSoon()
	}
	for _, g := range gossip {
		for _, c := range chains {
			cp := *g // each sender stamps its own sequence on the frame
			select { // best-effort: a full ctrl buffer means traffic is
			case c.ctrl <- &cp: // flowing and piggybacks will carry it anyway
			default:
			}
		}
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
	chains := s.fwds
	s.mu.Unlock()
	// Close every chain stream NOW: a sender wedged inside Send on a
	// half-open follower only unblocks when its stream dies, and until it
	// drains its buffer the single-threaded receive loop can be stuck on
	// `c.out <- fwd` - the teardown in run() would never be reached. The
	// channels themselves still belong to run(); senders just see their
	// writes fail and fall into the drain loop.
	for _, c := range chains {
		c.st.Close()
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
