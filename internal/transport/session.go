package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cfs/internal/proto"
	"cfs/internal/util"
)

// The session engine: one pinned packet stream whose peer answers every
// frame strictly in wire order. Its users are the client's write sessions
// (one per partition leader), the client's read sessions (one per
// replica) and a partition leader's forward chains (one per follower of a
// write session, Figure 4's primary-backup hop). The engine owns what the
// three have in common - dial, sequence stamping, the in-flight FIFO,
// reply dispatch, liveness and the single failure path - and knows
// nothing about what a frame means: a user builds its own frames and
// tells the engine what one reply frame does to the FIFO head
// (Request.Reply).
//
// The session is the demultiplexer: senders push frames without waiting
// for replies, the peer answers strictly in wire order, and the FIFO
// routes each reply to the oldest in-flight request. It is also the
// user's liveness authority: a watchdog enforces a reply deadline on the
// oldest in-flight frame (a peer that accepts frames but never answers -
// the half-open case - becomes an error instead of a wedged wait), keeps
// quiet sessions warm with the user's keepalive frame, which is how the
// peer's idle reaper tells a live-but-quiet dialer from a dead one, and,
// where the user asks for it, retires sessions nothing has used for a
// long time.
//
// Failure fates are two-tier. A per-request error reply is the user's
// business and leaves the session serving. Session-fatal events -
// transport errors, the reply deadline, a stale-epoch reject, a rejected
// keepalive, or whatever a user's reply reports as fatal - take the one
// fail path: sticky error, every in-flight request aborted, stream
// closed, and the user's Failed hook told unless a write failed, which
// its writer learns from Send.

// Request is the user's half of one in-flight frame. Both methods run
// under the session mutex, so they must not call back into the session
// or block.
type Request interface {
	// Reply applies one reply frame addressed to this request, the FIFO
	// head. done pops it (a streamed read stays at the head until its last
	// chunk); a non-nil fatal fails the whole session.
	Reply(f *proto.Packet) (done bool, fatal error)
	// Abort tells the owner the session died with the request in flight.
	Abort(err error)
}

// SessionUser is what a user plugs into the engine besides its two
// timings.
type SessionUser struct {
	// Name prefixes every error of the session: what the stream carries,
	// and where to.
	Name string
	// Ping is the keepalive frame a quiet session sends; the engine stamps
	// its sequence.
	Ping proto.Packet
	// RetireIdle lets the engine retire a session that carried no user
	// frame for idleRetireTicks keepalive intervals (util.ErrStale, so a
	// pooled session's next user redials). A user that reads a failure as
	// news about the peer - a leader's forward chain reports it to the
	// master - leaves it off.
	RetireIdle bool
	// Replied, if set, runs on the receive loop after each reply frame,
	// outside the session's locks: where a user may block on what the
	// reply made ready.
	Replied func()
	// Failed, if set, runs once, outside the session's locks, when the
	// session fails other than by a failed write: by a reply, the reply
	// deadline, its receive loop, idle retirement or Close. A failed write
	// is the writer's news - Send returns it, and a failed keepalive is
	// left for the next Send to meet as the session's sticky error.
	Failed func(err error)
}

// flight is one in-flight frame of a session's FIFO.
type flight struct {
	seq  uint64
	req  Request   // nil for session-originated keepalives
	sent time.Time // zeroed once the first reply frame is timed
}

// idleRetireTicks is how many keepalive intervals a RetireIdle session may
// sit without user traffic before the engine retires it (stops pinging and
// closes, letting the peer reap its end too); the next user redials for
// one handshake. 12 ticks = 60s at the client's default 5s keepalive.
const idleRetireTicks = 12

// Session is one pinned packet stream run by the engine.
type Session struct {
	user      SessionUser
	deadline  time.Duration
	keepalive time.Duration
	st        PacketStream

	// sendMu serializes senders and pins wire order to FIFO order:
	// registration and the stream write happen inside one sendMu critical
	// section. It is deliberately NOT mu - a stream write can block
	// arbitrarily long on a wedged TCP peer, and the watchdog and reply
	// dispatcher must stay free to trip the deadline and close the stream
	// underneath it (which is what unblocks the sender).
	sendMu sync.Mutex

	mu           sync.Mutex
	seq          uint64
	inflight     []flight
	err          error // first fatal error; sticky
	lastSend     time.Time
	lastProgress time.Time
	lastUsed     time.Time // last USER frame (pings excluded): idle-retire clock

	// leastRTT is the smallest round trip the session has seen, in
	// nanoseconds: the dial seeds it, and each frame's send-to-first-reply
	// time lowers it - a keepalive's too. Written under mu, read lock-free.
	leastRTT atomic.Int64

	stopc    chan struct{}
	recvDone chan struct{}
}

// DialSession dials a packet stream to addr with the stream opcode op and
// runs the engine on it: a reply deadline of deadline on the oldest
// in-flight frame, and a keepalive after keepalive without a send.
func DialSession(nw PacketStreamNetwork, addr string, op uint8, deadline, keepalive time.Duration, u SessionUser) (*Session, error) {
	start := time.Now()
	st, err := nw.DialStream(addr, op)
	if err != nil {
		return nil, err
	}
	now := time.Now()
	s := &Session{
		user: u, deadline: deadline, keepalive: keepalive, st: st,
		lastSend: now, lastProgress: now, lastUsed: now,
		stopc: make(chan struct{}), recvDone: make(chan struct{}),
	}
	s.leastRTT.Store(int64(now.Sub(start))) // a dial is one handshake round trip
	go s.recvLoop()
	go s.runWatchdog()
	return s, nil
}

// Send registers req in the FIFO and writes pkt, stamped with the frame's
// sequence, both under sendMu so the FIFO order is the wire order. Like
// PacketStream.Send it consumes one payload reference of pkt, sent or
// not. A send blocked on a hung peer holds only sendMu: the watchdog
// still observes the stalled FIFO through mu, trips the deadline, and
// closes the stream, which errors this write out.
func (s *Session) Send(req Request, pkt *proto.Packet) error {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	return s.sendLocked(req, pkt)
}

// sendLocked is the registration+write core shared by Send and the
// keepalive; the caller holds sendMu.
func (s *Session) sendLocked(req Request, pkt *proto.Packet) error {
	s.mu.Lock()
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		pkt.Release()
		return err
	}
	s.seq++
	now := time.Now()
	if len(s.inflight) == 0 {
		s.lastProgress = now // the deadline clock starts at empty->busy
	}
	s.inflight = append(s.inflight, flight{seq: s.seq, req: req, sent: now})
	s.lastSend = now
	if req != nil {
		s.lastUsed = now // user traffic, not keepalive, defers retirement
	}
	pkt.ReqID = s.seq
	s.mu.Unlock()
	if err := s.st.Send(pkt); err != nil {
		// A transport failure is a timeout: a crashed peer and a hung peer
		// demand the same response upstream - replay or fail over.
		err = fmt.Errorf("%s: %v: %w", s.user.Name, err, util.ErrTimeout)
		s.stop(err)
		return err
	}
	return nil
}

// recvLoop routes each reply frame to the FIFO head.
func (s *Session) recvLoop() {
	defer close(s.recvDone)
	for {
		f, err := s.st.Recv()
		if err != nil {
			// Same timeout mapping as send failures: a stream that dies
			// (peer crash, EOF) is retried exactly like one that hangs.
			s.fail(fmt.Errorf("%s: %v: %w", s.user.Name, err, util.ErrTimeout))
			return
		}
		fatal := s.dispatch(f, time.Now())
		f.Release() // users copied or detached what they keep
		if fatal != nil {
			s.fail(fatal)
			return
		}
		if s.user.Replied != nil {
			s.user.Replied()
		}
	}
}

// dispatch applies one reply frame and returns a session-fatal error, if
// the frame amounts to one.
func (s *Session) dispatch(f *proto.Packet, now time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.inflight) == 0 || s.inflight[0].seq != f.ReqID {
		// The peer answers in wire order, so anything but the head's
		// sequence is noise (a stray frame on a failing session) or a
		// protocol violation. Either way it is dropped, and only a MATCHED
		// frame defers the deadline: a wedged peer spraying unknown
		// sequences must not keep a hung window alive.
		return nil
	}
	s.lastProgress = now
	if sent := s.inflight[0].sent; !sent.IsZero() {
		// Only the first reply frame times a round trip; later chunks of a
		// streamed read measure the peer's pacing, not the wire.
		if d := now.Sub(sent); d < s.RTT() {
			s.leastRTT.Store(int64(d))
		}
		s.inflight[0].sent = time.Time{}
	}
	head := s.inflight[0].req
	done, fatal := true, error(nil)
	if head != nil {
		done, fatal = head.Reply(f)
	}
	if done {
		s.inflight[0] = flight{}
		s.inflight = s.inflight[1:]
	}
	switch {
	case fatal != nil:
		return fmt.Errorf("%s: %w", s.user.Name, fatal)
	case f.ResultCode == proto.ResultErrStaleEpoch:
		// The partition reconfigured under this session's epoch: every
		// later frame earns the same reject, so retire now. ErrStale sends
		// users through refresh -> re-dial -> retry.
		return fmt.Errorf("%s: stale replica epoch: %s: %w", s.user.Name, f.Data, util.ErrStale)
	case head == nil && f.ResultCode != proto.ResultOK:
		// A rejected keepalive means the session is not serviceable
		// (wrong leader, dead partition): stop using it.
		return fmt.Errorf("%s: keepalive rejected: %s: %w", s.user.Name, f.Data, util.ErrTimeout)
	}
	return nil
}

// runWatchdog enforces the reply deadline, pings quiet sessions and
// retires idle ones.
func (s *Session) runWatchdog() {
	tick := max(min(s.keepalive/2, s.deadline/4), time.Millisecond)
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.stopc:
			return
		case <-t.C:
		}
		now := time.Now()
		s.mu.Lock()
		busy := len(s.inflight) > 0
		expired := busy && now.Sub(s.lastProgress) > s.deadline
		retire := s.user.RetireIdle && !busy && now.Sub(s.lastUsed) > idleRetireTicks*s.keepalive
		// Ping even while the window is busy: the frame queues behind the
		// in-flight entries and proves to the PEER's idle reaper that this
		// end is alive-but-waiting, not gone.
		ping := now.Sub(s.lastSend) > s.keepalive
		s.mu.Unlock()
		switch {
		case expired:
			s.fail(fmt.Errorf("%s: no reply within %v (half-open peer): %w", s.user.Name, s.deadline, util.ErrTimeout))
			return
		case retire:
			// No user traffic for a long time: retire instead of pinging
			// forever - otherwise a client that once touched many
			// partitions pins streams and goroutines on both ends for its
			// whole lifetime. A dormant user may still hold the session,
			// so retirement is ErrStale (retriable): its next use
			// transparently reopens on a fresh session.
			s.fail(fmt.Errorf("%s: idle-retired: %w", s.user.Name, util.ErrStale))
			return
		case ping && s.sendMu.TryLock():
			// Never block the watchdog: if a sender holds sendMu (possibly
			// wedged on a dead peer), skip the ping - the deadline path is
			// the one that must stay live, and it only needs mu.
			pkt := s.user.Ping
			_ = s.sendLocked(nil, &pkt)
			s.sendMu.Unlock()
		}
	}
}

// fail is the session-fatal path of everything but a failed write: stop,
// then the user's Failed hook told.
func (s *Session) fail(err error) {
	if s.stop(err) && s.user.Failed != nil {
		s.user.Failed(err)
	}
}

// stop is the single session-fatal core: sticky error, every in-flight
// request aborted, stream closed. It reports whether this call failed the
// session; later calls are no-ops. Requests whose replies are lost here
// are over-reported as failed; their owners replay or re-read, which is
// safe.
func (s *Session) stop(err error) bool {
	s.mu.Lock()
	if s.err != nil {
		s.mu.Unlock()
		return false
	}
	s.err = err
	for _, e := range s.inflight {
		if e.req != nil {
			e.req.Abort(err)
		}
	}
	s.inflight = nil
	s.mu.Unlock()
	close(s.stopc)
	s.st.Close()
	return true
}

// Close fails the session on its owner's initiative with the error
// "<name>: why: kind"; a no-op on a session that already failed. It does
// not wait for the receive loop (Done does).
func (s *Session) Close(why string, kind error) {
	s.fail(fmt.Errorf("%s: %s: %w", s.user.Name, why, kind))
}

// Done is closed once the session's receive loop has exited, which it
// does only after the session failed.
func (s *Session) Done() <-chan struct{} { return s.recvDone }

// Err returns the error the session failed with, nil while it serves.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// RTT returns the least round trip the session has seen.
func (s *Session) RTT() time.Duration { return time.Duration(s.leastRTT.Load()) }

// Touch refreshes the idle-retire clock, as a user frame would.
func (s *Session) Touch() {
	s.mu.Lock()
	s.lastUsed = time.Now()
	s.mu.Unlock()
}
