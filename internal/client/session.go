package client

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cfs/internal/proto"
	"cfs/internal/transport"
	"cfs/internal/util"
)

// The session engine: one pinned packet stream to a data node, shared by
// every writer (pool.go) or reader (readpool.go) the client points at it,
// so neither a small file, an extent roll nor a scan pays a fresh dial.
// The engine owns everything the two users have in common - dial,
// sequence stamping, the in-flight FIFO, reply dispatch, liveness, the
// single failure path and the pool - and knows nothing about what a frame
// means: a user supplies the stream op, builds its own frames, and tells
// the engine what one reply frame does to the FIFO head (request.reply).
//
// The session is the demultiplexer: senders push frames without waiting
// for replies, the server answers strictly in wire order, and the FIFO
// routes each reply to the oldest in-flight request. It is also the
// client's liveness authority: a watchdog enforces a reply deadline on
// the oldest in-flight frame (a data node that accepts frames but never
// answers - the half-open case - becomes an error instead of a wedged
// Drain or ReadAt), keeps quiet sessions warm with OpDataPing frames,
// which is how the server's idle reaper tells a live-but-quiet client
// from a dead one, and retires sessions nothing has used for a long time.
//
// Failure fates are two-tier. A per-request error reply is the user's
// business and leaves the session serving. Session-fatal events -
// transport errors, the reply deadline, a stale-epoch reject, a rejected
// keepalive, or whatever a user's reply reports as fatal - take the one
// fail path: sticky error, stream closed, session dropped from the pool,
// every in-flight request aborted.

// request is the user's half of one in-flight frame. Both methods run
// under the session mutex, so they must not call back into the session.
type request interface {
	// reply applies one reply frame addressed to this request, the FIFO
	// head. done pops it (a streamed read stays at the head until its last
	// chunk); a non-nil fatal fails the whole session.
	reply(f *proto.Packet) (done bool, fatal error)
	// abort tells the owner the session died with the request in flight.
	abort(err error)
}

// flight is one in-flight frame of a session's FIFO.
type flight struct {
	seq  uint64
	req  request   // nil for session-originated keepalives
	sent time.Time // zeroed once the first reply frame is timed
}

// sessionPin is where and when a session was dialed: the data node, the
// partition's ReplicaEpoch in the dialer's view and, for per-partition
// write sessions, the partition its keepalives are routed by (zero on
// per-replica read sessions). A view that moves past the pin (failover,
// reconfiguration) gets a fresh session: frames at the old epoch would
// only earn retriable stale-epoch rejects.
type sessionPin struct {
	addr  string
	epoch uint64
	pid   uint64
}

func (p sessionPin) String() string {
	if p.pid != 0 {
		return fmt.Sprintf("dp %d at %s", p.pid, p.addr)
	}
	return p.addr
}

// idleRetireTicks is how many keepalive intervals a session may sit
// without user traffic before the client retires it (stops pinging and
// closes, letting the server reap its end too); the next user redials
// for one handshake. 12 ticks = 60s at the default 5s keepalive.
const idleRetireTicks = 12

// session is one pinned, pooled packet stream.
type session struct {
	cfg    *Config
	name   string // error-text prefix: what the stream carries, and where to
	pin    sessionPin
	st     transport.PacketStream
	unpool func() // forgets the session in its pool

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
	// time lowers it. Written under mu, read lock-free by readers sizing
	// their window (reader.go).
	leastRTT atomic.Int64

	stopc    chan struct{}
	recvDone chan struct{}
}

// send registers one frame in the FIFO and writes it to the stream, both
// under sendMu so the FIFO order is the wire order. build runs under the
// session mutex with the frame's sequence. A send
// blocked on a hung peer holds only sendMu: the watchdog still observes
// the stalled FIFO through mu, trips the deadline, and closes the stream,
// which errors this write out.
func (s *session) send(req request, build func(seq uint64) *proto.Packet) error {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	return s.sendLocked(req, build)
}

// sendLocked is the registration+write core shared by send and the
// keepalive; the caller holds sendMu.
func (s *session) sendLocked(req request, build func(seq uint64) *proto.Packet) error {
	s.mu.Lock()
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
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
	pkt := build(s.seq)
	s.mu.Unlock()
	if err := s.st.Send(pkt); err != nil {
		// A transport failure is a timeout: a crashed node and a hung node
		// demand the same response upstream - replay or fail over.
		err = fmt.Errorf("client: %s: %v: %w", s.name, err, util.ErrTimeout)
		s.fail(err)
		return err
	}
	return nil
}

// recvLoop routes each reply frame to the FIFO head.
func (s *session) recvLoop() {
	defer close(s.recvDone)
	for {
		f, err := s.st.Recv()
		if err != nil {
			// Same timeout mapping as send failures: a stream that dies
			// (node crash, EOF) is retried exactly like one that hangs.
			s.fail(fmt.Errorf("client: %s: %v: %w", s.name, err, util.ErrTimeout))
			return
		}
		fatal := s.dispatch(f, time.Now())
		f.Release() // users copied or detached what they keep
		if fatal != nil {
			s.fail(fatal)
			return
		}
	}
}

// dispatch applies one reply frame and returns a session-fatal error, if
// the frame amounts to one.
func (s *session) dispatch(f *proto.Packet, now time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.inflight) == 0 || s.inflight[0].seq != f.ReqID {
		// The server answers in wire order, so anything but the head's
		// sequence is noise (a stray frame on a failing session) or a
		// protocol violation. Either way it is dropped and - the rule the
		// server's chains share - only a MATCHED frame defers the
		// deadline: a wedged peer spraying unknown sequences must not keep
		// a hung window alive.
		return nil
	}
	s.lastProgress = now
	if sent := s.inflight[0].sent; !sent.IsZero() {
		// Only the first reply frame times a round trip; later chunks of a
		// streamed read measure the server's pacing, not the wire.
		if d := now.Sub(sent); d < s.rtt() {
			s.leastRTT.Store(int64(d))
		}
		s.inflight[0].sent = time.Time{}
	}
	head := s.inflight[0].req
	done, fatal := true, error(nil)
	if head != nil {
		done, fatal = head.reply(f)
	}
	if done {
		s.inflight[0] = flight{}
		s.inflight = s.inflight[1:]
	}
	switch {
	case fatal != nil:
		return fmt.Errorf("client: %s: %w", s.name, fatal)
	case f.ResultCode == proto.ResultErrStaleEpoch:
		// The partition reconfigured under this session's epoch: every
		// later frame earns the same reject, so retire now. ErrStale sends
		// users through refresh -> re-dial -> retry.
		return fmt.Errorf("client: %s: stale replica epoch: %s: %w", s.name, f.Data, util.ErrStale)
	case head == nil && f.ResultCode != proto.ResultOK:
		// A rejected keepalive means the session is not serviceable
		// (wrong leader, dead partition): stop pooling it.
		return fmt.Errorf("client: %s: keepalive rejected: %s: %w", s.name, f.Data, util.ErrTimeout)
	}
	return nil
}

// runWatchdog enforces the reply deadline, pings quiet sessions and
// retires idle ones.
func (s *session) runWatchdog() {
	deadline, keepalive := s.cfg.AckDeadline, s.cfg.KeepaliveInterval
	tick := keepalive / 2
	if d := deadline / 4; d < tick {
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
		s.mu.Lock()
		busy := len(s.inflight) > 0
		expired := busy && now.Sub(s.lastProgress) > deadline
		retire := !busy && now.Sub(s.lastUsed) > idleRetireTicks*keepalive
		// Ping even while the window is busy: the frame queues behind the
		// in-flight entries and proves to the SERVER's idle reaper that
		// this client is alive-but-waiting, not gone.
		ping := now.Sub(s.lastSend) > keepalive
		s.mu.Unlock()
		switch {
		case expired:
			s.fail(fmt.Errorf("client: %s: no reply within %v (hung session): %w", s.name, deadline, util.ErrTimeout))
			return
		case retire:
			// No user traffic for a long time: retire instead of pinging
			// forever - otherwise a client that once touched many
			// partitions pins streams and goroutines on both ends for its
			// whole lifetime. A dormant writer or reader may still hold
			// the session, so retirement is ErrStale (retriable): its next
			// use transparently reopens on a fresh session.
			s.fail(fmt.Errorf("client: %s: idle-retired: %w", s.name, util.ErrStale))
			return
		case ping && s.sendMu.TryLock():
			// Never block the watchdog: if a sender holds sendMu (possibly
			// wedged on a dead peer), skip the ping - the deadline path is
			// the one that must stay live, and it only needs mu.
			_ = s.sendLocked(nil, func(seq uint64) *proto.Packet {
				return &proto.Packet{Op: proto.OpDataPing, ReqID: seq, PartitionID: s.pin.pid}
			})
			s.sendMu.Unlock()
		}
	}
}

// fail is the single session-fatal path: sticky error, every in-flight
// request aborted, stream closed, session dropped from the pool. Requests
// whose replies are lost here are over-reported as failed; their owners
// replay or re-read, which is safe.
func (s *session) fail(err error) {
	s.mu.Lock()
	if s.err != nil {
		s.mu.Unlock()
		return
	}
	s.err = err
	for _, e := range s.inflight {
		if e.req != nil {
			e.req.abort(err)
		}
	}
	s.inflight = nil
	s.mu.Unlock()
	close(s.stopc)
	s.st.Close()
	s.unpool()
}

// rtt returns the least round trip the session has seen.
func (s *session) rtt() time.Duration { return time.Duration(s.leastRTT.Load()) }

func (s *session) healthy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err == nil
}

// serves reports whether a pool may hand s out for pin.
func (s *session) serves(pin sessionPin) bool {
	return s != nil && s.pin == pin && s.healthy()
}

// touch refreshes the idle-retire clock; the pool calls it when handing
// the session out so a just-acquired session cannot be retired between
// the lookup and the caller's first send.
func (s *session) touch() {
	s.mu.Lock()
	s.lastUsed = time.Now()
	s.mu.Unlock()
}

// shut fails the session on its pool's or owner's initiative and waits
// for its dispatcher to exit. Owner shutdown passes ErrClosed (the
// application chose to stop); a pool replacing the session passes
// retriable ErrStale, so users still on it move to the successor.
func (s *session) shut(why string, kind error) {
	s.fail(fmt.Errorf("client: %s: %s: %w", s.name, why, kind))
	<-s.recvDone
}

// sessionPool caches one session per key.
type sessionPool[K comparable] struct {
	nw    transport.PacketStreamNetwork
	cfg   *Config
	op    proto.Op // the stream opcode sessions dial with
	label string   // what the streams carry, for error text

	mu       sync.Mutex
	sessions map[K]*session
	closed   bool
}

func newSessionPool[K comparable](nw transport.PacketStreamNetwork, cfg *Config, op proto.Op, label string) *sessionPool[K] {
	return &sessionPool[K]{nw: nw, cfg: cfg, op: op, label: label, sessions: make(map[K]*session)}
}

// get returns the pooled session for key, dialing one when the cache is
// empty, the cached session failed, or the view moved past its pin.
func (p *sessionPool[K]) get(key K, pin sessionPin) (*session, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("client: %s session pool: %w", p.label, util.ErrClosed)
	}
	cached := p.sessions[key]
	if cached.serves(pin) {
		p.mu.Unlock()
		cached.touch()
		return cached, nil
	}
	delete(p.sessions, key)
	p.mu.Unlock()
	if cached != nil {
		// Users still streaming on the replaced session retry on its
		// successor (ErrStale).
		cached.shut("retired: view moved", util.ErrStale)
	}
	s, err := p.dial(key, pin)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		s.shut("closed", util.ErrClosed)
		return nil, fmt.Errorf("client: %s session pool: %w", p.label, util.ErrClosed)
	}
	if cur := p.sessions[key]; cur.serves(pin) {
		p.mu.Unlock()
		s.shut("closed", util.ErrClosed) // lost the dial race; reuse the winner
		cur.touch()
		return cur, nil
	}
	p.sessions[key] = s
	p.mu.Unlock()
	return s, nil
}

// dial opens a session and starts its reply dispatcher and watchdog.
func (p *sessionPool[K]) dial(key K, pin sessionPin) (*session, error) {
	start := time.Now()
	st, err := p.nw.DialStream(pin.addr, uint8(p.op))
	if err != nil {
		return nil, err
	}
	now := time.Now()
	s := &session{
		cfg: p.cfg, name: fmt.Sprintf("%s stream to %s", p.label, pin), pin: pin, st: st,
		lastSend: now, lastProgress: now, lastUsed: now,
		stopc: make(chan struct{}), recvDone: make(chan struct{}),
	}
	s.leastRTT.Store(int64(now.Sub(start))) // a dial is one handshake round trip
	s.unpool = func() {
		p.mu.Lock()
		if p.sessions[key] == s {
			delete(p.sessions, key)
		}
		p.mu.Unlock()
	}
	go s.recvLoop()
	go s.runWatchdog()
	return s, nil
}

// close shuts every pooled session; called from Client.Close.
func (p *sessionPool[K]) close() {
	p.mu.Lock()
	p.closed = true
	sessions := p.sessions
	p.sessions = make(map[K]*session)
	p.mu.Unlock()
	for _, s := range sessions {
		s.shut("closed", util.ErrClosed)
	}
}
