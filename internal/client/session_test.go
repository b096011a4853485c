package client

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cfs/internal/proto"
	"cfs/internal/transport"
	"cfs/internal/util"
)

// Cluster-free tests of the session engine (transport.Session) as the
// client uses it (session.go): a scripted fake
// packet stream stands in for the data node, and every case runs through
// BOTH users of the engine - a write session (ExtentWriter frames, one
// ack each) and a read session (read requests, chunk replies) - so a rule
// that holds for one and not the other cannot hide.

// fakeStream is one scripted transport.PacketStream: the test reads what
// the client sent from sent and injects reply frames through replies.
type fakeStream struct {
	sent    chan *proto.Packet
	replies chan *proto.Packet
	closed  chan struct{}
	once    sync.Once
	// wedge, when set, makes Send block until the stream closes: the
	// half-open TCP peer whose socket buffer filled up.
	wedge atomic.Bool
	// stallNext, when set, makes Send take the next non-keepalive frame
	// into sent and then block until the stream closes: a sender caught
	// mid-write, holding the session's send lock, whose frame the test
	// still sees. Keepalives pass, so the watchdog never stalls itself.
	stallNext atomic.Bool
}

func newFakeStream() *fakeStream {
	return &fakeStream{
		sent:    make(chan *proto.Packet, 64), // more than any case sends unread
		replies: make(chan *proto.Packet),
		closed:  make(chan struct{}),
	}
}

func (s *fakeStream) Send(p *proto.Packet) error {
	if s.wedge.Load() {
		<-s.closed
		return io.ErrClosedPipe
	}
	select {
	case s.sent <- p:
	case <-s.closed:
		return io.ErrClosedPipe
	}
	if p.Op != proto.OpDataPing && s.stallNext.CompareAndSwap(true, false) {
		<-s.closed
		return io.ErrClosedPipe
	}
	return nil
}

func (s *fakeStream) Recv() (*proto.Packet, error) {
	select {
	case p := <-s.replies:
		return p, nil
	case <-s.closed:
		return nil, io.EOF
	}
}

func (s *fakeStream) Close() error {
	s.once.Do(func() { close(s.closed) })
	return nil
}

func (s *fakeStream) isClosed() bool {
	select {
	case <-s.closed:
		return true
	default:
		return false
	}
}

// reply injects one frame, giving up when the stream closes under it.
func (s *fakeStream) reply(p *proto.Packet) {
	select {
	case s.replies <- p:
	case <-s.closed:
	}
}

// nextSent returns the next non-keepalive frame the client sent.
func (s *fakeStream) nextSent(t *testing.T) *proto.Packet {
	t.Helper()
	for {
		select {
		case p := <-s.sent:
			if p.Op != proto.OpDataPing {
				return p
			}
		case <-time.After(5 * time.Second):
			t.Fatal("client never sent the frame")
			return nil
		}
	}
}

// fakeNet is a transport whose packet streams are fakeStreams and whose
// unary calls are scripted per test.
type fakeNet struct {
	mu      sync.Mutex
	streams []*fakeStream
	// dialGate, when non-nil, holds every DialStream until it closes.
	dialGate chan struct{}
	dialing  atomic.Int32
	call     func(addr string, op uint8, req, resp any) error
}

func (n *fakeNet) Listen(string, transport.Handler) (transport.Listener, error) {
	return nil, errors.New("fakeNet: no listeners")
}

func (n *fakeNet) ListenStream(string, transport.StreamHandler) error {
	return errors.New("fakeNet: no listeners")
}

func (n *fakeNet) Call(addr string, op uint8, req, resp any) error {
	if n.call == nil {
		return errors.New("fakeNet: unscripted call")
	}
	return n.call(addr, op, req, resp)
}

func (n *fakeNet) DialStream(string, uint8) (transport.PacketStream, error) {
	n.dialing.Add(1)
	if n.dialGate != nil {
		<-n.dialGate
	}
	st := newFakeStream()
	n.mu.Lock()
	n.streams = append(n.streams, st)
	n.mu.Unlock()
	return st, nil
}

func (n *fakeNet) stream(i int) *fakeStream {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.streams[i]
}

// awaitStream returns the i-th dialed stream once a background user has
// dialed it.
func (n *fakeNet) awaitStream(t *testing.T, i int) *fakeStream {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		n.mu.Lock()
		dialed := len(n.streams) > i
		n.mu.Unlock()
		if dialed {
			return n.stream(i)
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream %d never dialed", i)
		}
	}
}

var engineDP = proto.DataPartitionInfo{PartitionID: 7, Members: []string{"dn0", "dn1", "dn2"}, ReplicaEpoch: 1}

// engineUser drives one of the engine's two users through the cases.
type engineUser struct {
	name string
	// session returns the user's pooled session on d.
	session func(d *DataClient) (*session, error)
	// issue puts one request in flight. A send failure is returned as
	// err; otherwise wait blocks until the request ends and returns how.
	issue func(d *DataClient) (wait func() error, err error)
	// ok builds the frame(s) that complete request seq successfully.
	ok func(seq uint64) []*proto.Packet
}

var engineUsers = []engineUser{
	{
		name:    "write",
		session: func(d *DataClient) (*session, error) { return d.writeSession(engineDP) },
		issue: func(d *DataClient) (func() error, error) {
			w, err := d.newStreamWriter(engineDP, 4)
			if err != nil {
				return nil, err
			}
			if err := w.WriteSmall(0, []byte("data")); err != nil {
				return nil, err
			}
			return func() error { _, _, err := w.Drain(); return err }, nil
		},
		ok: func(seq uint64) []*proto.Packet {
			return []*proto.Packet{{ReqID: seq, ExtentID: 9}}
		},
	},
	{
		name:    "read",
		session: func(d *DataClient) (*session, error) { return d.readPool.session("dn0", 1) },
		issue: func(d *DataClient) (func() error, error) {
			s, err := d.readPool.session("dn0", 1)
			if err != nil {
				return nil, err
			}
			req, err := d.readPool.read(s, 7, 9, 0, 4, 1, 0)
			if err != nil {
				return nil, err
			}
			return func() error { <-req.done; return req.err }, nil
		},
		ok: func(seq uint64) []*proto.Packet {
			// Two chunks; FileOffset counts what is still to come.
			return []*proto.Packet{
				{ReqID: seq, Data: []byte("da"), CRC: util.CRC([]byte("da")), FileOffset: 2},
				{ReqID: seq, Data: []byte("ta"), CRC: util.CRC([]byte("ta"))},
			}
		},
	},
}

func reject(seq uint64, code uint8) *proto.Packet {
	return &proto.Packet{ReqID: seq, ResultCode: code, Data: []byte("scripted reject")}
}

func newEngineClient(nw *fakeNet, deadline, keepalive time.Duration) *DataClient {
	return newFakeClient(nw, Config{AckDeadline: deadline, KeepaliveInterval: keepalive})
}

// newFakeClient is a data client over the scripted network whose view is
// engineDP.
func newFakeClient(nw *fakeNet, cfg Config) *DataClient {
	d := newDataClient(nw, cfg.withDefaults("engine"))
	d.setView([]proto.DataPartitionInfo{engineDP})
	return d
}

func sessionErr(s *session) error { return s.Err() }

// waitErr bounds a wait so a liveness bug fails the case, not the run.
func waitErr(t *testing.T, wait func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("request never ended (wedged session)")
		return nil
	}
}

// errOther stands for "fails, but with none of the retriable kinds": the
// upper layers must not mistake the error for staleness or a timeout.
var errOther = errors.New("non-retriable")

func checkKind(t *testing.T, what string, got, want error) {
	t.Helper()
	switch {
	case want == nil:
		if got != nil {
			t.Fatalf("%s = %v, want success", what, got)
		}
	case want == errOther:
		if got == nil || errors.Is(got, util.ErrStale) || errors.Is(got, util.ErrTimeout) || errors.Is(got, util.ErrClosed) {
			t.Fatalf("%s = %v, want a plain per-request error", what, got)
		}
	case !errors.Is(got, want):
		t.Fatalf("%s = %v, want kind %v", what, got, want)
	}
}

// TestSessionEngineReplyClasses is the error-class table: every reply a
// data node can give maps to the same per-request and session-fatal error
// kinds the two hand-written sessions produced before the engine.
func TestSessionEngineReplyClasses(t *testing.T) {
	type replyCase struct {
		name    string
		user    string // "" = both
		frames  func(u engineUser, seq uint64) []*proto.Packet
		request error // how the request ends
		session error // what killed the session; nil = still serving
	}
	one := func(code uint8) func(engineUser, uint64) []*proto.Packet {
		return func(_ engineUser, seq uint64) []*proto.Packet { return []*proto.Packet{reject(seq, code)} }
	}
	cases := []replyCase{
		{name: "ok", frames: func(u engineUser, seq uint64) []*proto.Packet { return u.ok(seq) }},
		{name: "stale epoch", frames: one(proto.ResultErrStaleEpoch), request: util.ErrStale, session: util.ErrStale},
		{name: "write refused", user: "write", frames: one(proto.ResultErrIO), request: util.ErrReadOnly},
		{name: "write bind refused in recovery", user: "write", frames: one(proto.ResultErrAgain), request: util.ErrBusy},
		{name: "write session aborted", user: "write", frames: one(proto.ResultErrAborted), request: util.ErrTimeout, session: util.ErrTimeout},
		{name: "read refused", user: "read", frames: one(proto.ResultErrIO), request: errOther},
		{name: "read clamped", user: "read", frames: one(proto.ResultErrClamped), request: errOther},
		{name: "read chunk crc", user: "read", frames: func(_ engineUser, seq uint64) []*proto.Packet {
			return []*proto.Packet{{ReqID: seq, Data: []byte("data"), CRC: 1}}
		}, request: util.ErrCRCMismatch, session: util.ErrCRCMismatch},
		{name: "read short reply", user: "read", frames: func(_ engineUser, seq uint64) []*proto.Packet {
			return []*proto.Packet{{ReqID: seq, Data: []byte("da"), CRC: util.CRC([]byte("da"))}}
		}, request: util.ErrTimeout, session: util.ErrTimeout},
	}
	for _, u := range engineUsers {
		for _, c := range cases {
			if c.user != "" && c.user != u.name {
				continue
			}
			t.Run(u.name+"/"+c.name, func(t *testing.T) {
				nw := &fakeNet{}
				d := newEngineClient(nw, 10*time.Second, 10*time.Second)
				defer d.close()
				s, err := u.session(d)
				if err != nil {
					t.Fatal(err)
				}
				wait, err := u.issue(d)
				if err != nil {
					t.Fatal(err)
				}
				st := nw.stream(0)
				seq := st.nextSent(t).ReqID
				for _, f := range c.frames(u, seq) {
					st.reply(f)
				}
				checkKind(t, "request", waitErr(t, wait), c.request)
				if c.session == nil {
					// Still serving: a second request rides the same stream.
					wait, err := u.issue(d)
					if err != nil {
						t.Fatalf("session died after a per-request reply: %v", err)
					}
					for _, f := range u.ok(st.nextSent(t).ReqID) {
						st.reply(f)
					}
					checkKind(t, "follow-up request", waitErr(t, wait), nil)
					return
				}
				<-s.Done()
				checkKind(t, "session", sessionErr(s), c.session)
				if !st.isClosed() {
					t.Fatal("failed session left its stream open")
				}
				if again, err := u.session(d); err != nil || again == s {
					t.Fatalf("pool kept the failed session (%v)", err)
				}
			})
		}
	}
	t.Run("read clamp is remembered", func(t *testing.T) {
		nw := &fakeNet{}
		d := newEngineClient(nw, 10*time.Second, 10*time.Second)
		defer d.close()
		wait, err := engineUsers[1].issue(d)
		if err != nil {
			t.Fatal(err)
		}
		st := nw.stream(0)
		f := reject(st.nextSent(t).ReqID, proto.ResultErrClamped)
		f.PartitionID, f.ExtentID, f.Committed = 7, 9, 100
		st.reply(f)
		checkKind(t, "request", waitErr(t, wait), errOther)
		if !d.readPool.clampedBelow("dn0", 7, 9, 101) || d.readPool.clampedBelow("dn0", 7, 9, 100) {
			t.Fatal("clamp refusal did not record the replica's committed horizon")
		}
	})
}

// TestWritesOutlastRecoveryPass: a leader refuses to bind a write session
// while a recovery pass holds its partition (ResultErrAgain). Once such a
// refusal read as "read-only, roll over": a small-file write spent its
// MaxRetries+1 binds on it within microseconds, and a new extent writer
// gave up at the first. Held recovering past that budget, then released,
// both writes now succeed at the next bind: the refusal is retried after a
// backoff.
func TestWritesOutlastRecoveryPass(t *testing.T) {
	const maxRetries = 3 // the Config default
	for _, c := range []struct {
		name    string
		refused int
		write   func(d *DataClient) error
	}{
		{"small file", maxRetries + 1, func(d *DataClient) error {
			_, err := d.WriteSmallFile(0, []byte("data"))
			return err
		}},
		{"extent writer", maxRetries, func(d *DataClient) error {
			w, err := d.NewExtentWriter(engineDP)
			if err == nil {
				w.Close()
			}
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			nw := &fakeNet{}
			d := newEngineClient(nw, 10*time.Second, 10*time.Second)
			defer d.close()
			if d.cfg.MaxRetries != maxRetries {
				t.Fatalf("MaxRetries defaults to %d", d.cfg.MaxRetries)
			}
			done := make(chan error, 1)
			go func() { done <- c.write(d) }()
			st := nw.awaitStream(t, 0)
			for range c.refused {
				st.reply(reject(st.nextSent(t).ReqID, proto.ResultErrAgain))
			}
			st.reply(&proto.Packet{ReqID: st.nextSent(t).ReqID, ExtentID: 9})
			if err := waitErr(t, func() error { return <-done }); err != nil {
				t.Fatalf("write after the recovery pass ended: %v", err)
			}
		})
	}
}

// countingReq is a bare engine request that counts what the engine does
// to it.
type countingReq struct{ replies, aborts atomic.Int32 }

func (c *countingReq) Reply(*proto.Packet) (bool, error) {
	c.replies.Add(1)
	return true, nil
}
func (c *countingReq) Abort(error) { c.aborts.Add(1) }

// TestSessionEngineLiveness: the liveness and failure-path rules, each
// through both users.
func TestSessionEngineLiveness(t *testing.T) {
	for _, u := range engineUsers {
		t.Run(u.name+"/unmatched frames do not defer the deadline", func(t *testing.T) {
			nw := &fakeNet{}
			d := newEngineClient(nw, 150*time.Millisecond, 10*time.Second)
			defer d.close()
			wait, err := u.issue(d)
			if err != nil {
				t.Fatal(err)
			}
			st := nw.stream(0)
			start := time.Now()
			go func() { // a wedged peer spraying sequences nobody sent
				for !st.isClosed() {
					st.reply(&proto.Packet{ReqID: 1 << 40})
					time.Sleep(5 * time.Millisecond)
				}
			}()
			checkKind(t, "request", waitErr(t, wait), util.ErrTimeout)
			if took := time.Since(start); took < 150*time.Millisecond {
				t.Fatalf("session failed after %v, before the deadline: unmatched frames are noise, not fatal", took)
			}
		})

		t.Run(u.name+"/wedged sender cannot stop the deadline", func(t *testing.T) {
			nw := &fakeNet{}
			// A short keepalive too: the watchdog's ping attempts must skip
			// the held sendMu instead of queueing behind it.
			d := newEngineClient(nw, 150*time.Millisecond, 10*time.Millisecond)
			defer d.close()
			s, err := u.session(d)
			if err != nil {
				t.Fatal(err)
			}
			nw.stream(0).wedge.Store(true)
			sendErr := make(chan error, 1)
			go func() { // registers in the FIFO, then blocks in Send under sendMu
				_, err := u.issue(d)
				sendErr <- err
			}()
			select {
			case err := <-sendErr:
				checkKind(t, "wedged send", err, util.ErrTimeout)
			case <-time.After(5 * time.Second):
				t.Fatal("the deadline never fired: the watchdog is stuck behind the wedged sender")
			}
			checkKind(t, "session", sessionErr(s), util.ErrTimeout)
		})

		t.Run(u.name+"/keepalive is skipped while sendMu is held", func(t *testing.T) {
			nw := &fakeNet{}
			d := newEngineClient(nw, 150*time.Millisecond, 10*time.Millisecond)
			defer d.close()
			wait, err := u.issue(d)
			if err != nil {
				t.Fatal(err)
			}
			st := nw.stream(0)
			st.nextSent(t) // the request
			st.stallNext.Store(true)
			go func() { _, _ = u.issue(d) }() // a sender mid-write, for longer than the deadline
			// Its frame is the last through sendMu; the keepalives before
			// it are skipped over here.
			st.nextSent(t)
			// A watchdog that blocked on sendMu for its ping would never get
			// to the deadline check.
			checkKind(t, "request", waitErr(t, wait), util.ErrTimeout)
			if pings := len(st.sent); pings != 0 {
				t.Fatalf("%d keepalives went out past a held sendMu", pings)
			}
		})

		t.Run(u.name+"/idle retire is retriable staleness", func(t *testing.T) {
			nw := &fakeNet{}
			d := newEngineClient(nw, 10*time.Second, 2*time.Millisecond) // retires after ~24ms idle
			defer d.close()
			s, err := u.session(d)
			if err != nil {
				t.Fatal(err)
			}
			st := nw.stream(0)
			go func() { // a healthy node: every keepalive is acked
				for {
					select {
					case p := <-st.sent:
						st.reply(&proto.Packet{ReqID: p.ReqID})
					case <-st.closed:
						return
					}
				}
			}()
			select {
			case <-s.Done():
			case <-time.After(5 * time.Second):
				t.Fatal("idle session never retired")
			}
			checkKind(t, "session", sessionErr(s), util.ErrStale)
			// A dormant user still holding s sees the retriable kind.
			err = s.Send(&countingReq{}, &proto.Packet{})
			checkKind(t, "send on the retired session", err, util.ErrStale)
		})

		t.Run(u.name+"/owner close is ErrClosed", func(t *testing.T) {
			nw := &fakeNet{}
			d := newEngineClient(nw, 10*time.Second, 10*time.Second)
			wait, err := u.issue(d)
			if err != nil {
				t.Fatal(err)
			}
			d.close()
			checkKind(t, "request", waitErr(t, wait), util.ErrClosed)
			if _, err := u.session(d); !errors.Is(err, util.ErrClosed) {
				t.Fatalf("closed pool handed out a session: %v", err)
			}
		})

		t.Run(u.name+"/fail notifies every in-flight owner exactly once", func(t *testing.T) {
			nw := &fakeNet{}
			d := newEngineClient(nw, 10*time.Second, 10*time.Second)
			defer d.close()
			s, err := u.session(d)
			if err != nil {
				t.Fatal(err)
			}
			var waits []func() error
			for i := 0; i < 3; i++ {
				wait, err := u.issue(d)
				if err != nil {
					t.Fatal(err)
				}
				waits = append(waits, wait)
			}
			counted := &countingReq{}
			if err := s.Send(counted, &proto.Packet{}); err != nil {
				t.Fatal(err)
			}
			nw.stream(0).Close() // the node dies: Recv returns EOF
			for i, wait := range waits {
				checkKind(t, fmt.Sprintf("request %d", i), waitErr(t, wait), util.ErrTimeout)
			}
			<-s.Done()
			s.shut("closed", util.ErrClosed) // a second fatal event must be a no-op
			if a, r := counted.aborts.Load(), counted.replies.Load(); a != 1 || r != 0 {
				t.Fatalf("in-flight request saw %d aborts and %d replies, want exactly 1 abort", a, r)
			}
			checkKind(t, "session", sessionErr(s), util.ErrTimeout) // the first error sticks
		})

		t.Run(u.name+"/losing a dial race closes the loser", func(t *testing.T) {
			nw := &fakeNet{dialGate: make(chan struct{})}
			d := newEngineClient(nw, 10*time.Second, 10*time.Second)
			defer d.close()
			got := make(chan *session, 2)
			for i := 0; i < 2; i++ {
				go func() {
					s, err := u.session(d)
					if err != nil {
						t.Error(err)
					}
					got <- s
				}()
			}
			for nw.dialing.Load() < 2 { // both missed the cache and are dialing
				time.Sleep(time.Millisecond)
			}
			close(nw.dialGate)
			a, b := <-got, <-got
			if a == nil || a != b {
				t.Fatalf("racing callers got different sessions: %p vs %p", a, b)
			}
			open := 0
			for i := 0; i < 2; i++ {
				if !nw.stream(i).isClosed() {
					open++
				}
			}
			if open != 1 || a.Err() != nil {
				t.Fatalf("%d of 2 dialed streams left open (winner failed: %v), want exactly the winner's", open, a.Err())
			}
		})
	}
}

// TestSessionEngineKeepaliveRejected: a data node that refuses a
// keepalive is not serviceable, whichever user the session carries.
func TestSessionEngineKeepaliveRejected(t *testing.T) {
	for _, u := range engineUsers {
		t.Run(u.name, func(t *testing.T) {
			nw := &fakeNet{}
			d := newEngineClient(nw, 10*time.Second, 5*time.Millisecond)
			defer d.close()
			s, err := u.session(d)
			if err != nil {
				t.Fatal(err)
			}
			st := nw.stream(0)
			var ping *proto.Packet
			select {
			case ping = <-st.sent:
			case <-time.After(5 * time.Second):
				t.Fatal("no keepalive on a quiet session")
			}
			if ping.Op != proto.OpDataPing || ping.PartitionID != s.pin.pid {
				t.Fatalf("keepalive frame = %+v", ping)
			}
			st.reply(reject(ping.ReqID, proto.ResultErrNotLeader))
			<-s.Done()
			checkKind(t, "session", sessionErr(s), util.ErrTimeout)
		})
	}
}

// TestSessionEngineLeastRTT: the round trip the depth rule reads is the
// least of every exchange on the session. The dial handshake seeds it, a
// request slower than the handshake does not raise it, and a keepalive
// answered at once lowers it.
func TestSessionEngineLeastRTT(t *testing.T) {
	const dial = 40 * time.Millisecond
	for _, u := range engineUsers {
		t.Run(u.name, func(t *testing.T) {
			nw := &fakeNet{dialGate: make(chan struct{})}
			time.AfterFunc(dial, func() { close(nw.dialGate) })
			d := newEngineClient(nw, 10*time.Second, 3*dial)
			defer d.close()
			s, err := u.session(d)
			if err != nil {
				t.Fatal(err)
			}
			seed := s.RTT()
			if seed < dial/2 {
				t.Fatalf("dial seed %v, want about the %v handshake", seed, dial)
			}
			st := nw.stream(0)
			wait, err := u.issue(d)
			if err != nil {
				t.Fatal(err)
			}
			seq := st.nextSent(t).ReqID
			time.Sleep(2 * dial)
			for _, f := range u.ok(seq) {
				st.reply(f)
			}
			if err := waitErr(t, wait); err != nil {
				t.Fatal(err)
			}
			if got := s.RTT(); got != seed {
				t.Fatalf("least RTT %v after a %v request, want the %v handshake still", got, 2*dial, seed)
			}
			var ping *proto.Packet
			select {
			case ping = <-st.sent:
			case <-time.After(5 * time.Second):
				t.Fatal("no keepalive on a quiet session")
			}
			if ping.Op != proto.OpDataPing {
				t.Fatalf("keepalive frame = %+v", ping)
			}
			st.reply(&proto.Packet{ReqID: ping.ReqID})
			for deadline := time.Now().Add(5 * time.Second); s.RTT() >= seed; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("least RTT %v after a keepalive answered at once, want under the %v handshake", s.RTT(), seed)
				}
			}
		})
	}
}

// TestMountRejectsStreamlessTransport: the data path is streams only, so
// a transport without them is refused once, at Mount.
func TestMountRejectsStreamlessTransport(t *testing.T) {
	type callOnly struct{ transport.Network }
	_, err := Mount(callOnly{transport.NewMemory()}, "master", "vol", Config{})
	if !errors.Is(err, util.ErrInvalidArgument) {
		t.Fatalf("Mount over a stream-less transport = %v, want ErrInvalidArgument", err)
	}
}

// TestOverwriteWalksPastLostLeadership: a replica that lost Raft
// leadership mid-proposal answers not-leader (datanode
// TestOverwriteLostLeadershipIsRetriable); the client must walk on to the
// next member and succeed, and remember who accepted.
func TestOverwriteWalksPastLostLeadership(t *testing.T) {
	var asked []string
	nw := &fakeNet{call: func(addr string, op uint8, req, resp any) error {
		asked = append(asked, addr)
		out := resp.(*proto.Packet)
		if addr == "dn0" {
			*out = *req.(*proto.Packet).ErrResponse(proto.ResultErrNotLeader, "raft: proposal dropped")
		} else {
			*out = *req.(*proto.Packet).OKResponse(nil)
		}
		return nil
	}}
	d := newEngineClient(nw, time.Second, time.Second)
	defer d.close()
	ek := proto.ExtentKey{PartitionID: 7, ExtentID: 9}
	if err := d.Overwrite(ek, 0, []byte("x")); err != nil {
		t.Fatalf("overwrite across one lost-leadership reject: %v", err)
	}
	if len(asked) != 2 || asked[0] != "dn0" || asked[1] != "dn1" {
		t.Fatalf("asked %v, want dn0 then dn1", asked)
	}
	if order := d.leader.order(engineDP.PartitionID, engineDP.Members); order[0] != "dn1" {
		t.Fatalf("member order after the walk = %v, want the accepting replica first", order)
	}
}
