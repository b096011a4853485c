package transport

import (
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cfs/internal/proto"
	"cfs/internal/util"
)

// Engine-level tests of the session engine (session.go) on a scripted
// stream. The client's tests (internal/client session_test.go) run the
// same rules through its two users; these cover what only the engine can
// see, and the hooks its third user, a leader's forward chain, relies on.

// pipeStream is a scripted PacketStream: what the session sends lands in
// sent, and the test injects reply frames through replies.
type pipeStream struct {
	sent    chan *proto.Packet
	replies chan *proto.Packet
	closed  chan struct{}
	once    sync.Once
}

func newPipeStream() *pipeStream {
	return &pipeStream{
		sent:    make(chan *proto.Packet, 64),
		replies: make(chan *proto.Packet),
		closed:  make(chan struct{}),
	}
}

func (s *pipeStream) Send(p *proto.Packet) error {
	select {
	case s.sent <- p:
		return nil
	case <-s.closed:
		return io.ErrClosedPipe
	}
}

func (s *pipeStream) Recv() (*proto.Packet, error) {
	select {
	case p := <-s.replies:
		return p, nil
	case <-s.closed:
		return nil, io.EOF
	}
}

func (s *pipeStream) Close() error {
	s.once.Do(func() { close(s.closed) })
	return nil
}

// pipeNet dials st; it has no listeners and no calls.
type pipeNet struct {
	Network
	st *pipeStream
}

func (n pipeNet) DialStream(string, uint8) (PacketStream, error) { return n.st, nil }
func (n pipeNet) ListenStream(string, StreamHandler) error {
	return errors.New("pipeNet: no listeners")
}

// okReq is a request one reply completes.
type okReq struct{}

func (okReq) Reply(*proto.Packet) (bool, error) { return true, nil }
func (okReq) Abort(error)                       {}

func waitDone(t *testing.T, s *Session) {
	t.Helper()
	select {
	case <-s.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("session never failed")
	}
}

// TestSessionEngineKeepaliveSkippedWhileSending: a sender holding sendMu
// (mid-write on a wedged peer) for longer than the deadline neither stops
// the deadline nor gets a keepalive queued behind it - a watchdog that
// blocked on sendMu for its ping would never reach the deadline check.
func TestSessionEngineKeepaliveSkippedWhileSending(t *testing.T) {
	st := newPipeStream()
	s, err := DialSession(pipeNet{st: st}, "peer", 1, 150*time.Millisecond, 10*time.Millisecond, SessionUser{
		Name: "test", Ping: proto.Packet{Op: proto.OpDataPing},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Send(okReq{}, &proto.Packet{Op: proto.OpDataAppend}); err != nil {
		t.Fatal(err)
	}
	s.sendMu.Lock()
	for len(st.sent) > 0 {
		<-st.sent // the request, and any ping sent before the lock
	}
	waitDone(t, s)
	pings := len(st.sent)
	s.sendMu.Unlock()
	if pings != 0 {
		t.Fatalf("%d keepalives went out past a held sendMu", pings)
	}
	if err := s.Err(); !errors.Is(err, util.ErrTimeout) {
		t.Fatalf("session error = %v, want the deadline's ErrTimeout", err)
	}
}

// TestSessionEngineWithoutRetireOutlivesIdle is the forward chain's use:
// a session whose user leaves RetireIdle off keeps pinging, with the
// user's keepalive frame, past twice the idle-retire limit and stays
// serving. Replied runs after every reply outside the session's locks (it
// calls back into the session), and Failed runs once, with the first
// error.
func TestSessionEngineWithoutRetireOutlivesIdle(t *testing.T) {
	const keepalive = 2 * time.Millisecond
	st := newPipeStream()
	var replied atomic.Int32
	failed := make(chan error, 2)
	var s *Session
	s, err := DialSession(pipeNet{st: st}, "peer", 1, 10*time.Second, keepalive, SessionUser{
		Name: "chain",
		Ping: proto.Packet{Op: proto.OpDataPing, ResultCode: 0xfe, PartitionID: 7},
		Replied: func() {
			_ = s.Err() // takes the session mutex: deadlocks if called under it
			replied.Add(1)
		},
		Failed: func(err error) { failed <- err },
	})
	if err != nil {
		t.Fatal(err)
	}
	for pings := 0; pings < 2*idleRetireTicks; pings++ {
		var ping *proto.Packet
		select {
		case ping = <-st.sent:
		case <-time.After(5 * time.Second):
			t.Fatalf("no keepalive after %d: the session retired or stopped pinging (error %v)", pings, s.Err())
		}
		if ping.Op != proto.OpDataPing || ping.ResultCode != 0xfe || ping.PartitionID != 7 {
			t.Fatalf("keepalive frame = %+v, want the user's", ping)
		}
		st.replies <- &proto.Packet{ReqID: ping.ReqID}
	}
	if err := s.Err(); err != nil {
		t.Fatalf("idle session without RetireIdle failed: %v", err)
	}
	s.Close("done", util.ErrClosed)
	s.Close("again", util.ErrStale) // a second fatal event is a no-op
	waitDone(t, s)
	if n := replied.Load(); n < 2*idleRetireTicks-1 {
		t.Fatalf("Replied ran %d times for %d replies", n, 2*idleRetireTicks)
	}
	if err := <-failed; !errors.Is(err, util.ErrClosed) || len(failed) != 0 {
		t.Fatalf("Failed got %v (and %d more), want the first close only", err, len(failed))
	}
}
