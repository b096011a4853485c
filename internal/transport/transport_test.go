package transport

import (
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cfs/internal/proto"
	"cfs/internal/util"
)

type echoReq struct {
	Msg  string
	Data []byte
}
type echoResp struct {
	Msg  string
	Data []byte
}

// noWire is a body with no wire form: gob knows no such type.
type noWire struct{ N int }

func init() {
	proto.RegisterGob()
	// Register test-only types for the TCP path.
	registerTestTypes()
}

var registerOnce sync.Once

func registerTestTypes() {
	registerOnce.Do(func() {
		gob.Register(&echoReq{})
		gob.Register(&echoResp{})
	})
}

// rawBody encodes itself, as a MultiRaft batch does.
type rawBody []byte

func (r rawBody) AppendBinary(b []byte) ([]byte, error) { return append(b, r...), nil }

func echoHandler(op uint8, req any) (any, error) {
	r, ok := req.(*echoReq)
	if !ok {
		return nil, fmt.Errorf("unexpected request type %T", req)
	}
	if r.Msg == "boom" {
		return nil, fmt.Errorf("handler: %w", util.ErrNotFound)
	}
	return &echoResp{Msg: r.Msg + "/ack"}, nil
}

func runNetworkSuite(t *testing.T, nw Network, addr string) {
	t.Helper()
	state := []byte("handler state")
	var handled atomic.Int64
	h := func(op uint8, req any) (any, error) {
		handled.Add(1)
		if r, ok := req.(*echoReq); ok && r.Msg == "mutate" {
			r.Data[0] = 'X' // scribbles on its request, replies with its own state
			return &echoResp{Msg: "mutated", Data: state}, nil
		}
		return echoHandler(op, req)
	}
	ln, err := nw.Listen(addr, h)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { ln.Close() }()
	bound := ln.Addr()

	// Basic round trip.
	var resp echoResp
	if err := nw.Call(bound, 1, &echoReq{Msg: "hi"}, &resp); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if resp.Msg != "hi/ack" {
		t.Fatalf("resp = %+v", resp)
	}

	// Error propagation preserves sentinel matching.
	err = nw.Call(bound, 1, &echoReq{Msg: "boom"}, &resp)
	if err == nil || !errors.Is(err, util.ErrNotFound) {
		t.Fatalf("error not propagated as ErrNotFound: %v", err)
	}

	// nil resp pointer discards the body.
	if err := nw.Call(bound, 1, &echoReq{Msg: "x"}, nil); err != nil {
		t.Fatalf("Call with nil resp: %v", err)
	}

	// Concurrent calls.
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var r echoResp
			msg := fmt.Sprintf("m%d", i)
			if err := nw.Call(bound, 1, &echoReq{Msg: msg}, &r); err != nil {
				errs <- err
				return
			}
			if r.Msg != msg+"/ack" {
				errs <- fmt.Errorf("bad echo %q", r.Msg)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// A request and its reply cross as bytes: a handler writing to its
	// request leaves the caller's value as it was, and a caller writing
	// to its reply leaves the handler's state as it was.
	sent := &echoReq{Msg: "mutate", Data: []byte("caller data")}
	if err := nw.Call(bound, 1, sent, &resp); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(sent.Data) != "caller data" {
		t.Fatalf("the handler's write reached the caller's request: %q", sent.Data)
	}
	resp.Data[0] = 'Y'
	if string(state) != "handler state" {
		t.Fatalf("the caller's write reached the handler's state: %q", state)
	}

	// A body with no wire form never reaches the handler.
	before := handled.Load()
	err = nw.Call(bound, 1, &noWire{N: 1}, &resp)
	if _, remote := err.(*RemoteError); err == nil || remote || handled.Load() != before {
		t.Fatalf("a body with no wire form: err %v (%T), handler ran %d times", err, err, handled.Load()-before)
	}

	// A call after the peer restarted at the same address reaches the new
	// listener, though the pool still holds connections to the old one.
	ln.Close()
	if ln, err = nw.Listen(bound, h); err != nil {
		t.Fatal(err)
	}
	if err := nw.Call(bound, 1, &echoReq{Msg: "again"}, &resp); err != nil || resp.Msg != "again/ack" {
		t.Fatalf("call after the peer restarted: %+v, %v", resp, err)
	}
}

func TestMemoryNetwork(t *testing.T) {
	runNetworkSuite(t, NewMemory(), "node-a")
}

func TestTCPNetwork(t *testing.T) {
	runNetworkSuite(t, NewTCP(), "127.0.0.1:0")
}

// runStreamSuite exercises the per-peer stream path shared by Memory and
// TCP: repeated sends reuse one stream, a handler error stays with the
// receiver and does not break the stream, a self-encoding body reaches the
// handler as Raw bytes, and every frame arrives in order.
func runStreamSuite(t *testing.T, nw StreamNetwork, addr string) {
	t.Helper()
	got := make(chan string, 32) // room for every frame sent, so the handler never blocks
	ln, err := nw.Listen(addr, func(op uint8, req any) (any, error) {
		switch r := req.(type) {
		case *echoReq:
			switch r.Msg {
			case "boom":
				return nil, fmt.Errorf("handler: %w", util.ErrNotFound)
			case "mutate":
				r.Data[0] = 'X'
			}
			got <- r.Msg
		case Raw: // the bytes the body encoded itself to
			got <- "raw:" + string(r)
		default:
			return nil, fmt.Errorf("unexpected request type %T", req)
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	st := nw.OpenStream(ln.Addr())
	defer st.Close()

	var want []string
	for i := 0; i < 10; i++ {
		want = append(want, fmt.Sprintf("s%d", i))
	}
	want = append(want, "boom", "after-error")
	for _, msg := range want {
		// Nothing comes back on a stream: the handler's error is not the
		// sender's, and the frames behind it still arrive.
		if err := st.Send(1, &echoReq{Msg: msg}); err != nil {
			t.Fatalf("send %q: %v", msg, err)
		}
	}
	// A self-encoding body rides an op with no meta layout, as the lane's
	// batches ride OpRaftMessage: on a meta op, kindRaw means the meta layout.
	if err := st.Send(uint8(proto.OpRaftMessage), rawBody("bytes")); err != nil {
		t.Fatalf("send raw: %v", err)
	}
	want = append(want[:10], "after-error", "raw:bytes")
	expect := func(want ...string) {
		t.Helper()
		for i, w := range want {
			select {
			case msg := <-got:
				if msg != w {
					t.Fatalf("frame %d delivered %q, want %q", i, msg, w)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("frame %d (%q) never delivered", i, w)
			}
		}
	}
	expect(want...)

	// A handler writing to its request leaves the sender's value as it was.
	sent := &echoReq{Msg: "mutate", Data: []byte("caller data")}
	if err := st.Send(1, sent); err != nil {
		t.Fatalf("send: %v", err)
	}
	expect("mutate")
	if string(sent.Data) != "caller data" {
		t.Fatalf("the handler's write reached the sender's request: %q", sent.Data)
	}

	// A body with no wire form fails its send and never reaches the
	// handler; the stream carries the next send.
	if err := st.Send(1, &noWire{N: 1}); err == nil {
		t.Fatal("a body with no wire form was sent")
	}
	if err := st.Send(1, &echoReq{Msg: "after-nowire"}); err != nil {
		t.Fatalf("send after a failed one: %v", err)
	}
	expect("after-nowire")
}

func TestMemoryStream(t *testing.T) {
	runStreamSuite(t, NewMemory(), "stream-a")
}

func TestTCPStream(t *testing.T) {
	runStreamSuite(t, NewTCP(), "127.0.0.1:0")
}

// TestTCPStreamSendDoesNotWait: a stream send is one-way - it returns once
// its frame is written, while the receiver's handler is still parked on an
// earlier frame - and the parked frames are then handled in order.
func TestTCPStreamSendDoesNotWait(t *testing.T) {
	nw := NewTCP()
	park := make(chan struct{})
	got := make(chan string, 16) // room for every frame sent
	ln, err := nw.Listen("127.0.0.1:0", func(op uint8, req any) (any, error) {
		msg := req.(*echoReq).Msg
		if msg == "m0" {
			<-park
		}
		got <- msg
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	st := nw.OpenStream(ln.Addr())
	defer st.Close()
	var unpark sync.Once
	defer unpark.Do(func() { close(park) }) // first: Close waits for the handler

	const n = 8
	sent := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := st.Send(1, &echoReq{Msg: fmt.Sprintf("m%d", i)}); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	select {
	case err := <-sent:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%d sends did not return while the handler was parked on the first", n)
	}
	unpark.Do(func() { close(park) })
	for i := 0; i < n; i++ {
		select {
		case msg := <-got:
			if want := fmt.Sprintf("m%d", i); msg != want {
				t.Fatalf("handled %q, want %q", msg, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d never handled", i)
		}
	}
}

// TestTCPStreamWritesOneWayRawFrames reads what a stream puts on the wire:
// a self-encoding body is one kindRaw frame marked statusOneWay carrying
// exactly the body's bytes - no gob - and a gob body is one kindGob frame
// marked the same.
func TestTCPStreamWritesOneWayRawFrames(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	st := NewTCP().OpenStream(l.Addr().String())
	defer st.Close()
	if err := st.Send(9, rawBody("lane-bytes")); err != nil {
		t.Fatal(err)
	}
	if err := st.Send(9, &echoReq{Msg: "control"}); err != nil {
		t.Fatal(err)
	}
	conn, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for _, kind := range []uint8{kindRaw, kindGob} {
		var hdr [7]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			t.Fatal(err)
		}
		body := make([]byte, binary.BigEndian.Uint32(hdr[3:]))
		if _, err := io.ReadFull(conn, body); err != nil {
			t.Fatal(err)
		}
		if hdr[0] != 9 || hdr[1] != kind || hdr[2] != statusOneWay {
			t.Fatalf("frame header op %d kind %d status %d, want op 9 kind %d status %d",
				hdr[0], hdr[1], hdr[2], kind, statusOneWay)
		}
		if kind == kindRaw && string(body) != "lane-bytes" {
			t.Fatalf("raw body %q", body)
		}
	}
}

// TestTCPStreamRedialsAfterPeerRestart: a stream outlives its peer's
// restart. Nothing comes back on a stream, so a send to the dead connection
// can look fine - the kernel may take a write or two before the peer's
// reset arrives - and those are lost; a bounded number of them, after which
// the stream re-dials and sends arrive again, in order.
func TestTCPStreamRedialsAfterPeerRestart(t *testing.T) {
	nw := NewTCP()
	got := make(chan string, 64) // the loop below reads after every send, so a few at most queue
	h := func(op uint8, req any) (any, error) {
		got <- req.(*echoReq).Msg
		return nil, nil
	}
	ln, err := nw.Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr()
	st := nw.OpenStream(addr)
	defer st.Close()
	if err := st.Send(1, &echoReq{Msg: "one"}); err != nil {
		t.Fatalf("first send: %v", err)
	}
	if msg := <-got; msg != "one" {
		t.Fatalf("first frame %q", msg)
	}
	ln.Close()
	ln2, err := nw.Listen(addr, h)
	if err != nil {
		t.Fatal(err)
	}
	defer ln2.Close()

	const maxLost = 2
	var accepted []string // sends that returned nil, in order
	first := ""
	for deadline := time.Now().Add(5 * time.Second); first == ""; {
		if time.Now().After(deadline) {
			t.Fatalf("stream never reached the restarted peer; %d sends accepted", len(accepted))
		}
		msg := fmt.Sprintf("m%d", len(accepted))
		if st.Send(1, &echoReq{Msg: msg}) == nil {
			accepted = append(accepted, msg)
		}
		select {
		case first = <-got:
		case <-time.After(10 * time.Millisecond):
		}
	}
	lost := slices.Index(accepted, first)
	if lost < 0 || lost > maxLost {
		t.Fatalf("first frame at the restarted peer %q after %v accepted: %d sends lost, want <= %d",
			first, accepted, lost, maxLost)
	}
	// From the re-dial on, every send arrives, in order.
	expect := func(want string) {
		t.Helper()
		select {
		case msg := <-got:
			if msg != want {
				t.Fatalf("after the re-dial: %q arrived, want %q", msg, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("after the re-dial: %q never arrived", want)
		}
	}
	for _, want := range accepted[lost+1:] {
		expect(want)
	}
	for i := 0; i < 5; i++ {
		want := fmt.Sprintf("tail%d", i)
		if err := st.Send(1, &echoReq{Msg: want}); err != nil {
			t.Fatalf("send after the re-dial: %v", err)
		}
		expect(want)
	}
}

// TestTCPListenerCloseRacesDials: Close returns while dials land around it.
// A connection accepted just before Close swept the served set used to be
// registered after the sweep, so nothing closed it, its server goroutine
// blocked in read for good, and Close waited on that goroutine forever.
func TestTCPListenerCloseRacesDials(t *testing.T) {
	nw := NewTCP()
	for i := 0; i < 100; i++ {
		ln, err := nw.Listen("127.0.0.1:0", echoHandler)
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr()
		var mu sync.Mutex
		var conns []net.Conn // held open, so a leaked server end never sees EOF
		dialed := func() int {
			mu.Lock()
			defer mu.Unlock()
			return len(conns)
		}
		var wg sync.WaitGroup
		for d := 0; d < 4; d++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for dialed() < 64 {
					c, err := net.Dial("tcp", addr)
					if err != nil {
						return // the listener is gone
					}
					mu.Lock()
					conns = append(conns, c)
					mu.Unlock()
				}
			}()
		}
		for dialed() < 8 {
			time.Sleep(50 * time.Microsecond)
		}
		closed := make(chan struct{})
		go func() {
			ln.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: Close still waiting after 5 s", i)
		}
		wg.Wait()
		for _, c := range conns {
			c.Close()
		}
	}
}

func TestMemoryCallUnknownAddr(t *testing.T) {
	nw := NewMemory()
	err := nw.Call("nowhere", 1, &echoReq{}, nil)
	if !errors.Is(err, util.ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
}

func TestMemoryDoubleListen(t *testing.T) {
	nw := NewMemory()
	if _, err := nw.Listen("a", echoHandler); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Listen("a", echoHandler); !errors.Is(err, util.ErrExist) {
		t.Fatalf("double listen allowed: %v", err)
	}
}

func TestMemoryListenerClose(t *testing.T) {
	nw := NewMemory()
	ln, err := nw.Listen("a", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	if err := nw.Call("a", 1, &echoReq{}, nil); !errors.Is(err, util.ErrTimeout) {
		t.Fatalf("call after close: %v", err)
	}
	// Address is reusable after close.
	if _, err := nw.Listen("a", echoHandler); err != nil {
		t.Fatalf("re-listen after close: %v", err)
	}
}

func TestMemoryPartitionHeal(t *testing.T) {
	nw := NewMemory()
	ln, _ := nw.Listen("a", echoHandler)
	defer ln.Close()
	nw.Partition("a")
	var resp echoResp
	if err := nw.Call("a", 1, &echoReq{Msg: "hi"}, &resp); !errors.Is(err, util.ErrTimeout) {
		t.Fatalf("partitioned call succeeded: %v", err)
	}
	nw.Heal("a")
	if err := nw.Call("a", 1, &echoReq{Msg: "hi"}, &resp); err != nil {
		t.Fatalf("healed call failed: %v", err)
	}
}

func TestMemoryLatency(t *testing.T) {
	nw := NewMemory()
	ln, _ := nw.Listen("a", echoHandler)
	defer ln.Close()
	nw.SetLatency(20 * time.Millisecond)
	start := time.Now()
	var resp echoResp
	if err := nw.Call("a", 1, &echoReq{Msg: "hi"}, &resp); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("latency not applied: took %v", d)
	}
}

func TestMemoryCallCounter(t *testing.T) {
	nw := NewMemory()
	ln, _ := nw.Listen("a", echoHandler)
	defer ln.Close()
	before := nw.Calls()
	for i := 0; i < 5; i++ {
		nw.Call("a", 1, &echoReq{Msg: "hi"}, nil)
	}
	if got := nw.Calls() - before; got != 5 {
		t.Fatalf("Calls delta = %d, want 5", got)
	}
}

func TestTCPPacketFrames(t *testing.T) {
	nw := NewTCP()
	ln, err := nw.Listen("127.0.0.1:0", func(op uint8, req any) (any, error) {
		pkt, ok := req.(*proto.Packet)
		if !ok {
			return nil, fmt.Errorf("want packet, got %T", req)
		}
		if !pkt.VerifyCRC() {
			return nil, util.ErrCRCMismatch
		}
		return pkt.OKResponse([]byte("pong:" + string(pkt.Data))), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	req := proto.NewPacket(proto.OpDataRead, 7, 1, 2, []byte("ping"))
	var resp proto.Packet
	if err := nw.Call(ln.Addr(), uint8(proto.OpDataRead), req, &resp); err != nil {
		t.Fatal(err)
	}
	if string(resp.Data) != "pong:ping" || resp.ResultCode != proto.ResultOK {
		t.Fatalf("bad packet response: %+v", resp)
	}
}

func TestTCPDialFailure(t *testing.T) {
	nw := NewTCP()
	nw.DialTimeout = 200 * time.Millisecond
	err := nw.Call("127.0.0.1:1", 1, &echoReq{}, nil) // port 1: nothing listens
	if !errors.Is(err, util.ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
}

func TestTCPConnectionReuse(t *testing.T) {
	nw := NewTCP()
	ln, err := nw.Listen("127.0.0.1:0", func(op uint8, req any) (any, error) {
		return &echoResp{Msg: "ok"}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Sequential calls should reuse one pooled connection: just verify
	// they all succeed quickly (reuse is observable via the pool).
	for i := 0; i < 20; i++ {
		var r echoResp
		if err := nw.Call(ln.Addr(), 1, &echoReq{Msg: "x"}, &r); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	p := nw.pool(ln.Addr())
	p.mu.Lock()
	free := len(p.free)
	p.mu.Unlock()
	if free == 0 {
		t.Fatal("no pooled connections after sequential calls")
	}
	if free > maxPoolPerPeer {
		t.Fatalf("pool overflow: %d", free)
	}
}

func TestRemoteErrorUnclassified(t *testing.T) {
	re := EncodeError(fmt.Errorf("weird failure"))
	if re.Kind != -1 {
		t.Fatalf("unclassified error got kind %d", re.Kind)
	}
	if re.Unwrap() != nil {
		t.Fatal("unclassified error unwrapped to a sentinel")
	}
	if !errors.Is(EncodeError(fmt.Errorf("x: %w", util.ErrFull)), util.ErrFull) {
		t.Fatal("classified error lost its sentinel")
	}
}

func TestCopyIntoTypeMismatch(t *testing.T) {
	nw := NewMemory()
	ln, _ := nw.Listen("a", echoHandler)
	defer ln.Close()
	var wrong echoReq
	err := nw.Call("a", 1, &echoReq{Msg: "hi"}, &wrong)
	if err == nil {
		t.Fatal("type mismatch accepted")
	}
}

// ---------------------------------------------------------------------------
// Duplex packet streams (the pipelined write path's primitive).

// echoStreamHandler acks every packet with its ReqID and an op-stamped
// payload, closing when the peer does.
func echoStreamHandler(op uint8, s PacketStream) {
	for {
		pkt, err := s.Recv()
		if err != nil {
			return
		}
		ack := &proto.Packet{Op: pkt.Op, ReqID: pkt.ReqID, ResultCode: proto.ResultOK, Data: []byte{op}}
		if err := s.Send(ack); err != nil {
			return
		}
	}
}

func runPacketStreamSuite(t *testing.T, nw PacketStreamNetwork, addr string) {
	t.Helper()
	// Streams require a bound listener first.
	if err := nw.ListenStream(addr, echoStreamHandler); !errors.Is(err, util.ErrNotFound) {
		t.Fatalf("ListenStream before Listen: %v", err)
	}
	ln, err := nw.Listen(addr, echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	bound := ln.Addr()
	if err := nw.ListenStream(bound, echoStreamHandler); err != nil {
		t.Fatalf("ListenStream: %v", err)
	}

	st, err := nw.DialStream(bound, 42)
	if err != nil {
		t.Fatalf("DialStream: %v", err)
	}
	defer st.Close()

	// Pipelined sends: push the whole window before reading any ack.
	const n = 16
	for i := 1; i <= n; i++ {
		pkt := proto.NewPacket(proto.OpDataAppend, uint64(i), 7, 9, []byte(fmt.Sprintf("pkt-%d", i)))
		if err := st.Send(pkt); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	for i := 1; i <= n; i++ {
		ack, err := st.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if ack.ReqID != uint64(i) || ack.ResultCode != proto.ResultOK || ack.Data[0] != 42 {
			t.Fatalf("ack %d = %+v", i, ack)
		}
	}

	// Ordinary calls still work on the same address alongside streams.
	var resp echoResp
	if err := nw.Call(bound, 1, &echoReq{Msg: "mixed"}, &resp); err != nil || resp.Msg != "mixed/ack" {
		t.Fatalf("Call alongside stream: %+v, %v", resp, err)
	}
}

func TestMemoryPacketStream(t *testing.T) {
	runPacketStreamSuite(t, NewMemory(), "a")
}

func TestTCPPacketStream(t *testing.T) {
	runPacketStreamSuite(t, NewTCP(), "127.0.0.1:0")
}

func TestMemoryPacketStreamDialUnknown(t *testing.T) {
	m := NewMemory()
	if _, err := m.DialStream("ghost", 1); !errors.Is(err, util.ErrNotFound) {
		t.Fatalf("dial unknown: %v", err)
	}
}

func TestMemoryPacketStreamPartition(t *testing.T) {
	m := NewMemory()
	ln, err := m.Listen("srv", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := m.ListenStream("srv", echoStreamHandler); err != nil {
		t.Fatal(err)
	}
	st, err := m.DialStream("srv", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Send(proto.NewPacket(proto.OpDataAppend, 1, 1, 1, []byte("ok"))); err != nil {
		t.Fatalf("send before partition: %v", err)
	}
	if _, err := st.Recv(); err != nil {
		t.Fatalf("recv before partition: %v", err)
	}
	m.Partition("srv")
	if err := st.Send(proto.NewPacket(proto.OpDataAppend, 2, 1, 1, []byte("no"))); !errors.Is(err, util.ErrTimeout) {
		t.Fatalf("send into partition: %v", err)
	}
	m.Heal("srv")
	// A fresh stream works again after healing.
	st2, err := m.DialStream("srv", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if err := st2.Send(proto.NewPacket(proto.OpDataAppend, 3, 1, 1, []byte("yes"))); err != nil {
		t.Fatalf("send after heal: %v", err)
	}
}

// TestMemoryPacketStreamLatencyOverlaps verifies latency models propagation
// delay: N pipelined frames cost ~1 latency, not N latencies.
func TestMemoryPacketStreamLatencyOverlaps(t *testing.T) {
	m := NewMemory()
	ln, err := m.Listen("srv", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := m.ListenStream("srv", echoStreamHandler); err != nil {
		t.Fatal(err)
	}
	st, err := m.DialStream("srv", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const lat = 20 * time.Millisecond
	m.SetLatency(lat)
	defer m.SetLatency(0)
	start := time.Now()
	const n = 8
	for i := 1; i <= n; i++ {
		if err := st.Send(proto.NewPacket(proto.OpDataAppend, uint64(i), 1, 1, []byte("x"))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= n; i++ {
		if _, err := st.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	// Stop-and-wait would cost >= n*2*lat = 320ms; a full pipeline costs
	// about one round trip. Allow generous scheduling slack.
	if elapsed > time.Duration(n)*lat {
		t.Fatalf("pipelined round took %v, want ~%v (frames are not overlapping)", elapsed, 2*lat)
	}
}

func TestMemoryEndpointPacketStreamPartitionedSender(t *testing.T) {
	m := NewMemory()
	ln, err := m.Listen("srv", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := m.ListenStream("srv", echoStreamHandler); err != nil {
		t.Fatal(err)
	}
	ep, ok := m.Endpoint("node1").(PacketStreamNetwork)
	if !ok {
		t.Fatal("endpoint does not implement PacketStreamNetwork")
	}
	st, err := ep.DialStream("srv", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	m.Partition("node1") // isolate the SENDER, not the server
	if err := st.Send(proto.NewPacket(proto.OpDataAppend, 1, 1, 1, []byte("x"))); !errors.Is(err, util.ErrTimeout) {
		t.Fatalf("partitioned endpoint send: %v", err)
	}
}

// TestMemoryFreezeHalfOpensStreams: Freeze stalls frame DELIVERY to the
// frozen node without any error on either end (the TCP half-open failure
// mode), and Heal resumes delivery of the stalled frames in order.
func TestMemoryFreezeHalfOpensStreams(t *testing.T) {
	m := NewMemory()
	ln, err := m.Listen("srv", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := m.ListenStream("srv", echoStreamHandler); err != nil {
		t.Fatal(err)
	}
	st, err := m.DialStream("srv", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	m.Freeze("srv")
	if err := st.Send(proto.NewPacket(proto.OpDataAppend, 1, 1, 1, []byte("stalled"))); err != nil {
		t.Fatalf("send to frozen peer must succeed (it is half-open, not dead): %v", err)
	}
	got := make(chan *proto.Packet, 1)
	go func() {
		if pkt, err := st.Recv(); err == nil {
			got <- pkt
		}
	}()
	select {
	case <-got:
		t.Fatal("frozen peer echoed a frame")
	case <-time.After(50 * time.Millisecond):
	}
	m.Heal("srv")
	select {
	case pkt := <-got:
		if pkt.ReqID != 1 {
			t.Fatalf("resumed frame = %+v", pkt)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frame never delivered after heal")
	}
}

// TestMemoryDialCounter: Dials counts packet-stream dials (the session
// pool's reuse metric) and latency charges each dial one handshake.
func TestMemoryDialCounter(t *testing.T) {
	m := NewMemory()
	ln, err := m.Listen("srv", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := m.ListenStream("srv", echoStreamHandler); err != nil {
		t.Fatal(err)
	}
	if m.Dials() != 0 {
		t.Fatalf("fresh network reports %d dials", m.Dials())
	}
	for i := 0; i < 3; i++ {
		st, err := m.DialStream("srv", 1)
		if err != nil {
			t.Fatal(err)
		}
		st.Close()
	}
	if m.Dials() != 3 {
		t.Fatalf("Dials = %d, want 3", m.Dials())
	}
}
