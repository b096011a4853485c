package transport

import (
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"os"
	"testing"
	"time"

	"cfs/internal/proto"
	"cfs/internal/util"
)

// inodeGetHandler answers InodeGet the way a metanode does: a fresh inode
// with a couple of extent keys, so the response has nested types.
func inodeGetHandler(op uint8, req any) (any, error) {
	r, ok := req.(*proto.InodeGetReq)
	if !ok {
		return nil, fmt.Errorf("unexpected request type %T", req)
	}
	return &proto.InodeGetResp{Info: &proto.Inode{
		Inode: r.Inode, Type: proto.TypeFile, NLink: 1, Size: 8192,
		Extents: []proto.ExtentKey{
			{PartitionID: r.PartitionID, ExtentID: 3, Size: 4096},
			{PartitionID: r.PartitionID, ExtentID: 4, FileOffset: 4096, Size: 4096},
		},
	}}, nil
}

func inodeGetOnce(nw *TCP, addr string, ino uint64) error {
	var resp proto.InodeGetResp
	if err := nw.Call(addr, 1, &proto.InodeGetReq{PartitionID: 7, Inode: ino}, &resp); err != nil {
		return err
	}
	if resp.Info == nil || resp.Info.Inode != ino || len(resp.Info.Extents) != 2 {
		return fmt.Errorf("bad reply %+v", resp.Info)
	}
	return nil
}

// BenchmarkTCPCall is one gob InodeGetReq -> InodeGetResp round trip over a
// pooled loopback connection: the per-call cost of every metadata op on TCP.
func BenchmarkTCPCall(b *testing.B) {
	nw := NewTCP()
	ln, err := nw.Listen("127.0.0.1:0", inodeGetHandler)
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	if err := inodeGetOnce(nw, ln.Addr(), 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := inodeGetOnce(nw, ln.Addr(), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTCPCallAllocs bounds the allocations of one gob round trip, client
// and server together: type descriptors are sent once per connection, so
// a warm connection pays only for the values themselves.
func TestTCPCallAllocs(t *testing.T) {
	nw := NewTCP()
	ln, err := nw.Listen("127.0.0.1:0", inodeGetHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var callErr error
	allocs := testing.AllocsPerRun(200, func() {
		if err := inodeGetOnce(nw, ln.Addr(), 9); err != nil {
			callErr = err
		}
	})
	if callErr != nil {
		t.Fatal(callErr)
	}
	if allocs > 50 {
		t.Fatalf("%.0f allocations per round trip, want <= 50", allocs)
	}
}

// serverConns returns the connections the listener at addr currently serves.
func serverConns(t *testing.T, nw *TCP, addr string) []net.Conn {
	t.Helper()
	nw.mu.Lock()
	l := nw.listeners[addr]
	nw.mu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []net.Conn
	for c := range l.conns {
		out = append(out, c)
	}
	return out
}

// pooledConn returns the only idle pooled connection to addr.
func pooledConn(t *testing.T, nw *TCP, addr string) *tcpConn {
	t.Helper()
	p := nw.pool(addr)
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) != 1 {
		t.Fatalf("%d idle pooled connections, want 1", len(p.free))
	}
	return p.free[0]
}

type (
	codecA struct{ N int }
	codecB struct {
		S  string
		Xs []uint64
	}
	codecC struct{ M map[string]int32 }
	codecD struct {
		Inner *codecA
		Keys  []proto.ExtentKey
	}
	unregistered struct{ X int }
)

func init() {
	for _, v := range []any{&codecA{}, &codecB{}, &codecC{}, &codecD{}} {
		gob.Register(v)
	}
}

// codecHandler echoes every gob type back as the next one in the cycle,
// answers packets, and fails the requests that ask for it.
func codecHandler(op uint8, req any) (any, error) {
	switch r := req.(type) {
	case *codecA:
		if r.N < 0 {
			return nil, fmt.Errorf("codec: %w", util.ErrStale)
		}
		return &codecB{S: fmt.Sprint(r.N), Xs: []uint64{uint64(r.N)}}, nil
	case *codecB:
		return &codecC{M: map[string]int32{r.S: int32(len(r.Xs))}}, nil
	case *codecC:
		return &codecD{Inner: &codecA{N: len(r.M)}, Keys: []proto.ExtentKey{{ExtentID: 1}}}, nil
	case *codecD:
		return &codecA{N: r.Inner.N + len(r.Keys)}, nil
	case *proto.Packet:
		return r.OKResponse(append([]byte("re:"), r.Data...)), nil
	case *echoReq:
		if r.Msg == "unregistered" {
			return &unregistered{X: 1}, nil
		}
		return &echoResp{Msg: r.Msg}, nil
	}
	return nil, fmt.Errorf("codec: unexpected %T", req)
}

// TestTCPOneConnectionCarriesEveryKind sends 500 sequential calls down one
// pooled connection, cycling gob types, packets, handler errors and
// discarded replies; the connection's gob streams must stay in step, so
// the listener sees exactly one connection the whole time.
func TestTCPOneConnectionCarriesEveryKind(t *testing.T) {
	nw := NewTCP()
	ln, err := nw.Listen("127.0.0.1:0", codecHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr()
	var first *tcpConn
	var served net.Conn
	for i := 0; i < 500; i++ {
		var err error
		switch i % 7 {
		case 0:
			var r codecB
			if err = nw.Call(addr, 1, &codecA{N: i}, &r); err == nil && r.S != fmt.Sprint(i) {
				err = fmt.Errorf("codecA -> %+v", r)
			}
		case 1:
			var r codecC
			if err = nw.Call(addr, 1, &codecB{S: "k", Xs: []uint64{1, 2}}, &r); err == nil && r.M["k"] != 2 {
				err = fmt.Errorf("codecB -> %+v", r)
			}
		case 2:
			var r codecD
			if err = nw.Call(addr, 1, &codecC{M: map[string]int32{"a": 1, "b": 2}}, &r); err == nil && r.Inner.N != 2 {
				err = fmt.Errorf("codecC -> %+v", r)
			}
		case 3:
			var r codecA
			if err = nw.Call(addr, 1, &codecD{Inner: &codecA{N: i}, Keys: make([]proto.ExtentKey, 3)}, &r); err == nil && r.N != i+3 {
				err = fmt.Errorf("codecD -> %+v", r)
			}
		case 4:
			var r proto.Packet
			req := proto.NewPacket(proto.OpDataRead, uint64(i), 1, 2, []byte(fmt.Sprint(i)))
			if err = nw.Call(addr, 1, req, &r); err == nil && string(r.Data) != "re:"+fmt.Sprint(i) {
				err = fmt.Errorf("packet -> %q", r.Data)
			}
		case 5:
			if err = nw.Call(addr, 1, &codecA{N: -1}, &codecB{}); errors.Is(err, util.ErrStale) {
				err = nil
			} else {
				err = fmt.Errorf("handler error came back as %v", err)
			}
		case 6:
			err = nw.Call(addr, 1, &codecB{S: "drop"}, nil)
		}
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if c := pooledConn(t, nw, addr); first == nil {
			first = c
		} else if c != first {
			t.Fatalf("call %d ran on a new connection", i)
		}
		conns := serverConns(t, nw, addr)
		if len(conns) != 1 || (served != nil && conns[0] != served) {
			t.Fatalf("call %d: listener serves %d connections, want the first one only", i, len(conns))
		}
		served = conns[0]
	}
}

// TestTCPBodyMustBeConsumedExactly hand-builds request frames: a gob body
// is answered, and the same body with one byte past the encoded value makes
// the server drop the connection instead of answering.
func TestTCPBodyMustBeConsumedExactly(t *testing.T) {
	nw := NewTCP()
	ln, err := nw.Listen("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for extra := 0; extra <= 1; extra++ {
		conn, err := net.Dial("tcp", ln.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		var v any = &echoReq{Msg: "hi"}
		frame := frameBuffer{1, kindGob, statusRequest, 0, 0, 0, 0}
		if err := gob.NewEncoder(&frame).Encode(&v); err != nil {
			t.Fatal(err)
		}
		frame = append(frame, make([]byte, extra)...)
		binary.BigEndian.PutUint32(frame[3:], uint32(len(frame)-7))
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		_, status, reply, err := newTCPConn(conn, 4096).readFrame()
		if extra == 0 {
			if r, ok := reply.(*echoResp); err != nil || status != statusOK || !ok || r.Msg != "hi/ack" {
				t.Fatalf("exact body: status %d reply %+v, %v", status, reply, err)
			}
		} else if err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("body with a trailing byte: status %d reply %+v, %v", status, reply, err)
		}
	}
}

// TestTCPCodecErrorDropsConnection: a reply the server cannot encode and a
// reply the client cannot accept each fail the call, and because a gob
// stream cannot be resynchronised the next call runs on a fresh
// connection and succeeds.
func TestTCPCodecErrorDropsConnection(t *testing.T) {
	nw := NewTCP()
	ln, err := nw.Listen("127.0.0.1:0", codecHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr()
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"unregistered reply type", func() error {
			return nw.Call(addr, 1, &echoReq{Msg: "unregistered"}, &echoResp{})
		}},
		{"wrong resp type", func() error {
			return nw.Call(addr, 1, &codecA{N: 1}, &codecC{})
		}},
	} {
		var r echoResp
		if err := nw.Call(addr, 1, &echoReq{Msg: "warm"}, &r); err != nil || r.Msg != "warm" {
			t.Fatalf("%s: warm-up call: %+v, %v", tc.name, r, err)
		}
		before := pooledConn(t, nw, addr)
		if err := tc.call(); err == nil {
			t.Fatalf("%s: call succeeded", tc.name)
		}
		if err := nw.Call(addr, 1, &echoReq{Msg: "after"}, &r); err != nil || r.Msg != "after" {
			t.Fatalf("%s: call after the failure: %+v, %v", tc.name, r, err)
		}
		if pooledConn(t, nw, addr) == before {
			t.Fatalf("%s: the failed call's connection went back to the pool", tc.name)
		}
	}
}
