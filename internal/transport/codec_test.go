package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
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

// opGob carries InodeGet bodies on gob: it is no metadata op, so it has no
// binary layout and the bodies go as every control-plane message does.
// opInodeGet carries them in the binary meta layout.
const (
	opGob      uint8 = 0
	opInodeGet       = uint8(proto.OpMetaInodeGet)
)

func inodeGetOnce(nw *TCP, addr string, op uint8, ino uint64) error {
	var resp proto.InodeGetResp
	if err := nw.Call(addr, op, &proto.InodeGetReq{PartitionID: 7, Inode: ino}, &resp); err != nil {
		return err
	}
	if resp.Info == nil || resp.Info.Inode != ino || len(resp.Info.Extents) != 2 {
		return fmt.Errorf("bad reply %+v", resp.Info)
	}
	return nil
}

// BenchmarkTCPCall is one InodeGetReq -> InodeGetResp round trip over a
// pooled loopback connection, the per-call cost of a metadata op on TCP:
// gob/ as the control plane still pays it, binary/ in the meta layout
// every client metadata RPC uses.
func BenchmarkTCPCall(b *testing.B) {
	for _, c := range []struct {
		name string
		op   uint8
	}{{"gob", opGob}, {"binary", opInodeGet}} {
		b.Run(c.name, func(b *testing.B) {
			nw := NewTCP()
			ln, err := nw.Listen("127.0.0.1:0", inodeGetHandler)
			if err != nil {
				b.Fatal(err)
			}
			defer ln.Close()
			if err := inodeGetOnce(nw, ln.Addr(), c.op, 1); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := inodeGetOnce(nw, ln.Addr(), c.op, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTCPCallAllocs bounds the allocations of one round trip, client and
// server together. On gob, type descriptors are sent once per connection,
// so a warm connection pays only for the values themselves; the binary
// layout allocates the decoded request and reply and little else.
func TestTCPCallAllocs(t *testing.T) {
	nw := NewTCP()
	ln, err := nw.Listen("127.0.0.1:0", inodeGetHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for _, c := range []struct {
		name  string
		op    uint8
		bound float64
	}{{"gob", opGob, 50}, {"binary", opInodeGet, 10}} { // measured: gob 19, binary 8
		var callErr error
		allocs := testing.AllocsPerRun(200, func() {
			if err := inodeGetOnce(nw, ln.Addr(), c.op, 9); err != nil {
				callErr = err
			}
		})
		if callErr != nil {
			t.Fatalf("%s: %v", c.name, callErr)
		}
		t.Logf("%s: %.0f allocations per round trip", c.name, allocs)
		if allocs > c.bound {
			t.Fatalf("%s: %.0f allocations per round trip, want <= %.0f", c.name, allocs, c.bound)
		}
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
		_, status, reply, err := newTCPConn(conn, 4096).readFrame(nil)
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

// metaCalls is one request and reply per metadata op with a binary layout.
var metaCalls = []struct {
	op        proto.Op
	req, resp any
}{
	{proto.OpMetaCreateInode, &proto.CreateInodeReq{PartitionID: 1, Type: proto.TypeSymlink, LinkTarget: []byte("t")},
		&proto.CreateInodeResp{Info: &proto.Inode{Inode: 5, Type: proto.TypeSymlink, LinkTarget: []byte("t"), NLink: 1}}},
	{proto.OpMetaUnlinkInode, &proto.UnlinkInodeReq{PartitionID: 1, Inode: 5},
		&proto.UnlinkInodeResp{Info: &proto.Inode{Inode: 5, Flag: proto.FlagDeleteMark,
			Extents: []proto.ExtentKey{{PartitionID: 2, ExtentID: 3, Size: 10}}}}},
	{proto.OpMetaEvictInode, &proto.EvictInodeReq{PartitionID: 1, Inode: 5}, &proto.EvictInodeResp{}},
	{proto.OpMetaLinkInode, &proto.LinkInodeReq{PartitionID: 1, Inode: 6}, &proto.LinkInodeResp{Info: &proto.Inode{Inode: 6, NLink: 2}}},
	{proto.OpMetaCreateDentry, &proto.CreateDentryReq{PartitionID: 1, ParentID: 1, Name: "f", Inode: 6}, &proto.CreateDentryResp{}},
	{proto.OpMetaDeleteDentry, &proto.DeleteDentryReq{PartitionID: 1, ParentID: 1, Name: "f"}, &proto.DeleteDentryResp{Inode: 6}},
	{proto.OpMetaUpdateDentry, &proto.UpdateDentryReq{PartitionID: 1, ParentID: 1, Name: "f", Inode: 7}, &proto.UpdateDentryResp{OldInode: 6}},
	{proto.OpMetaLookup, &proto.LookupReq{PartitionID: 1, ParentID: 1, Name: "f"}, &proto.LookupResp{Inode: 7, Type: proto.TypeDir}},
	{proto.OpMetaInodeGet, &proto.InodeGetReq{PartitionID: 1, Inode: 7}, &proto.InodeGetResp{}},
	{proto.OpMetaBatchInodeGet, &proto.BatchInodeGetReq{PartitionID: 1, Inodes: []uint64{7, 8}},
		&proto.BatchInodeGetResp{Infos: []*proto.Inode{{Inode: 7}, {Inode: 8, Size: 1}}}},
	{proto.OpMetaReadDir, &proto.ReadDirReq{PartitionID: 1, ParentID: 1},
		&proto.ReadDirResp{Children: []proto.Dentry{{ParentID: 1, Name: "a", Inode: 7}, {ParentID: 1, Name: "b", Inode: 8}}}},
	{proto.OpMetaSetAttr, &proto.SetAttrReq{PartitionID: 1, Inode: 7, Valid: proto.AttrSize, Size: 3, ModifyTime: -2}, &proto.SetAttrResp{}},
	{proto.OpMetaAppendExtentKeys, &proto.AppendExtentKeysReq{PartitionID: 1, Inode: 7, Size: 4096,
		Extents: []proto.ExtentKey{{PartitionID: 2, ExtentID: 9, Size: 4096, CRC: 1}}}, &proto.AppendExtentKeysResp{}},
}

// TestTCPMetaOpsCrossInBinary: every metadata op's request reaches the
// handler as its typed struct and its reply comes back into the caller's
// struct, all on one connection; a handler error still comes back as a
// RemoteError, and a reply the caller discards is read past.
func TestTCPMetaOpsCrossInBinary(t *testing.T) {
	if len(metaCalls) != 13 {
		t.Fatalf("%d rows, want one per metadata op", len(metaCalls))
	}
	nw := NewTCP()
	ln, err := nw.Listen("127.0.0.1:0", func(op uint8, req any) (any, error) {
		for _, c := range metaCalls {
			if proto.Op(op) != c.op {
				continue
			}
			if !reflect.DeepEqual(req, c.req) {
				return nil, fmt.Errorf("%v: handler got %#v", c.op, req)
			}
			if c.op == proto.OpMetaInodeGet {
				return nil, fmt.Errorf("inode gone: %w", util.ErrNotFound)
			}
			return c.resp, nil
		}
		return nil, fmt.Errorf("op %d", op)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	addr := ln.Addr()
	var first *tcpConn
	for _, c := range metaCalls {
		got := reflect.New(reflect.TypeOf(c.resp).Elem()).Interface()
		err := nw.Call(addr, uint8(c.op), c.req, got)
		if c.op == proto.OpMetaInodeGet {
			if !errors.Is(err, util.ErrNotFound) {
				t.Fatalf("%v: handler error came back as %v", c.op, err)
			}
		} else if err != nil || !reflect.DeepEqual(got, c.resp) {
			t.Fatalf("%v: reply %#v, %v", c.op, got, err)
		}
		if err := nw.Call(addr, uint8(c.op), c.req, nil); err != nil && c.op != proto.OpMetaInodeGet {
			t.Fatalf("%v with the reply discarded: %v", c.op, err)
		}
		if conn := pooledConn(t, nw, addr); first == nil {
			first = conn
		} else if conn != first {
			t.Fatalf("%v ran on a new connection", c.op)
		}
	}
}

// TestTCPMetaFramesAreRaw reads the frames off the wire: a metadata request
// is one kindRaw frame whose body is its binary layout, with no gob; a
// reply the client cannot decode fails the call and drops the connection.
func TestTCPMetaFramesAreRaw(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	req := &proto.LookupReq{PartitionID: 3, ParentID: 1, Name: "file"}
	want, _ := proto.AppendMeta(nil, proto.OpMetaLookup, false, req)
	callErr := make(chan error, 1)
	nw := NewTCP()
	go func() { callErr <- nw.Call(l.Addr().String(), uint8(proto.OpMetaLookup), req, &proto.LookupResp{}) }()
	conn, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var hdr [7]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatal(err)
	}
	body := make([]byte, binary.BigEndian.Uint32(hdr[3:]))
	if _, err := io.ReadFull(conn, body); err != nil {
		t.Fatal(err)
	}
	if hdr[0] != uint8(proto.OpMetaLookup) || hdr[1] != kindRaw || hdr[2] != statusRequest || !bytes.Equal(body, want) {
		t.Fatalf("frame op %d kind %d status %d body %x, want kindRaw %x", hdr[0], hdr[1], hdr[2], body, want)
	}
	// A reply with a byte past the layout.
	reply, _ := proto.AppendMeta([]byte{hdr[0], kindRaw, statusOK, 0, 0, 0, 0}, proto.OpMetaLookup, true,
		&proto.LookupResp{Inode: 9})
	reply = append(reply, 0)
	binary.BigEndian.PutUint32(reply[3:], uint32(len(reply)-7))
	if _, err := conn.Write(reply); err != nil {
		t.Fatal(err)
	}
	if err := <-callErr; !errors.Is(err, util.ErrInvalidArgument) {
		t.Fatalf("call with a malformed reply: %v", err)
	}
	p := nw.pool(l.Addr().String())
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) != 0 {
		t.Fatal("the malformed reply's connection went back to the pool")
	}
}
