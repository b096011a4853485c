package datanode

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"cfs/internal/clock"
	"cfs/internal/proto"
	"cfs/internal/transport"
)

// readReplies sends the same read - extent range plus client epoch - to
// addr twice, as a unary OpDataRead Call and as a request on a fresh read
// stream, and returns each path's (first) reply frame.
func (tc *testCluster) readReplies(t *testing.T, addr string, pid, eid, off uint64, length uint32, epoch uint64) (unary, streamed *proto.Packet) {
	t.Helper()
	lenBuf := make([]byte, 4)
	binary.BigEndian.PutUint32(lenBuf, length)
	call := proto.NewPacket(proto.OpDataRead, 1, pid, eid, lenBuf)
	call.ExtentOffset, call.Epoch = off, epoch
	unary = new(proto.Packet)
	if err := tc.nw.Call(addr, uint8(proto.OpDataRead), call, unary); err != nil {
		t.Fatal(err)
	}
	st := tc.openReadStream(t, addr)
	if err := st.Send(&proto.Packet{
		Op: proto.OpDataRead, ReqID: 1, PartitionID: pid, ExtentID: eid,
		ExtentOffset: off, FileOffset: uint64(length), Epoch: epoch,
	}); err != nil {
		t.Fatal(err)
	}
	streamed, err := st.Recv()
	if err != nil {
		t.Fatal(err)
	}
	return unary, streamed
}

// TestReadAdmissionSameOnBothPaths drives every refusal of admitRead
// through BOTH read paths - the unary handler and a read stream - and
// requires the same answer: result code, message and, for the committed
// clamp, the replica's horizon. The two used to be hand-copied lists that
// drifted (no epoch fence and a different clamp code on the unary side).
func TestReadAdmissionSameOnBothPaths(t *testing.T) {
	const pid, size = 100, 10
	cases := []struct {
		name string
		// arm raises the fence on the replica it returns the index of.
		arm         func(t *testing.T, tc *testCluster, eid uint64) int
		epoch       uint64
		off, length uint64
		code        uint8
		committed   uint64
	}{
		{name: "lapsed lease", code: proto.ResultErrLeaseExpired, length: size,
			arm: func(_ *testing.T, tc *testCluster, _ uint64) int {
				tc.nodes[0].leaseGranted.Store(true)
				tc.nodes[0].leaseUntil.Store(1) // a deadline long past
				return 0
			}},
		{name: "stale epoch", code: proto.ResultErrStaleEpoch, length: size, epoch: 9},
		{name: "range past committed", code: proto.ResultErrClamped, off: 4, length: size, committed: size},
		{name: "extent behind announced overwrite version", code: proto.ResultErrIO, length: size,
			arm: func(t *testing.T, tc *testCluster, eid uint64) int {
				// The follower has heard of an overwrite it has not applied.
				tc.readEventually(t, tc.addrs[1], pid, eid, 0, size) // its clamp admits the range
				tc.nodes[1].Partition(pid).noteOvwSeen(eid, 1)
				return 1
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tc := startCluster(t, 3)
			tc.createPartition(t, pid)
			eid := tc.createExtent(t, pid)
			tc.append(t, pid, eid, make([]byte, size))
			replica := 0
			if c.arm != nil {
				replica = c.arm(t, tc, eid)
			}
			unary, streamed := tc.readReplies(t, tc.addrs[replica], pid, eid, c.off, uint32(c.length), c.epoch)
			for path, got := range map[string]*proto.Packet{"unary": unary, "stream": streamed} {
				if got.ResultCode != c.code || got.Committed != c.committed {
					t.Errorf("%s: rc=%d committed=%d (%s), want rc=%d committed=%d",
						path, got.ResultCode, got.Committed, got.Data, c.code, c.committed)
				}
			}
			if string(unary.Data) != string(streamed.Data) {
				t.Errorf("refusal text differs:\n unary:  %s\n stream: %s", unary.Data, streamed.Data)
			}
		})
	}
}

// shortPacketCluster is a one-node cluster on the given fabric holding one
// readable extent, for the malformed-request regressions below: a payload
// shorter than the length field it should carry used to index out of range
// inside the handler, and nothing recovers a handler panic - one packet
// from outside took the whole server process down.
func shortPacketCluster(t *testing.T, fabric string) (tc *testCluster, eid uint64) {
	t.Helper()
	tc = startClusterOn(t, 1, fabric, nil)
	tc.createPartition(t, 7)
	eid = tc.createExtent(t, 7)
	tc.append(t, 7, eid, []byte("still serving"))
	return tc, eid
}

func (tc *testCluster) refusedAsArg(t *testing.T, pkt *proto.Packet) {
	t.Helper()
	var resp proto.Packet
	if err := tc.nw.Call(tc.addrs[0], uint8(pkt.Op), pkt, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ResultCode != proto.ResultErrArg {
		t.Fatalf("%s with a %d-byte payload: rc=%d (%s), want ResultErrArg", pkt.Op, len(pkt.Data), resp.ResultCode, resp.Data)
	}
}

func TestShortReadPacketRefused(t *testing.T) {
	for _, fabric := range []string{"memory", "tcp"} {
		t.Run(fabric, func(t *testing.T) {
			tc, eid := shortPacketCluster(t, fabric)
			for _, payload := range [][]byte{nil, {0, 0, 13}} {
				tc.refusedAsArg(t, proto.NewPacket(proto.OpDataRead, 1, 7, eid, payload))
			}
			if data, rr := tc.read(t, tc.addrs[0], 7, eid, 0, 13); rr.ResultCode != proto.ResultOK || string(data) != "still serving" {
				t.Fatalf("read after the malformed request = %q rc=%d", data, rr.ResultCode)
			}
		})
	}
}

func TestShortMarkDeletePacketRefused(t *testing.T) {
	for _, fabric := range []string{"memory", "tcp"} {
		t.Run(fabric, func(t *testing.T) {
			tc, eid := shortPacketCluster(t, fabric)
			// The last payload is a client's 0/0, which only a leader's
			// hop may send: it would delete the extent.
			for _, payload := range [][]byte{nil, {0, 0, 0, 0, 0, 0, 13}, make([]byte, 8)} {
				tc.refusedAsArg(t, proto.NewPacket(proto.OpDataMarkDelete, 1, 7, eid, payload))
			}
			if data, rr := tc.read(t, tc.addrs[0], 7, eid, 0, 13); rr.ResultCode != proto.ResultOK || string(data) != "still serving" {
				t.Fatalf("read after the malformed request = %q rc=%d (the extent must be untouched)", data, rr.ResultCode)
			}
		})
	}
}

// TestReadLeaseStartsAtSend: the master stamps a heartbeat when it
// receives it, and declares the node dead NodeTimeout after that stamp.
// The read lease the reply grants must therefore run from when the beat
// was SENT; counted from the reply's arrival it outlived the master's view
// by one reply transit, and a node the master may already have declared
// dead kept serving reads. The stub master below takes a transit's worth
// of the node's clock before it answers.
func TestReadLeaseStartsAtSend(t *testing.T) {
	const lease, transit = 10 * time.Second, 300 * time.Millisecond
	nw := transport.NewMemory()
	clk := clock.NewManual(time.Now())
	ln, err := nw.Listen("master", func(op uint8, _ any) (any, error) {
		switch proto.Op(op) {
		case proto.OpMasterRegisterNode:
			return &proto.RegisterNodeResp{}, nil
		case proto.OpMasterHeartbeat:
			clk.Advance(transit)
			return &proto.HeartbeatResp{ReadLeaseMillis: lease.Milliseconds()}, nil
		}
		return nil, fmt.Errorf("stub master: op %d", op)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	dn, err := Start(nw, Config{Addr: "solo", MasterAddr: "master", Dir: t.TempDir(), Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dn.Close)
	tc := &testCluster{nw: nw, nodes: []*DataNode{dn}, addrs: []string{"solo"}}
	tc.createPartition(t, 1)
	eid := tc.createExtent(t, 1)
	tc.append(t, 1, eid, []byte("leased"))

	dn.SendHeartbeat()
	clk.Advance(lease - transit - time.Nanosecond)
	if _, resp := tc.read(t, "solo", 1, eid, 0, 6); resp.ResultCode != proto.ResultOK {
		t.Fatalf("read 1ns before send+lease: rc=%d, want OK", resp.ResultCode)
	}
	clk.Advance(time.Nanosecond)
	if _, resp := tc.read(t, "solo", 1, eid, 0, 6); resp.ResultCode != proto.ResultErrLeaseExpired {
		t.Fatalf("read at send+lease: rc=%d, want ResultErrLeaseExpired", resp.ResultCode)
	}
}
