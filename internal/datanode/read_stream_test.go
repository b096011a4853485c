package datanode

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"cfs/internal/proto"
	"cfs/internal/transport"
	"cfs/internal/util"
)

// openReadStream dials a read session to one replica.
func (tc *testCluster) openReadStream(t *testing.T, addr string) transport.PacketStream {
	t.Helper()
	st, err := tc.nw.DialStream(addr, uint8(proto.OpDataReadStream))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// streamRead sends one read request on an open read session and collects
// its reply: the concatenated chunk payloads on success, or the error
// frame's code and message.
func streamRead(t *testing.T, st transport.PacketStream, seq, pid, eid, off, length uint64) ([]byte, uint8, string) {
	t.Helper()
	if err := st.Send(&proto.Packet{
		Op: proto.OpDataRead, ReqID: seq, PartitionID: pid, ExtentID: eid,
		ExtentOffset: off, FileOffset: length,
	}); err != nil {
		t.Fatal(err)
	}
	var out []byte
	for {
		f, err := st.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if f.ReqID != seq {
			t.Fatalf("reply seq = %d, want %d", f.ReqID, seq)
		}
		if f.ResultCode != proto.ResultOK {
			msg := string(f.Data)
			f.Release()
			return nil, f.ResultCode, msg
		}
		if !f.VerifyCRC() {
			t.Fatalf("chunk at %d failed CRC", f.ExtentOffset)
		}
		// Received frames arrive holding one pool reference; the copy into
		// out is this consumer's last use of the payload.
		out = append(out, f.Data...)
		f.Release()
		if f.FileOffset == 0 {
			if uint64(len(out)) != length {
				t.Fatalf("final chunk closed the request at %d of %d bytes", len(out), length)
			}
			return out, proto.ResultOK, ""
		}
	}
}

// TestReadStreamChunkFraming: a request larger than the chunk size comes
// back as multiple CRC-framed chunks whose remaining-bytes countdown
// self-delimits the request, pipelined with a second request behind it.
func TestReadStreamChunkFraming(t *testing.T) {
	assertChunkBalance(t)
	tc := startCluster(t, 3)
	tc.createPartition(t, 100)
	eid := tc.createExtent(t, 100)
	payload := bytes.Repeat([]byte("abcdefgh"), (util.DefaultPacketSize+util.DefaultPacketSize/2)/8)
	tc.append(t, 100, eid, payload)

	st := tc.openReadStream(t, tc.leaderAddr())
	// Two requests pushed before any reply is read (the point of the
	// pipeline); replies must come back strictly in request order.
	if err := st.Send(&proto.Packet{
		Op: proto.OpDataRead, ReqID: 1, PartitionID: 100, ExtentID: eid,
		ExtentOffset: 0, FileOffset: uint64(len(payload)),
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Send(&proto.Packet{
		Op: proto.OpDataRead, ReqID: 2, PartitionID: 100, ExtentID: eid,
		ExtentOffset: 8, FileOffset: 16,
	}); err != nil {
		t.Fatal(err)
	}
	var first []byte
	chunks := 0
	for {
		f, err := st.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if f.ReqID != 1 || f.ResultCode != proto.ResultOK {
			t.Fatalf("reply = %+v, want ok chunks for seq 1", f)
		}
		if !f.VerifyCRC() {
			t.Fatal("chunk failed CRC")
		}
		chunks++
		first = append(first, f.Data...)
		f.Release()
		if f.FileOffset == 0 {
			break
		}
	}
	if chunks < 2 {
		t.Fatalf("request of %d bytes came back in %d chunk(s), want >= 2", len(payload), chunks)
	}
	if !bytes.Equal(first, payload) {
		t.Fatal("chunked read content mismatch")
	}
	f, err := st.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if f.ReqID != 2 || f.ResultCode != proto.ResultOK || string(f.Data) != string(payload[8:24]) {
		t.Fatalf("second pipelined request reply = %+v", f)
	}
	f.Release()
}

// TestFollowerStreamReadNeverExceedsCommitted is the streaming twin of
// TestFollowerReadNeverExceedsCommitted: a follower holding a replicated-
// but-uncommitted tail must refuse to stream it, because some sibling
// replica may be missing those bytes (Section 2.2.5). Recovery realigns
// and the same session then serves the promoted tail.
func TestFollowerStreamReadNeverExceedsCommitted(t *testing.T) {
	for _, fabric := range []string{"memory", "tcp"} {
		t.Run(fabric, func(t *testing.T) { testFollowerStreamClamp(t, fabric) })
	}
}

func testFollowerStreamClamp(t *testing.T, fabric string) {
	assertChunkBalance(t)
	tc := startClusterOn(t, 3, fabric, func(i int, cfg *Config) {
		cfg.AckDeadline = 150 * time.Millisecond
		cfg.KeepaliveInterval = 50 * time.Millisecond
	})
	tc.createPartition(t, 100)
	st := tc.openWriteStream(t)
	eid := streamCreateExtent(t, st, 100)

	if err := st.Send(streamAppendPkt(2, 100, eid, []byte("commit"))); err != nil {
		t.Fatal(err)
	}
	if ack, err := st.Recv(); err != nil || ack.ResultCode != proto.ResultOK {
		t.Fatalf("baseline ack = %+v, %v", ack, err)
	} else {
		ack.Release()
	}
	// Wait for the drain gossip to teach follower 1 the baseline.
	if data := tc.readEventually(t, tc.addrs[1], 100, eid, 0, 6); string(data) != "commit" {
		t.Fatalf("follower baseline read = %q", data)
	}

	// Half-open follower 2 and push a tail: follower 1 applies it but the
	// all-replica commit never assembles (the PR 3 split-replica state).
	tc.nw.Freeze(tc.addrs[2])
	t.Cleanup(func() { tc.nw.Heal(tc.addrs[2]) })
	if err := st.Send(streamAppendPkt(3, 100, eid, []byte("tail"))); err != nil {
		t.Fatal(err)
	}
	if ack, err := st.Recv(); err != nil || ack.ResultCode == proto.ResultOK {
		t.Fatalf("stranded append ack = %+v, %v", ack, err)
	} else {
		ack.Release()
	}
	f1 := tc.nodes[1].Partition(100)
	deadline := time.Now().Add(5 * time.Second)
	for leaderStoreSize(t, f1, eid) != 10 {
		if time.Now().After(deadline) {
			t.Fatal("follower 1 never stored the forwarded tail")
		}
		time.Sleep(time.Millisecond)
	}

	rst := tc.openReadStream(t, tc.addrs[1])
	if data, rc, _ := streamRead(t, rst, 1, 100, eid, 0, 6); rc != proto.ResultOK || string(data) != "commit" {
		t.Fatalf("follower committed stream read rc=%d data=%q", rc, data)
	}
	if _, rc, msg := streamRead(t, rst, 2, 100, eid, 0, 10); rc == proto.ResultOK {
		t.Fatal("follower streamed bytes beyond the all-replica committed offset")
	} else if !strings.Contains(msg, "committed") {
		t.Fatalf("clamp refusal message = %q", msg)
	}
	if _, rc, _ := streamRead(t, rst, 3, 100, eid, 6, 4); rc == proto.ResultOK {
		t.Fatal("follower streamed the uncommitted tail")
	}
	// Per-request containment: the refusals above must not have poisoned
	// the session - the committed range still streams on it.
	if data, rc, _ := streamRead(t, rst, 4, 100, eid, 0, 6); rc != proto.ResultOK || string(data) != "commit" {
		t.Fatalf("read session died after a clamp refusal: rc=%d data=%q", rc, data)
	}

	// Recovery realigns follower 2 and promotes the tail everywhere; the
	// SAME session serves it once the pushed offsets land.
	tc.nw.Heal(tc.addrs[2])
	if _, err := tc.nodes[0].Partition(100).Recover(); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for seq := uint64(5); ; seq++ {
		data, rc, _ := streamRead(t, rst, seq, 100, eid, 0, 10)
		if rc == proto.ResultOK {
			if string(data) != "committail" {
				t.Fatalf("post-recovery stream read = %q", data)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower never served the promoted tail over the stream")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReadStreamStaleEpochRejected: a read request carrying an epoch the
// partition has moved past earns ResultErrStaleEpoch (retriable refresh
// signal), and requests at the current epoch keep working on the same
// session - the server half of the mid-stream failover mapping.
func TestReadStreamStaleEpochRejected(t *testing.T) {
	for _, fabric := range []string{"memory", "tcp"} {
		t.Run(fabric, func(t *testing.T) { testReadStreamStaleEpoch(t, fabric) })
	}
}

func testReadStreamStaleEpoch(t *testing.T, fabric string) {
	assertChunkBalance(t)
	tc := startClusterOn(t, 3, fabric, nil)
	tc.createPartition(t, 100)
	eid := tc.createExtent(t, 100)
	tc.append(t, 100, eid, []byte("epoch-fenced"))

	st := tc.openReadStream(t, tc.leaderAddr())
	send := func(seq, epoch uint64) *proto.Packet {
		t.Helper()
		if err := st.Send(&proto.Packet{
			Op: proto.OpDataRead, ReqID: seq, PartitionID: 100, ExtentID: eid,
			ExtentOffset: 0, FileOffset: 12, Epoch: epoch,
		}); err != nil {
			t.Fatal(err)
		}
		f, err := st.Recv()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	f := send(1, 1)
	if f.ResultCode != proto.ResultOK {
		t.Fatalf("current-epoch read rejected: %s", f.Data)
	}
	f.Release()
	// The master reconfigures the partition under a bumped epoch.
	p := tc.nodes[0].Partition(100)
	if _, _, applied := p.applyReconfig(tc.addrs, 2); !applied {
		t.Fatal("reconfig not applied")
	}
	f = send(2, 1)
	if f.ResultCode != proto.ResultErrStaleEpoch {
		t.Fatalf("stale-epoch read rc = %d (%s), want ResultErrStaleEpoch", f.ResultCode, f.Data)
	}
	f.Release()
	f = send(3, 2)
	if f.ResultCode != proto.ResultOK {
		t.Fatalf("fresh-epoch read after the bump rejected: %s", f.Data)
	}
	f.Release()
}
