package datanode

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cfs/internal/proto"
	"cfs/internal/transport"
)

// openWriteStream dials a replication session to the cluster leader.
func (tc *testCluster) openWriteStream(t *testing.T) transport.PacketStream {
	t.Helper()
	st, err := tc.nw.DialStream(tc.leaderAddr(), uint8(proto.OpDataWriteStream))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// streamCreateExtent creates an extent through the session (seq 1).
func streamCreateExtent(t *testing.T, st transport.PacketStream, pid uint64) uint64 {
	t.Helper()
	if err := st.Send(&proto.Packet{Op: proto.OpDataCreateExtent, ReqID: 1, PartitionID: pid}); err != nil {
		t.Fatal(err)
	}
	ack, err := st.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ack.ReqID != 1 || ack.ResultCode != proto.ResultOK {
		t.Fatalf("create ack = %+v", ack)
	}
	return ack.ExtentID
}

func streamAppendPkt(seq, pid, eid uint64, data []byte) *proto.Packet {
	pkt := proto.NewPacket(proto.OpDataAppend, seq, pid, eid, data)
	return pkt
}

func TestWriteStreamPipelinedAppend(t *testing.T) {
	tc := startCluster(t, 3)
	tc.createPartition(t, 100)
	st := tc.openWriteStream(t)
	eid := streamCreateExtent(t, st, 100)

	// Push the whole window before reading any ack (the point of the
	// pipeline), then collect acks strictly in order.
	const n = 10
	var want []byte
	for seq := uint64(2); seq < 2+n; seq++ {
		chunk := []byte(fmt.Sprintf("chunk-%02d|", seq))
		want = append(want, chunk...)
		if err := st.Send(streamAppendPkt(seq, 100, eid, chunk)); err != nil {
			t.Fatal(err)
		}
	}
	var off uint64
	for seq := uint64(2); seq < 2+n; seq++ {
		ack, err := st.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if ack.ReqID != seq || ack.ResultCode != proto.ResultOK {
			t.Fatalf("ack = %+v, want seq %d ok", ack, seq)
		}
		if ack.ExtentOffset != off {
			t.Fatalf("seq %d landed at %d, want %d", seq, ack.ExtentOffset, off)
		}
		off += uint64(len(fmt.Sprintf("chunk-%02d|", seq)))
	}

	// Every replica serves the committed range (followers as soon as the
	// drain gossip lands), and the leader's committed offset covers
	// exactly the acked bytes.
	for _, addr := range tc.addrs {
		if data := tc.readEventually(t, addr, 100, eid, 0, uint32(len(want))); string(data) != string(want) {
			t.Fatalf("replica %s read data=%q", addr, data)
		}
	}
	if got := tc.nodes[0].Partition(100).committedOf(eid); got != uint64(len(want)) {
		t.Fatalf("committed = %d, want %d", got, len(want))
	}
}

func TestWriteStreamSmallFileAggregation(t *testing.T) {
	tc := startCluster(t, 3)
	tc.createPartition(t, 100)
	st := tc.openWriteStream(t)

	// ExtentID 0 rides the aggregated small-file path on the session.
	for seq := uint64(1); seq <= 3; seq++ {
		if err := st.Send(streamAppendPkt(seq, 100, 0, []byte(fmt.Sprintf("small-%d", seq)))); err != nil {
			t.Fatal(err)
		}
	}
	var eid uint64
	for seq := uint64(1); seq <= 3; seq++ {
		ack, err := st.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if ack.ReqID != seq || ack.ResultCode != proto.ResultOK {
			t.Fatalf("ack = %+v", ack)
		}
		if eid == 0 {
			eid = ack.ExtentID
		} else if ack.ExtentID != eid {
			t.Fatalf("small files spread across extents: %d vs %d", ack.ExtentID, eid)
		}
	}
	for _, addr := range tc.addrs {
		if data := tc.readEventually(t, addr, 100, eid, 0, 21); string(data) != "small-1small-2small-3" {
			t.Fatalf("replica %s small read data=%q", addr, data)
		}
	}
}

// TestWriteStreamCorruptFrameDoesNotPoison: a CRC-corrupted frame is
// rejected in ack order but later packets on the same stream commit.
func TestWriteStreamCorruptFrameDoesNotPoison(t *testing.T) {
	tc := startCluster(t, 3)
	tc.createPartition(t, 100)
	st := tc.openWriteStream(t)
	eid := streamCreateExtent(t, st, 100)

	good1 := streamAppendPkt(2, 100, eid, []byte("first."))
	evil := streamAppendPkt(3, 100, eid, []byte("corrupt"))
	evil.Data = []byte("CORRUPT") // CRC now stale
	good2 := streamAppendPkt(4, 100, eid, []byte("second."))
	for _, pkt := range []*proto.Packet{good1, evil, good2} {
		if err := st.Send(pkt); err != nil {
			t.Fatal(err)
		}
	}
	wantCodes := []uint8{proto.ResultOK, proto.ResultErrCRC, proto.ResultOK}
	for i, seq := range []uint64{2, 3, 4} {
		ack, err := st.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if ack.ReqID != seq || ack.ResultCode != wantCodes[i] {
			t.Fatalf("ack %d = %+v, want code %d", seq, ack, wantCodes[i])
		}
	}
	// The two good packets are contiguous and committed on all replicas.
	for _, addr := range tc.addrs {
		if data := tc.readEventually(t, addr, 100, eid, 0, 13); string(data) != "first.second." {
			t.Fatalf("replica %s read data=%q", addr, data)
		}
	}
	if got := tc.nodes[0].Partition(100).committedOf(eid); got != 13 {
		t.Fatalf("committed = %d, want 13", got)
	}
}

// TestWriteStreamFollowerFailureAbortsWindow: once a follower fails, every
// packet at or after the first unacked sequence is reported uncommitted,
// the committed offset freezes, and the session rejects further traffic.
func TestWriteStreamFollowerFailureAbortsWindow(t *testing.T) {
	tc := startCluster(t, 3)
	tc.createPartition(t, 100)
	st := tc.openWriteStream(t)
	eid := streamCreateExtent(t, st, 100)

	// One committed packet establishes a baseline.
	if err := st.Send(streamAppendPkt(2, 100, eid, []byte("stable"))); err != nil {
		t.Fatal(err)
	}
	if ack, err := st.Recv(); err != nil || ack.ResultCode != proto.ResultOK {
		t.Fatalf("baseline ack = %+v, %v", ack, err)
	}

	tc.cut(t, tc.addrs[2])
	const n = 4
	for seq := uint64(3); seq < 3+n; seq++ {
		if err := st.Send(streamAppendPkt(seq, 100, eid, []byte("doomed"))); err != nil {
			t.Fatal(err)
		}
	}
	for seq := uint64(3); seq < 3+n; seq++ {
		ack, err := st.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if ack.ReqID != seq {
			t.Fatalf("ack out of order: got seq %d, want %d", ack.ReqID, seq)
		}
		if ack.ResultCode == proto.ResultOK {
			t.Fatalf("seq %d committed with an unreachable follower", seq)
		}
	}
	// Committed never advanced past the baseline...
	if got := tc.nodes[0].Partition(100).committedOf(eid); got != 6 {
		t.Fatalf("committed = %d, want 6", got)
	}
	// ...the failure was reported to the master...
	select {
	case r := <-startedMasterFailures(tc):
		if r.Addr != tc.addrs[2] {
			t.Fatalf("failure reported against %s", r.Addr)
		}
	default:
		// Report is async; not fatal if it has not landed yet.
	}
	// ...and the aborted session rejects new packets outright.
	if err := st.Send(streamAppendPkt(10, 100, eid, []byte("late"))); err != nil {
		t.Fatal(err)
	}
	ack, err := st.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ack.ResultCode == proto.ResultOK || !strings.Contains(string(ack.Data), "aborted") {
		t.Fatalf("post-abort ack = %+v", ack)
	}
}

// TestStaleEpochRefusalAccusesNoFollower: a follower that already holds a
// newer replica epoch refuses the leader's hop. The refusal ends the
// session and tells the client its epoch is stale, but it is no failure
// report against the follower: the first report the master hears names
// the follower that really fails afterwards.
func TestStaleEpochRefusalAccusesNoFollower(t *testing.T) {
	tc := startCluster(t, 3)
	tc.createPartition(t, 100)
	st := tc.openWriteStream(t)
	eid := streamCreateExtent(t, st, 100)

	// The third replica hears of epoch 2 before the leader does.
	var resp proto.Packet
	if err := tc.nw.Call(tc.addrs[2], uint8(proto.OpDataCommitted), &proto.Packet{
		Op: proto.OpDataCommitted, ResultCode: resultHopFollower, PartitionID: 100, ExtentID: eid, Epoch: 2,
	}, &resp); err != nil || resp.ResultCode != proto.ResultOK {
		t.Fatalf("newer-epoch hop = %+v, %v", resp, err)
	}
	if err := st.Send(streamAppendPkt(2, 100, eid, []byte("stale"))); err != nil {
		t.Fatal(err)
	}
	ack, err := st.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ack.ReqID != 2 || ack.ResultCode != proto.ResultErrStaleEpoch {
		t.Fatalf("append through the stale leader = %+v, want ResultErrStaleEpoch", ack)
	}

	tc.cut(t, tc.addrs[1])
	st2 := tc.openWriteStream(t)
	if err := st2.Send(&proto.Packet{Op: proto.OpDataCreateExtent, ReqID: 1, PartitionID: 100}); err != nil {
		t.Fatal(err)
	}
	if ack, err := st2.Recv(); err != nil || ack.ResultCode == proto.ResultOK {
		t.Fatalf("create with a follower cut off = %+v, %v", ack, err)
	}
	select {
	case r := <-startedMasterFailures(tc):
		if r.Addr != tc.addrs[1] {
			t.Fatalf("master was told %s failed; only %s did", r.Addr, tc.addrs[1])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the real failure was never reported")
	}
}

// startedMasterFailures digs the fake master's failure channel out of the
// cluster (the fake master is registered in startCluster).
func startedMasterFailures(tc *testCluster) chan proto.ReportFailureReq {
	return tc.fm.failures
}

// TestReadNeverExceedsCommitted is the Section 2.2.5 regression: a leader
// read racing an in-flight (or aborted) append never observes bytes past
// the all-replica committed offset, even though the leader's local
// watermark is ahead; recovery re-exposes the realigned bytes.
func TestReadNeverExceedsCommitted(t *testing.T) {
	tc := startCluster(t, 3)
	tc.createPartition(t, 100)
	st := tc.openWriteStream(t)
	eid := streamCreateExtent(t, st, 100)

	if err := st.Send(streamAppendPkt(2, 100, eid, []byte("committed."))); err != nil {
		t.Fatal(err)
	}
	if ack, err := st.Recv(); err != nil || ack.ResultCode != proto.ResultOK {
		t.Fatalf("baseline ack = %+v, %v", ack, err)
	}

	// Strand a tail on the leader: the append reaches the leader's store
	// but can never be all-replica committed.
	tc.cut(t, tc.addrs[2])
	if err := st.Send(streamAppendPkt(3, 100, eid, []byte("tail"))); err != nil {
		t.Fatal(err)
	}
	if ack, err := st.Recv(); err != nil || ack.ResultCode == proto.ResultOK {
		t.Fatalf("stranded append ack = %+v, %v", ack, err)
	}
	leaderP := tc.nodes[0].Partition(100)
	if sz := leaderStoreSize(t, leaderP, eid); sz != 14 {
		t.Fatalf("leader watermark = %d, want 14 (stale tail present)", sz)
	}

	// The committed range is served; one byte past it is refused.
	data, resp := tc.read(t, tc.leaderAddr(), 100, eid, 0, 10)
	if resp.ResultCode != proto.ResultOK || string(data) != "committed." {
		t.Fatalf("committed read rc=%d data=%q", resp.ResultCode, data)
	}
	if _, resp = tc.read(t, tc.leaderAddr(), 100, eid, 0, 11); resp.ResultCode == proto.ResultOK {
		t.Fatal("leader served bytes beyond the all-replica committed offset")
	}
	if _, resp = tc.read(t, tc.leaderAddr(), 100, eid, 10, 4); resp.ResultCode == proto.ResultOK {
		t.Fatal("leader served the uncommitted tail")
	}

	// Recovery realigns the follower and re-exposes the tail.
	tc.nw.Heal(tc.addrs[2])
	if _, err := leaderP.Recover(); err != nil {
		t.Fatal(err)
	}
	data, resp = tc.read(t, tc.leaderAddr(), 100, eid, 0, 14)
	if resp.ResultCode != proto.ResultOK || string(data) != "committed.tail" {
		t.Fatalf("post-recovery read rc=%d data=%q", resp.ResultCode, data)
	}
}

// TestFollowerReadNeverExceedsCommitted mirrors the leader-side Section
// 2.2.5 regression on a FOLLOWER: a follower holding a replicated-but-
// uncommitted tail (it applied the hop, but a sibling replica did not)
// must refuse to serve it. Before the committed offset was piggybacked on
// forward frames, a follower clamped only at its local watermark and
// served exactly these bytes.
func TestFollowerReadNeverExceedsCommitted(t *testing.T) {
	tc := startClusterCfg(t, 3, func(i int, cfg *Config) {
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
	}
	// The drain gossip teaches follower 1 the baseline is committed.
	if data := tc.readEventually(t, tc.addrs[1], 100, eid, 0, 6); string(data) != "commit" {
		t.Fatalf("follower baseline read = %q", data)
	}

	// Half-open follower 2 (frames stall, nothing errors) and push a
	// tail: follower 1's healthy chain delivers and applies it, follower
	// 2 never acks, so the ack deadline aborts the session and the tail
	// is never committed - the exact split-replica state the clamp is
	// for.
	tc.nw.Freeze(tc.addrs[2])
	t.Cleanup(func() { tc.nw.Heal(tc.addrs[2]) })
	if err := st.Send(streamAppendPkt(3, 100, eid, []byte("tail"))); err != nil {
		t.Fatal(err)
	}
	if ack, err := st.Recv(); err != nil || ack.ResultCode == proto.ResultOK {
		t.Fatalf("stranded append ack = %+v, %v", ack, err)
	}
	// Wait until follower 1 has PHYSICALLY stored the tail (its apply
	// races the abort ack) - the refusal below must come from the clamp,
	// not from a short watermark.
	f1 := tc.nodes[1].Partition(100)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if sz := leaderStoreSize(t, f1, eid); sz == 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("follower 1 never stored the forwarded tail")
		}
		time.Sleep(time.Millisecond)
	}

	// Follower 1 keeps serving the committed range but refuses any read
	// touching the uncommitted tail, exactly like the leader does.
	data, resp := tc.read(t, tc.addrs[1], 100, eid, 0, 6)
	if resp.ResultCode != proto.ResultOK || string(data) != "commit" {
		t.Fatalf("follower committed read rc=%d data=%q", resp.ResultCode, data)
	}
	if _, resp = tc.read(t, tc.addrs[1], 100, eid, 0, 10); resp.ResultCode == proto.ResultOK {
		t.Fatal("follower served bytes beyond the all-replica committed offset")
	}
	if _, resp = tc.read(t, tc.addrs[1], 100, eid, 6, 4); resp.ResultCode == proto.ResultOK {
		t.Fatal("follower served the uncommitted tail")
	}

	// Recovery realigns follower 2 and promotes the tail everywhere; the
	// alignment hops carry the promotion, so follower reads reopen.
	tc.nw.Heal(tc.addrs[2])
	if _, err := tc.nodes[0].Partition(100).Recover(); err != nil {
		t.Fatal(err)
	}
	if data := tc.readEventually(t, tc.addrs[1], 100, eid, 0, 10); string(data) != "committail" {
		t.Fatalf("post-recovery follower read = %q", data)
	}
}

func leaderStoreSize(t *testing.T, p *Partition, eid uint64) uint64 {
	t.Helper()
	info, err := p.store.Info(eid)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size
}

// TestFollowersEmptyMembersNoPanic is the regression for the negative-cap
// panic: followers() on a partition with no members must return empty.
func TestFollowersEmptyMembersNoPanic(t *testing.T) {
	p := &Partition{node: &DataNode{addr: "self"}}
	if got := p.followers(); len(got) != 0 {
		t.Fatalf("followers of empty member list = %v", got)
	}
	if p.isLeader() {
		t.Fatal("empty partition cannot have a leader")
	}
}

// TestWriteStreamWrongPartitionRejected: a session is bound to the first
// packet's partition; traffic for another partition is refused without
// disturbing the bound window.
func TestWriteStreamWrongPartitionRejected(t *testing.T) {
	tc := startCluster(t, 3)
	tc.createPartition(t, 100)
	tc.createPartition(t, 200)
	st := tc.openWriteStream(t)
	eid := streamCreateExtent(t, st, 100)

	if err := st.Send(streamAppendPkt(2, 200, 1, []byte("stray"))); err != nil {
		t.Fatal(err)
	}
	ack, err := st.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ack.ResultCode == proto.ResultOK {
		t.Fatal("session accepted a packet for another partition")
	}
	// The bound partition still works on the same session.
	if err := st.Send(streamAppendPkt(3, 100, eid, []byte("fine"))); err != nil {
		t.Fatal(err)
	}
	if ack, err = st.Recv(); err != nil || ack.ResultCode != proto.ResultOK {
		t.Fatalf("bound-partition append after stray = %+v, %v", ack, err)
	}
}
