package datanode

import (
	"fmt"
	"testing"
	"time"

	"cfs/internal/clock"
	"cfs/internal/proto"
	"cfs/internal/transport"
)

// The follower overwrite fence (DESIGN.md Section 5.5): a replica whose
// Raft apply trails an overwrite version it knows of (a committed hop, a
// snapshot), the version its reader was acked, or an overwrite it has
// logged refuses reads of that extent instead of serving pre-overwrite
// bytes. This replaced the client-side leader pin: visibility is the
// replica's job, and offloaded reads self-fence.

// TestFollowerOverwriteFenceRefusesStaleReads drives the fence white-box:
// an announced version the follower has not applied yet must flip its
// reads to refusal, without affecting the other replicas, and the reads
// must resume the moment the apply catches up.
func TestFollowerOverwriteFenceRefusesStaleReads(t *testing.T) {
	tc := startCluster(t, 3)
	tc.createPartition(t, 100)
	eid := tc.createExtent(t, 100)
	tc.append(t, 100, eid, []byte("aaaaaaaaaa"))
	for _, addr := range tc.addrs {
		if data := tc.readEventually(t, addr, 100, eid, 0, 10); string(data) != "aaaaaaaaaa" {
			t.Fatalf("replica %s baseline read = %q", addr, data)
		}
	}

	// Simulate the leader's overwrite announcement landing AHEAD of this
	// follower's Raft apply (the exact window the old client pin papered
	// over): reads of the extent must refuse.
	fp := tc.nodes[1].Partition(100)
	announced := fp.ovwAppliedOf(eid) + 1
	fp.noteOvwSeen(eid, announced)
	if _, resp := tc.read(t, tc.addrs[1], 100, eid, 0, 10); resp.ResultCode == proto.ResultOK {
		t.Fatal("follower served bytes behind an announced overwrite version")
	}
	// Reads of OTHER extents and other replicas stay up.
	if data := tc.readEventually(t, tc.addrs[0], 100, eid, 0, 10); string(data) != "aaaaaaaaaa" {
		t.Fatalf("leader read collateral damage: %q", data)
	}
	if data := tc.readEventually(t, tc.addrs[2], 100, eid, 0, 10); string(data) != "aaaaaaaaaa" {
		t.Fatalf("sibling follower read collateral damage: %q", data)
	}

	// The apply catches up: the fence lifts with no other intervention.
	fp.adoptOvw(eid, announced)
	if data, resp := tc.read(t, tc.addrs[1], 100, eid, 0, 10); resp.ResultCode != proto.ResultOK || string(data) != "aaaaaaaaaa" {
		t.Fatalf("caught-up follower read rc=%d data=%q", resp.ResultCode, data)
	}
}

// TestOverwriteVersionGossipLiftsFence runs the protocol end to end: an
// overwrite through the Raft leader bumps every replica's applied version
// via the shared log, and every follower converges to serving the NEW
// bytes - with the version pair agreeing everywhere afterward and no
// fence left raised.
func TestOverwriteVersionGossipLiftsFence(t *testing.T) {
	tc := startCluster(t, 3)
	tc.createPartition(t, 100)
	eid := tc.createExtent(t, 100)
	tc.append(t, 100, eid, []byte("aaaaaaaaaa"))

	leader := waitRaftLeader(t, tc, 100)
	pkt := proto.NewPacket(proto.OpDataOverwrite, 40, 100, eid, []byte("XYZ"))
	pkt.ExtentOffset = 3
	var resp proto.Packet
	if err := tc.nw.Call(leader.node.addr, uint8(proto.OpDataOverwrite), pkt, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ResultCode != proto.ResultOK {
		t.Fatalf("overwrite failed: %s", resp.Data)
	}
	want := leader.ovwAppliedOf(eid)
	if want == 0 {
		t.Fatal("overwrite did not bump the leader's applied version")
	}
	// Every replica ends up serving the overwritten content with both
	// sides of its version pair at the announced value - fence current.
	for i, n := range tc.nodes {
		deadline := time.Now().Add(5 * time.Second)
		for {
			p := n.Partition(100)
			data, rr := tc.read(t, tc.addrs[i], 100, eid, 0, 10)
			if rr.ResultCode == proto.ResultOK && string(data) == "aaaXYZaaaa" &&
				p.ovwAppliedOf(eid) == want && p.ovwCurrent(eid) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica %s never converged: rc=%d data=%q applied=%d",
					tc.addrs[i], rr.ResultCode, data, p.ovwAppliedOf(eid))
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// TestAlignReplicasHealsOverwriteDivergence: in-place writes land below the
// committed watermark, where the append alignment never compares - so a
// follower that re-joined from a content-free Raft snapshot (past log
// compaction) could diverge silently forever. The alignment pass must spot
// the trailing overwrite version, re-ship the extent's content wholesale,
// and hand the follower an adoption mark that lifts its read fence.
func TestAlignReplicasHealsOverwriteDivergence(t *testing.T) {
	tc := startCluster(t, 3)
	tc.createPartition(t, 100)
	eid := tc.createExtent(t, 100)
	tc.append(t, 100, eid, []byte("aaaaaaaaaa"))

	leader := waitRaftLeader(t, tc, 100)
	pkt := proto.NewPacket(proto.OpDataOverwrite, 41, 100, eid, []byte("XYZ"))
	pkt.ExtentOffset = 3
	var resp proto.Packet
	if err := tc.nw.Call(leader.node.addr, uint8(proto.OpDataOverwrite), pkt, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ResultCode != proto.ResultOK {
		t.Fatalf("overwrite failed: %s", resp.Data)
	}

	// Regress a follower to its pre-overwrite state: stale content, zero
	// version pair, same size - exactly what a content-free snapshot plus
	// compaction leaves behind. (The PB leader is addrs[0]; pick the last
	// follower, reverting through the store directly.)
	fp := tc.nodes[2].Partition(100)
	deadline := time.Now().Add(5 * time.Second)
	for fp.ovwAppliedOf(eid) == 0 { // wait for its own apply first
		if time.Now().After(deadline) {
			t.Fatal("follower never applied the overwrite")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := fp.store.WriteAt(eid, 3, []byte("aaa")); err != nil {
		t.Fatal(err)
	}
	fp.mu.Lock()
	fp.ovwApplied[eid] = 0
	fp.ovwSeen[eid] = 0
	fp.mu.Unlock()
	if data, _ := tc.read(t, tc.addrs[2], 100, eid, 0, 10); string(data) != "aaaaaaaaaa" {
		t.Fatalf("regression setup: follower reads %q", data)
	}

	// The PB leader's alignment pass heals it: content re-shipped, version
	// adopted, reads serve the overwritten bytes again.
	lp := tc.nodes[0].Partition(100)
	if _, err := lp.AlignReplicas(tc.addrs[2]); err != nil {
		t.Fatalf("align: %v", err)
	}
	if data, rr := tc.read(t, tc.addrs[2], 100, eid, 0, 10); rr.ResultCode != proto.ResultOK || string(data) != "aaaXYZaaaa" {
		t.Fatalf("healed follower read rc=%d data=%q", rr.ResultCode, data)
	}
	if got := fp.ovwAppliedOf(eid); got != lp.ovwAppliedOf(eid) {
		t.Fatalf("healed follower version = %d, leader = %d", got, lp.ovwAppliedOf(eid))
	}
	if !fp.ovwCurrent(eid) {
		t.Fatal("healed follower still fenced")
	}
}

// TestOverwriteLostLeadershipIsRetriable: a Raft leader that loses
// leadership with an overwrite proposal in flight must answer with the
// retriable not-leader code, not an I/O error - the client's Overwrite
// walks to the new leader on the former and gives up on the latter. The
// nodes run on Memory endpoints so cutting the leader isolates it in both
// directions (its heartbeats stop, the survivors elect).
func TestOverwriteLostLeadershipIsRetriable(t *testing.T) {
	mem := transport.NewMemory()
	tc := &testCluster{nw: mem}
	tc.fm = startFakeMaster(t, mem, "master")
	clk := clock.NewManual(time.Now())
	for i := 0; i < 3; i++ {
		addr := fmt.Sprintf("dn%d", i)
		dn, err := Start(mem.Endpoint(addr), Config{
			Addr: addr, MasterAddr: "master", Dir: t.TempDir(), Clock: clk,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(dn.Close)
		tc.nodes = append(tc.nodes, dn)
		tc.addrs = append(tc.addrs, addr)
	}
	tc.createPartition(t, 100)
	eid := tc.createExtent(t, 100)
	tc.append(t, 100, eid, []byte("aaaaaaaaaa"))

	old := waitRaftLeader(t, tc, 100)
	mem.Partition(old.node.addr)
	before := old.raft.Status().LastIndex
	pkt := proto.NewPacket(proto.OpDataOverwrite, 50, 100, eid, []byte("XYZ"))
	pkt.ExtentOffset = 3
	got := make(chan *proto.Packet, 1)
	go func() {
		resp, _ := old.handleOverwrite(pkt) // the cut blocks Call; go in by the handler
		got <- resp
	}()
	// Heal only once the proposal sits in the deposed leader's log and the
	// survivors have moved on, so the step-down finds it pending.
	deadline := time.Now().Add(10 * time.Second)
	for {
		elected := false
		for _, n := range tc.nodes {
			if p := n.Partition(100); p != old && p.raft.IsLeader() {
				elected = true
			}
		}
		if elected && old.raft.Status().LastIndex > before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("survivors never elected a new raft leader")
		}
		time.Sleep(2 * time.Millisecond)
	}
	mem.Heal(old.node.addr)
	select {
	case resp := <-got:
		if resp.ResultCode != proto.ResultErrNotLeader {
			t.Fatalf("overwrite that lost leadership: rc=%d %s, want the retriable not-leader code", resp.ResultCode, resp.Data)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("overwrite on the deposed leader never returned")
	}
}

// The fence's three sources, each refusing a read that would otherwise be
// served stale. fenceCluster sets them up: a 3-replica partition whose
// extent holds "aaaaaaaaaa" on every replica, and a Raft follower (not the
// Raft leader) to read from.
func fenceCluster(t *testing.T) (tc *testCluster, eid uint64, leader, follower *Partition, faddr string) {
	t.Helper()
	tc = startCluster(t, 3)
	tc.createPartition(t, 100)
	eid = tc.createExtent(t, 100)
	tc.append(t, 100, eid, []byte("aaaaaaaaaa"))
	for _, addr := range tc.addrs {
		tc.readEventually(t, addr, 100, eid, 0, 10)
	}
	leader = waitRaftLeader(t, tc, 100)
	for i, n := range tc.nodes {
		if p := n.Partition(100); p != leader {
			return tc, eid, leader, p, tc.addrs[i]
		}
	}
	t.Fatal("no raft follower")
	return
}

// overwriteXYZ overwrites bytes 3..5 of eid through the Raft leader and
// returns the overwrite version its ack carries.
func (tc *testCluster) overwriteXYZ(t *testing.T, leader *Partition, eid uint64) uint64 {
	t.Helper()
	pkt := proto.NewPacket(proto.OpDataOverwrite, 60, 100, eid, []byte("XYZ"))
	pkt.ExtentOffset = 3
	var resp proto.Packet
	if err := tc.nw.Call(leader.node.addr, uint8(proto.OpDataOverwrite), pkt, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ResultCode != proto.ResultOK {
		t.Fatalf("overwrite failed: %s", resp.Data)
	}
	return resp.Committed
}

// readAt reads eid's 10 bytes straight through p's unary handler, stamped
// with acked: it reaches a replica the fabric has cut off.
func readAt(t *testing.T, p *Partition, eid, acked uint64) (string, *proto.Packet) {
	t.Helper()
	pkt := proto.NewPacket(proto.OpDataRead, 61, p.ID, eid, nil)
	pkt.FileOffset, pkt.Committed = 10, acked
	resp, err := p.handleRead(pkt)
	if err != nil {
		t.Fatal(err)
	}
	return string(resp.Data), resp
}

// awaitRead polls p until a read stamped with acked serves want.
func awaitRead(t *testing.T, p *Partition, eid, acked uint64, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		data, resp := readAt(t, p, eid, acked)
		if resp.ResultCode == proto.ResultOK && data == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never served %q: rc=%d %q", want, resp.ResultCode, data)
		}
		time.Sleep(time.Millisecond)
	}
}

// A follower that has not applied an overwrite refuses a read stamped with
// the version the writer was acked, whatever it has or has not heard:
// here it is cut off, so it never logged the entry and no announcement
// reached it. The leader serves the same read.
func TestOverwriteFenceRefusesReadBelowAckedVersion(t *testing.T) {
	tc, eid, leader, fp, faddr := fenceCluster(t)
	tc.cut(t, faddr)
	acked := tc.overwriteXYZ(t, leader, eid)
	if acked == 0 {
		t.Error("the overwrite ack carries no version")
		acked = 1
	}
	if data, resp := readAt(t, fp, eid, acked); resp.ResultCode == proto.ResultOK {
		t.Fatalf("follower that never applied the overwrite served %q to a reader acked version %d", data, acked)
	}
	if data, resp := readAt(t, leader, eid, acked); resp.ResultCode != proto.ResultOK || data != "aaaXYZaaaa" {
		t.Fatalf("leader read rc=%d %q", resp.ResultCode, data)
	}
	// Healed, the follower applies the entry and serves the stamped read.
	tc.nw.(*transport.Memory).Heal(faddr)
	awaitRead(t, fp, eid, acked, "aaaXYZaaaa")
}

// A follower that holds a logged overwrite it has not applied refuses
// unstamped reads of the extent (another client's), and only of that
// extent, until its Raft applied index reaches the entry - whatever entry
// ends up there, so a replaced one cannot fence the extent for good. The
// entry is logged by hand, at the index the follower's log takes next.
func TestOverwriteFenceHoldsLoggedUnappliedEntry(t *testing.T) {
	tc, eid, leader, fp, _ := fenceCluster(t)
	other := tc.createExtent(t, 100)
	tc.append(t, 100, other, []byte("bbbbbbbbbb"))
	awaitRead(t, fp, other, 0, "bbbbbbbbbb")

	fp.sm.Logged(fp.raft.Status().LastIndex+1, encodeOverwrite(eid, 3, []byte("XYZ")))
	if data, resp := readAt(t, fp, eid, 0); resp.ResultCode == proto.ResultOK {
		t.Fatalf("follower holding a logged, unapplied overwrite served %q", data)
	}
	if data, resp := readAt(t, fp, other, 0); resp.ResultCode != proto.ResultOK || data != "bbbbbbbbbb" {
		t.Fatalf("read of an extent with nothing logged: rc=%d %q", resp.ResultCode, data)
	}
	// The next entry the leader commits takes that index; once the
	// follower applies it, the fence lifts.
	tc.overwriteXYZ(t, leader, eid)
	awaitRead(t, fp, eid, 0, "aaaXYZaaaa")
}

// A follower that installs a snapshot skips the entries below its index;
// on every extent whose overwrite version it trails it is fenced until the
// entries the leader re-sends bring it level. The follower is cut off
// while the overwrite commits, and the leader's snapshot is installed by
// hand, as raft's handleSnap does; healed, it is re-sent the entry.
func TestOverwriteFenceRaisedBySnapshotInstall(t *testing.T) {
	tc, eid, leader, fp, faddr := fenceCluster(t)
	other := tc.createExtent(t, 100)
	tc.append(t, 100, other, []byte("bbbbbbbbbb"))
	awaitRead(t, fp, other, 0, "bbbbbbbbbb")
	tc.cut(t, faddr)
	tc.overwriteXYZ(t, leader, eid)

	snap, err := leader.sm.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := fp.sm.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if data, resp := readAt(t, fp, eid, 0); resp.ResultCode == proto.ResultOK {
		t.Fatalf("follower restored past an overwrite it never applied served %q", data)
	}
	if data, resp := readAt(t, fp, other, 0); resp.ResultCode != proto.ResultOK || data != "bbbbbbbbbb" {
		t.Fatalf("read of an extent the snapshot did not advance: rc=%d %q", resp.ResultCode, data)
	}
	tc.nw.(*transport.Memory).Heal(faddr)
	awaitRead(t, fp, eid, 0, "aaaXYZaaaa")
}

// A follower that skipped an overwrite through a snapshot can never count
// its way back: the first later overwrite of the extent it applies shows
// the shortfall, and the extent stays fenced - even once its count equals
// the snapshot's - until an alignment re-ship adopts the leader's content.
// The follower is cut off; its skip (the leader compacting past the
// entry) is played by hand, installing the leader's snapshot and applying
// only the entry after it.
func TestOverwriteFenceHoldsAfterASkippedOverwrite(t *testing.T) {
	tc, eid, leader, fp, faddr := fenceCluster(t)
	tc.cut(t, faddr)
	tc.overwriteXYZ(t, leader, eid) // "aaaXYZaaaa": the entry fp skips
	snap, err := leader.sm.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := fp.sm.Restore(snap); err != nil {
		t.Fatal(err)
	}
	next := proto.NewPacket(proto.OpDataOverwrite, 62, 100, eid, []byte("QQ"))
	next.ExtentOffset = 8
	var resp proto.Packet
	if err := tc.nw.Call(leader.node.addr, uint8(proto.OpDataOverwrite), next, &resp); err != nil || resp.ResultCode != proto.ResultOK {
		t.Fatalf("second overwrite: %v rc=%d %s", err, resp.ResultCode, resp.Data)
	}
	if _, err := fp.sm.Apply(leader.raft.Status().Applied, encodeOverwrite(eid, 8, []byte("QQ"))); err != nil {
		t.Fatal(err)
	}
	if data, resp := readAt(t, fp, eid, 0); resp.ResultCode == proto.ResultOK {
		t.Fatalf("follower that skipped an overwrite served %q (version %d, snapshot said %d)",
			data, fp.ovwAppliedOf(eid), leader.ovwAppliedOf(eid)-1)
	}
	// The alignment re-ship: the leader's bytes, then the adoption mark.
	if err := fp.store.WriteAt(eid, 0, []byte("aaaXYZaaQQ")); err != nil {
		t.Fatal(err)
	}
	fp.adoptOvw(eid, leader.ovwAppliedOf(eid))
	if data, resp := readAt(t, fp, eid, 0); resp.ResultCode != proto.ResultOK || data != "aaaXYZaaQQ" {
		t.Fatalf("realigned follower read rc=%d %q", resp.ResultCode, data)
	}
}
