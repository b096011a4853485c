package datanode

import (
	"fmt"
	"testing"
	"time"

	"cfs/internal/clock"
	"cfs/internal/proto"
	"cfs/internal/transport"
)

// The follower overwrite fence (DESIGN.md Section 5.5 satellite): the Raft
// leader announces a per-extent overwrite version alongside the committed
// offsets it gossips, and a follower whose own Raft apply trails what was
// announced refuses reads of that extent instead of serving pre-overwrite
// bytes. This replaced the client-side leader pin: visibility is now the
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
// via the shared log, the leader gossips the announcement with its
// committed hops, and every follower converges to serving the NEW bytes -
// with the version pair agreeing everywhere afterward.
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
