package datanode

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cfs/internal/clock"
	"cfs/internal/datanode/dntest"
	"cfs/internal/proto"
	"cfs/internal/transport"
	"cfs/internal/util"
)

// TestDataNodeRestartServesCommitted is the ROADMAP "committed-offset
// durability" regression: write, restart the node on the same directory,
// read. Before partition (re)open was wired up, a restarted node hosted
// nothing it stores - every read failed with unknown partition.
func TestDataNodeRestartServesCommitted(t *testing.T) {
	nw := transport.NewMemory()
	startFakeMaster(t, nw, "master")
	dir := t.TempDir()
	clk := clock.NewManual(time.Now())
	boot := func() *DataNode {
		dn, err := Start(nw, Config{
			Addr: "solo", MasterAddr: "master", Dir: dir,
			Clock: clk,
		})
		if err != nil {
			t.Fatal(err)
		}
		return dn
	}
	dn := boot()
	if err := dn.CreatePartition(&proto.CreateDataPartitionReq{
		PartitionID: 7, Volume: "v", Members: []string{"solo"},
	}); err != nil {
		t.Fatal(err)
	}
	w, err := dntest.Dial(nw, "solo", 7)
	if err != nil {
		t.Fatal(err)
	}
	eid, off := w.MustAppend(t, 0, []byte("durable bytes"))
	w.Close()

	dn.Close()
	dn = boot()
	t.Cleanup(dn.Close)

	p := dn.Partition(7)
	if p == nil {
		t.Fatal("restarted node did not reopen its partition")
	}
	if got := p.committedOf(eid); got != 13 {
		t.Fatalf("committed after restart = %d, want 13", got)
	}
	tc := &testCluster{nw: nw, nodes: []*DataNode{dn}, addrs: []string{"solo"}}
	data, rr := tc.read(t, "solo", 7, eid, off, 13)
	if rr.ResultCode != proto.ResultOK || string(data) != "durable bytes" {
		t.Fatalf("post-restart read = %q rc=%d (%s)", data, rr.ResultCode, rr.Data)
	}
}

// TestLeaderRestartRecoversReplicas: a 3-replica leader restarted on its
// directory reopens the partition, reruns the Section 2.2.5 recovery pass
// (align followers, re-advance committed), and serves everything that was
// committed through the pre-restart replication session.
func TestLeaderRestartRecoversReplicas(t *testing.T) {
	dirs := make([]string, 3)
	tc := startClusterCfg(t, 3, func(i int, cfg *Config) {
		dirs[i] = cfg.Dir
	})
	tc.createPartition(t, 100)
	st := tc.openWriteStream(t)
	eid := streamCreateExtent(t, st, 100)
	if err := st.Send(streamAppendPkt(2, 100, eid, []byte("survives restarts"))); err != nil {
		t.Fatal(err)
	}
	if ack, err := st.Recv(); err != nil || ack.ResultCode != proto.ResultOK {
		t.Fatalf("append ack = %+v, %v", ack, err)
	}
	st.Close()

	tc.nodes[0].Close()
	dn, err := Start(tc.nw, Config{
		Addr: tc.addrs[0], MasterAddr: "master", Dir: dirs[0],
		Clock: clock.NewManual(time.Now()),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dn.Close)
	tc.nodes[0] = dn

	p := dn.Partition(100)
	if p == nil {
		t.Fatal("restarted leader did not reopen its partition")
	}
	if got := p.committedOf(eid); got != 17 {
		t.Fatalf("committed after restart+recover = %d, want 17", got)
	}
	data, rr := tc.read(t, tc.leaderAddr(), 100, eid, 0, 17)
	if rr.ResultCode != proto.ResultOK || string(data) != "survives restarts" {
		t.Fatalf("post-restart leader read = %q rc=%d (%s)", data, rr.ResultCode, rr.Data)
	}
	// The reopened session path still works end to end. The background
	// recovery pass may briefly hold the partition quiesced (new binds
	// are refused with a retriable reject), so retry until it admits us.
	deadline := time.Now().Add(5 * time.Second)
	for seq := uint64(10); ; seq++ {
		st2 := tc.openWriteStream(t)
		if err := st2.Send(streamAppendPkt(seq, 100, eid, []byte("!"))); err != nil {
			t.Fatal(err)
		}
		ack, err := st2.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if ack.ResultCode == proto.ResultOK {
			break
		}
		if ack.ResultCode != proto.ResultErrAgain {
			t.Fatalf("post-restart append ack = %+v", ack)
		}
		if time.Now().After(deadline) {
			t.Fatal("partition never finished its reopen recovery pass")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFollowerHangTripsAckDeadline is the liveness satellite: a follower
// that stops acking WITHOUT closing (TCP half-open, injected with
// Memory.Freeze) used to wedge the window - and the client's Drain -
// forever. The per-chain ack deadline converts it into the ordered abort
// path within the deadline.
func TestFollowerHangTripsAckDeadline(t *testing.T) {
	tc := startClusterCfg(t, 3, func(i int, cfg *Config) {
		cfg.AckDeadline = 150 * time.Millisecond
		cfg.KeepaliveInterval = 50 * time.Millisecond
	})
	tc.createPartition(t, 100)
	st := tc.openWriteStream(t)
	eid := streamCreateExtent(t, st, 100)

	if err := st.Send(streamAppendPkt(2, 100, eid, []byte("stable"))); err != nil {
		t.Fatal(err)
	}
	if ack, err := st.Recv(); err != nil || ack.ResultCode != proto.ResultOK {
		t.Fatalf("baseline ack = %+v, %v", ack, err)
	}

	tc.nw.Freeze(tc.addrs[2])
	t.Cleanup(func() { tc.nw.Heal(tc.addrs[2]) })
	start := time.Now()
	for seq := uint64(3); seq <= 5; seq++ {
		if err := st.Send(streamAppendPkt(seq, 100, eid, []byte("hung"))); err != nil {
			t.Fatal(err)
		}
	}
	for seq := uint64(3); seq <= 5; seq++ {
		ack, err := st.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if ack.ReqID != seq {
			t.Fatalf("ack out of order: got %d, want %d", ack.ReqID, seq)
		}
		if ack.ResultCode == proto.ResultOK {
			t.Fatalf("seq %d committed through a frozen follower", seq)
		}
		if ack.ResultCode != proto.ResultErrAborted {
			t.Fatalf("seq %d rc = %d, want ResultErrAborted", seq, ack.ResultCode)
		}
		if !strings.Contains(string(ack.Data), "half-open") {
			t.Fatalf("seq %d abort cause = %q, want the deadline", seq, ack.Data)
		}
	}
	// The hang converted into errors in deadline time, not test-timeout
	// time; generous bound to stay honest under -race on loaded machines.
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("deadline abort took %v", took)
	}
	// Committed never moved past the baseline.
	if got := tc.nodes[0].Partition(100).committedOf(eid); got != 6 {
		t.Fatalf("committed = %d, want 6", got)
	}
}

// TestIdleSessionReaped: a client that vanishes without closing its
// session (half-open client) is reaped by the server's idle timeout
// instead of leaking the session goroutines forever - on either stream
// server, which share the one reaper. The reap is observable from
// outside: the server closes its end, so the client's Recv unblocks with
// an error.
func TestIdleSessionReaped(t *testing.T) {
	for _, c := range []struct {
		name string
		open func(tc *testCluster, t *testing.T) transport.PacketStream
	}{
		{"write", func(tc *testCluster, t *testing.T) transport.PacketStream {
			st := tc.openWriteStream(t)
			streamCreateExtent(t, st, 100)
			return st
		}},
		{"read", func(tc *testCluster, t *testing.T) transport.PacketStream {
			st := tc.openReadStream(t, tc.leaderAddr())
			if err := st.Send(&proto.Packet{Op: proto.OpDataPing, ReqID: 1}); err != nil {
				t.Fatal(err)
			}
			if ack, err := st.Recv(); err != nil || ack.ReqID != 1 || ack.ResultCode != proto.ResultOK {
				t.Fatalf("read session ping = %+v, %v", ack, err)
			}
			return st
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tc := startClusterCfg(t, 1, func(i int, cfg *Config) {
				cfg.SessionIdleTimeout = 100 * time.Millisecond
				cfg.KeepaliveInterval = 25 * time.Millisecond
			})
			tc.createPartition(t, 100)
			st := c.open(tc, t)

			done := make(chan error, 1)
			go func() {
				_, err := st.Recv()
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("Recv returned a frame, want the server-side close")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("idle session was never reaped")
			}
		})
	}
}

// TestLeaderCommittedSnapshotDebounced is the snapshot-cadence satellite:
// the LEADER persists committed.json (debounced) as the commit path
// advances, like followers do on gossip - not just on clean shutdown and
// after Recover. Before the fix a leader kill -9 lost the whole committed
// tail since the last of those, widening the recovery window.
func TestLeaderCommittedSnapshotDebounced(t *testing.T) {
	var leaderDir string
	tc := startClusterCfg(t, 3, func(i int, cfg *Config) {
		if i == 0 {
			leaderDir = cfg.Dir
		}
	})
	tc.createPartition(t, 100)
	eid := tc.createExtent(t, 100)
	tc.append(t, 100, eid, []byte("must-survive-kill-9"))

	// No Close, no Recover: only the debounced commit-path save can write
	// the snapshot.
	path := filepath.Join(leaderDir, "dp_100", "committed.json")
	deadline := time.Now().Add(5 * time.Second)
	for {
		data, err := os.ReadFile(path)
		if err == nil {
			var entries []committedEntry
			if jerr := json.Unmarshal(data, &entries); jerr != nil {
				t.Fatalf("committed.json unparsable: %v", jerr)
			}
			for _, e := range entries {
				if e.ExtentID == eid && e.Committed == 19 {
					return
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("leader never debounce-persisted its committed map (err=%v)", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRecoverShedsDivergentFollower: after a promotion, a follower may
// hold frames the new leader never saw - an extent tail past the leader's
// watermark, or whole extents only the dead leader created. The recovery
// pass truncates the former and deletes the latter; without that, the
// duplicate-delivery check would silently fork replica content on the next
// append, and a leader-assigned extent id would collide with the orphan.
func TestRecoverShedsDivergentFollower(t *testing.T) {
	tc := startCluster(t, 2)
	tc.createPartition(t, 100)
	eid := tc.createExtent(t, 100)
	tc.append(t, 100, eid, []byte("base"))

	// Fabricate the divergence directly on the follower's store, as if a
	// deposed leader's forwards had landed there: a tail past the new
	// leader's watermark plus an orphan extent the leader does not know.
	fp := tc.nodes[1].Partition(100)
	if err := fp.store.AppendAt(eid, 4, []byte("ghost-tail")); err != nil {
		t.Fatal(err)
	}
	orphan := fp.store.NextID()
	if err := fp.store.Create(orphan); err != nil {
		t.Fatal(err)
	}
	if _, err := fp.store.Append(orphan, []byte("orphan-bytes")); err != nil {
		t.Fatal(err)
	}

	lp := tc.nodes[0].Partition(100)
	tc.quiesce(t)
	if _, err := lp.Recover(); err != nil {
		t.Fatal(err)
	}
	if info, err := fp.store.Info(eid); err != nil || info.Size != 4 {
		t.Fatalf("follower extent size after recover = %d, want truncated to 4", info.Size)
	}
	if _, err := fp.store.Info(orphan); !errors.Is(err, util.ErrNotFound) {
		t.Fatalf("orphan extent survived recover: %v", err)
	}

	// The extent-id space is collision-free again: the leader's next
	// create assigns what used to be the orphan's id, and appends
	// replicate to both nodes deterministically.
	eid2 := tc.createExtent(t, 100)
	if eid2 != orphan {
		t.Logf("note: fresh extent id %d (orphan was %d)", eid2, orphan)
	}
	tc.append(t, 100, eid2, []byte("clean"))
	if data := tc.readEventually(t, tc.addrs[1], 100, eid2, 0, 5); string(data) != "clean" {
		t.Fatalf("follower read after shed = %q", data)
	}
	if data := tc.readEventually(t, tc.addrs[1], 100, eid, 0, 4); string(data) != "base" {
		t.Fatalf("follower base read = %q", data)
	}
}

// TestTruncateHopGuards: OpDataTruncate is a replication-internal frame
// with two safety rails - a client-path packet without the hop marker is
// refused outright, and even a marker-bearing hop can never discard bytes
// at or below the receiver's committed offset (committed bytes exist on
// every replica of some configuration and may have been served).
func TestTruncateHopGuards(t *testing.T) {
	tc := startCluster(t, 1)
	tc.createPartition(t, 100)
	eid := tc.createExtent(t, 100)
	tc.append(t, 100, eid, []byte("committed"))

	// No hop marker: rejected as a client op.
	raw := &proto.Packet{Op: proto.OpDataTruncate, ReqID: 5, PartitionID: 100, ExtentID: eid}
	var resp proto.Packet
	if err := tc.nw.Call(tc.addrs[0], uint8(proto.OpDataTruncate), raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ResultCode == proto.ResultOK {
		t.Fatal("client-path truncate accepted")
	}

	// Marker-bearing hop asking to cut below committed: clamped, not obeyed.
	hop := &proto.Packet{
		Op: proto.OpDataTruncate, ResultCode: 0xF7, ReqID: 6,
		PartitionID: 100, ExtentID: eid, ExtentOffset: 2,
	}
	if err := tc.nw.Call(tc.addrs[0], uint8(proto.OpDataTruncate), hop, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ResultCode != proto.ResultOK {
		t.Fatalf("hop truncate rc=%d (%s)", resp.ResultCode, resp.Data)
	}
	if data, rr := tc.read(t, tc.addrs[0], 100, eid, 0, 9); rr.ResultCode != proto.ResultOK || string(data) != "committed" {
		t.Fatalf("committed bytes lost to a truncate hop: %q rc=%d", data, rr.ResultCode)
	}

	// Whole-extent shed (FileOffset marker) of an extent with committed
	// bytes: refused.
	shed := &proto.Packet{
		Op: proto.OpDataTruncate, ResultCode: 0xF7, ReqID: 7,
		PartitionID: 100, ExtentID: eid, FileOffset: ^uint64(0),
	}
	if err := tc.nw.Call(tc.addrs[0], uint8(proto.OpDataTruncate), shed, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ResultCode == proto.ResultOK {
		t.Fatal("whole-extent shed of a committed extent accepted")
	}
	if data, rr := tc.read(t, tc.addrs[0], 100, eid, 0, 9); rr.ResultCode != proto.ResultOK || string(data) != "committed" {
		t.Fatalf("committed extent destroyed by a shed hop: %q rc=%d", data, rr.ResultCode)
	}
}

// TestFollowerAdoptsHopEpoch: a follower that missed the master's
// reconfiguration push still fences the deposed leader after the FIRST
// newer-epoch frame it accepts (the fence watermark rides replication
// hops, not just admin pushes).
func TestFollowerAdoptsHopEpoch(t *testing.T) {
	tc := startCluster(t, 2)
	tc.createPartition(t, 100)
	eid := tc.createExtent(t, 100)
	fp := tc.nodes[1].Partition(100)

	// A newer-epoch committed-gossip hop teaches the follower epoch 5.
	newer := &proto.Packet{
		Op: proto.OpDataCommitted, ResultCode: 0xF7,
		PartitionID: 100, ExtentID: eid, Epoch: 5,
	}
	var resp proto.Packet
	if err := tc.nw.Call(tc.addrs[1], uint8(proto.OpDataCommitted), newer, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ResultCode != proto.ResultOK {
		t.Fatalf("newer-epoch hop rc=%d (%s)", resp.ResultCode, resp.Data)
	}
	if fp.Epoch() != 1 {
		t.Fatalf("config epoch moved to %d; hops must not rewrite the master's config version", fp.Epoch())
	}

	// The deposed leader's config-epoch (1) hops are now rejected even
	// though the follower's own config epoch is still 1.
	stale := appendHopPacket(100, proto.NewPacket(proto.OpDataAppend, 9, 100, eid, []byte("zombie")), eid, 0, false, 0, 1)
	if err := tc.nw.Call(tc.addrs[1], uint8(proto.OpDataAppend), stale, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ResultCode != proto.ResultErrStaleEpoch {
		t.Fatalf("stale hop after adoption rc=%d, want ResultErrStaleEpoch", resp.ResultCode)
	}
}

// TestAlignReshipsFromCommittedPrefix is the content-fork regression: a
// follower's bytes ABOVE its committed offset may have been applied under
// a different leader and can differ from the aligner's byte-for-byte even
// below the aligner's watermark. Size-only alignment used to skip them
// (sizes matched), then mark them committed - serving forked bytes.
// Alignment must trust only the committed prefix and re-ship the rest.
func TestAlignReshipsFromCommittedPrefix(t *testing.T) {
	tc := startCluster(t, 2)
	tc.createPartition(t, 100)
	eid := tc.createExtent(t, 100)
	tc.append(t, 100, eid, []byte("AAAA")) // committed 4 on both replicas

	// Fabricate the fork directly in the stores, as a dead leader's
	// uncommitted forwards would have left it: the follower applied one
	// tail, the (new) leader holds a different one, sizes equal.
	lp := tc.nodes[0].Partition(100)
	fp := tc.nodes[1].Partition(100)
	if _, err := lp.store.Append(eid, []byte("BBBB")); err != nil {
		t.Fatal(err)
	}
	if err := fp.store.AppendAt(eid, 4, []byte("XXXX")); err != nil {
		t.Fatal(err)
	}

	tc.quiesce(t)
	if _, err := lp.Recover(); err != nil {
		t.Fatal(err)
	}
	// The follower's fork was shed and the leader's content re-shipped;
	// both replicas serve the leader's history.
	if data := tc.readEventually(t, tc.addrs[1], 100, eid, 0, 8); string(data) != "AAAABBBB" {
		t.Fatalf("follower serves forked bytes after alignment: %q", data)
	}
	if data := tc.readEventually(t, tc.addrs[0], 100, eid, 0, 8); string(data) != "AAAABBBB" {
		t.Fatalf("leader read = %q", data)
	}
}

// TestAlignShipsFromWhatTheTruncateKept: a follower truncates no lower than
// its committed offset as the truncate arrives, and a committed-offset
// gossip still in flight can raise that offset after the follower reported
// its extents. Alignment must then ship from the size the follower kept,
// not from the prefix it asked for, or the follower refuses the append as
// stale data and Recover fails. The follower here is a stand-in: it first
// reports 10 bytes with none committed, and after the truncate all 10 kept.
func TestAlignShipsFromWhatTheTruncateKept(t *testing.T) {
	tc := startCluster(t, 1)
	tc.createPartition(t, 100)
	eid := tc.createExtent(t, 100)
	tc.append(t, 100, eid, []byte("committed.tail"))

	var infos int
	var offsets []uint64
	ln, err := tc.nw.Listen("follower", func(op uint8, req any) (any, error) {
		switch proto.Op(op) {
		case proto.OpDataExtentInfo:
			infos++
			kept := proto.ExtentSummary{ID: eid, Size: 10}
			if infos > 1 {
				kept.Committed = 10
			}
			return &proto.ExtentInfoResp{Extents: []proto.ExtentSummary{kept}}, nil
		case proto.OpDataTruncate:
			return req.(*proto.Packet).OKResponse(nil), nil
		case proto.OpDataAppend:
			pkt := req.(*proto.Packet)
			offsets = append(offsets, pkt.ExtentOffset)
			return pkt.OKResponse(nil), nil
		}
		return nil, errors.New("stand-in follower: unexpected op")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	shipped, err := tc.nodes[0].Partition(100).AlignReplicas("follower")
	if err != nil {
		t.Fatal(err)
	}
	if shipped != 4 || len(offsets) != 1 || offsets[0] != 10 {
		t.Fatalf("shipped %d bytes at offsets %v, want 4 at [10]", shipped, offsets)
	}
}

// TestDeposedLeaderDoesNotAdoptCommitted: a deposed leader restarting on a
// stale partition.json must NOT adopt committed offsets from followers at
// a newer epoch - those offsets belong to a configuration that may have
// committed different bytes than the zombie stores.
func TestDeposedLeaderDoesNotAdoptCommitted(t *testing.T) {
	tc := startCluster(t, 2)
	tc.createPartition(t, 100)
	eid := tc.createExtent(t, 100)
	tc.append(t, 100, eid, []byte("AAAA")) // committed 4 everywhere

	// The follower moves to epoch 2 (as a master failover push would) and
	// its committed advances under the new configuration.
	fp := tc.nodes[1].Partition(100)
	fp.applyReconfig([]string{tc.addrs[1]}, 2)
	fp.advanceCommitted(eid, 8)

	// The deposed leader (still epoch 1) adopts follower committed maps -
	// the restart-time phase-1 pass. It must skip the newer-epoch reply.
	lp := tc.nodes[0].Partition(100)
	lp.adoptFollowerCommitted()
	if got := lp.CommittedOf(eid); got != 4 {
		t.Fatalf("deposed leader adopted committed=%d from a newer-epoch follower, want 4", got)
	}
}

// TestDeposedLeaderRecoverAborts: a deposed leader whose followers are
// fully caught up would send ZERO hops during alignment - nothing for the
// per-hop fence to reject - and Recover would then promote its divergent
// uncommitted tail to committed. The extent-info epoch check aborts the
// pass first.
func TestDeposedLeaderRecoverAborts(t *testing.T) {
	tc := startCluster(t, 2)
	tc.createPartition(t, 100)
	eid := tc.createExtent(t, 100)
	tc.append(t, 100, eid, []byte("AAAA")) // committed 4 everywhere

	// The zombie holds a divergent local tail; its follower moved on to
	// epoch 2 (and is at least as long, so alignment would be hop-free).
	lp := tc.nodes[0].Partition(100)
	fp := tc.nodes[1].Partition(100)
	if _, err := lp.store.Append(eid, []byte("ZZZZ")); err != nil {
		t.Fatal(err)
	}
	if err := fp.store.AppendAt(eid, 4, []byte("NEWW")); err != nil {
		t.Fatal(err)
	}
	fp.applyReconfig([]string{tc.addrs[1], tc.addrs[0]}, 2)

	tc.quiesce(t)
	if _, err := lp.Recover(); !errors.Is(err, util.ErrStaleEpoch) {
		t.Fatalf("deposed leader's Recover = %v, want ErrStaleEpoch", err)
	}
	if got := lp.CommittedOf(eid); got != 4 {
		t.Fatalf("deposed leader promoted committed to %d, want 4", got)
	}
}

// TestIdleChainsNeverRetire: a leader's forward chains are sessions of the
// engine the client rides, whose idle retire would fail a chain after 12
// keepalive intervals without a write and report a healthy follower to
// the master. A write session held quiet for 20 intervals reports nobody,
// binds no write slot on a follower (the chains' keepalives are
// hop-marked), and its next append commits on every replica.
func TestIdleChainsNeverRetire(t *testing.T) {
	const keepalive = 5 * time.Millisecond
	tc := startClusterCfg(t, 3, func(i int, cfg *Config) { cfg.KeepaliveInterval = keepalive })
	tc.createPartition(t, 100)
	st := tc.openWriteStream(t)
	eid := streamCreateExtent(t, st, 100) // opens the chains

	time.Sleep(20 * keepalive)
	for _, dn := range tc.nodes[1:] {
		p := dn.Partition(100)
		p.mu.Lock()
		live := p.liveSessions
		p.mu.Unlock()
		if live != 0 {
			t.Fatalf("follower %s holds %d write slots: a chain keepalive reached its client path", dn.addr, live)
		}
	}
	data := []byte("after the quiet spell")
	if err := st.Send(streamAppendPkt(2, 100, eid, data)); err != nil {
		t.Fatal(err)
	}
	if ack, err := st.Recv(); err != nil || ack.ReqID != 2 || ack.ResultCode != proto.ResultOK {
		t.Fatalf("append after %v idle = %+v, %v", 20*keepalive, ack, err)
	}
	for _, addr := range tc.addrs {
		if got := tc.readEventually(t, addr, 100, eid, 0, uint32(len(data))); string(got) != string(data) {
			t.Fatalf("replica %s serves %q, want %q", addr, got, data)
		}
	}
	select {
	case r := <-startedMasterFailures(tc):
		t.Fatalf("an idle session reported %s failed", r.Addr)
	default:
	}
}

// TestIdleChainReportsDeadFollower: a follower killed under an idle write
// session is reported to the master by the chain alone - the follower's
// end of the stream dies with it - without the client writing again.
func TestIdleChainReportsDeadFollower(t *testing.T) {
	tc := startClusterCfg(t, 3, func(i int, cfg *Config) {
		cfg.KeepaliveInterval = 5 * time.Millisecond
	})
	tc.createPartition(t, 100)
	st := tc.openWriteStream(t)
	streamCreateExtent(t, st, 100) // opens the chains

	tc.nodes[2].Close()
	select {
	case r := <-startedMasterFailures(tc):
		if r.Addr != tc.addrs[2] {
			t.Fatalf("master was told %s failed; only %s did", r.Addr, tc.addrs[2])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the follower killed under an idle session was never reported")
	}
}
