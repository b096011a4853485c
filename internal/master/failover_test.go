package master

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cfs/internal/client"
	"cfs/internal/clock"
	"cfs/internal/datanode"
	"cfs/internal/datanode/dntest"
	"cfs/internal/meta"
	"cfs/internal/proto"
	"cfs/internal/transport"
	"cfs/internal/util"
)

// failEnv is a restartable cluster for failover scenarios: one master, one
// meta node, and data nodes whose directories survive kills so nodes can
// come back as themselves (or as zombies). All of them run on one manual
// clock that only the test moves.
type failEnv struct {
	t     *testing.T
	nw    *transport.Memory
	clk   *clock.Manual
	m     *Master
	meta  *meta.MetaNode
	datas []*datanode.DataNode // nil slot = currently down
	addrs []string
	dirs  []string
}

// beat is the period at which meta and data nodes heartbeat on a real
// clock. A pump lets one pass.
const beat = time.Second

func newFailEnv(t *testing.T, dataN int) *failEnv {
	t.Helper()
	nw := transport.NewMemory()
	clk := clock.NewManual(time.Now())
	m, err := Start(nw, Config{Addr: "master0", Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	if !m.WaitLeader(5 * time.Second) {
		t.Fatal("master never elected a leader")
	}
	e := &failEnv{t: t, nw: nw, clk: clk, m: m}
	mn, err := meta.Start(nw, meta.Config{
		Addr: "mn0", MasterAddr: "master0", Clock: clk,
		Total: 32 * util.GB,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mn.Close)
	e.meta = mn
	for i := 0; i < dataN; i++ {
		addr := fmt.Sprintf("dn%d", i)
		e.addrs = append(e.addrs, addr)
		e.dirs = append(e.dirs, t.TempDir())
		e.datas = append(e.datas, e.bootData(i))
	}
	var resp proto.CreateVolumeResp
	if err := nw.Call("master0", uint8(proto.OpMasterCreateVolume), &proto.CreateVolumeReq{
		Name: "vol", MetaPartitionCount: 1, DataPartitionCount: 1,
	}, &resp); err != nil {
		t.Fatal(err)
	}
	return e
}

func (e *failEnv) bootData(i int) *datanode.DataNode {
	e.t.Helper()
	dn, err := datanode.Start(e.nw, datanode.Config{
		Addr: e.addrs[i], MasterAddr: "master0", Dir: e.dirs[i],
		Clock: e.clk,
	})
	if err != nil {
		e.t.Fatal(err)
	}
	e.t.Cleanup(func() { dn.Close() })
	return dn
}

// kill simulates a data-node crash: the process goes away and its address
// stops answering (Partition cuts the streams a plain Close leaves open).
// Then exactly NodeTimeout passes while the live nodes beat, so the next
// pump's scan declares the node dead.
func (e *failEnv) kill(i int) {
	e.nw.Partition(e.addrs[i])
	e.datas[i].Close()
	e.datas[i] = nil
	e.pass(e.m.cfg.NodeTimeout)
}

// restart brings a killed node back on its old directory.
func (e *failEnv) restart(i int) {
	e.nw.Heal(e.addrs[i])
	e.datas[i] = e.bootData(i)
}

// heartbeatLive sends one heartbeat from every running node.
func (e *failEnv) heartbeatLive() {
	e.meta.SendHeartbeat()
	for _, dn := range e.datas {
		if dn != nil {
			dn.SendHeartbeat()
		}
	}
}

func (e *failEnv) view() *proto.VolumeView {
	e.t.Helper()
	var resp proto.GetVolumeResp
	if err := e.nw.Call("master0", uint8(proto.OpMasterGetVolume),
		&proto.GetVolumeReq{Name: "vol"}, &resp); err != nil {
		e.t.Fatal(err)
	}
	return resp.View
}

func (e *failEnv) dataPartition() proto.DataPartitionInfo {
	e.t.Helper()
	v := e.view()
	if len(v.DataPartitions) == 0 {
		e.t.Fatal("volume has no data partitions")
	}
	return v.DataPartitions[0]
}

// pass moves the clock d forward one heartbeat period at a time, every
// live node beating (and so renewing its read lease) after each period.
func (e *failEnv) pass(d time.Duration) {
	for ; d > 0; d -= beat {
		e.clk.Advance(min(d, beat))
		e.heartbeatLive()
	}
}

// pump lets one heartbeat period pass and runs a maintenance scan.
func (e *failEnv) pump() {
	e.pass(beat)
	e.m.CheckOnce()
}

// driveUntil pumps until cond holds. The deadline and the pause between
// pumps are wall time: they wait on the Raft and recovery work the
// reconfigurations start.
func (e *failEnv) driveUntil(what string, cond func() bool) {
	e.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		e.pump()
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			e.t.Fatalf("%s never happened", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func (e *failEnv) readExtent(addr string, pid, eid, off uint64, length uint32) (*proto.Packet, []byte) {
	e.t.Helper()
	pkt := proto.NewPacket(proto.OpDataRead, 99, pid, eid, nil)
	pkt.ExtentOffset, pkt.FileOffset = off, uint64(length)
	var resp proto.Packet
	if err := e.nw.Call(addr, uint8(proto.OpDataRead), pkt, &resp); err != nil {
		return &proto.Packet{ResultCode: proto.ResultErrIO, Data: []byte(err.Error())}, nil
	}
	return &resp, resp.Data
}

// TestLeaderFailoverPromotesAndReplays is the acceptance scenario: the
// partition leader is killed, the master notices through missed heartbeats
// and promotes a live follower under a bumped ReplicaEpoch, and the client
// replays its uncommitted tail against the new leader - the partition is
// writable again with no operator intervention, and read-your-writes holds
// across the failover.
func TestLeaderFailoverPromotesAndReplays(t *testing.T) {
	e := newFailEnv(t, 3)
	c, err := client.Mount(e.nw, "master0", "vol", client.Config{
		PacketSize:        4 * 1024,
		AckDeadline:       500 * time.Millisecond,
		KeepaliveInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	dp, err := c.Data.PickWritable()
	if err != nil {
		t.Fatal(err)
	}
	if dp.ReplicaEpoch != 1 || len(dp.Members) != 3 {
		t.Fatalf("fresh partition: epoch=%d members=%v", dp.ReplicaEpoch, dp.Members)
	}
	oldLeader := dp.Members[0]
	var killIdx int
	for i, a := range e.addrs {
		if a == oldLeader {
			killIdx = i
		}
	}

	w, err := c.Data.NewExtentWriter(dp)
	if err != nil {
		t.Fatal(err)
	}
	before := bytes.Repeat([]byte("B"), 8*1024)
	if _, err := w.Write(0, before); err != nil {
		t.Fatal(err)
	}
	committed, _, err := w.Drain()
	if err != nil {
		t.Fatal(err)
	}

	// Kill the leader, then push a tail that can no longer commit. Write
	// stops accepting once the session dies, so the stranded state is the
	// ACCEPTED prefix (surfaced by Drain as PendingWrites) plus the
	// unaccepted remainder the caller still holds - core.File replays
	// both, and so does this test.
	killedAt := time.Now()
	e.kill(killIdx)
	after := bytes.Repeat([]byte("T"), 8*1024)
	n, _ := w.Write(uint64(len(before)), after)
	_, pend, derr := w.Drain()
	if derr == nil {
		t.Fatal("Drain returned clean through a dead leader")
	}
	w.Close()
	var tail []byte
	for _, pw := range pend {
		tail = append(tail, pw.Data...)
	}
	if !bytes.Equal(tail, after[:n]) {
		t.Fatalf("pending tail = %d bytes, want the %d accepted bytes", len(tail), n)
	}
	if n < len(after) {
		pend = append(pend, client.PendingWrite{
			FileOffset: uint64(len(before) + n), Data: after[n:],
		})
	}

	// The master notices the silence and reorders the replica array.
	e.driveUntil("leader failover", func() bool {
		cur := e.dataPartition()
		return cur.ReplicaEpoch >= 2 && len(cur.Members) == 2 && cur.Members[0] != oldLeader &&
			cur.Status == proto.PartitionReadWrite
	})
	cur := e.dataPartition()
	if len(cur.Detached) != 1 || cur.Detached[0] != oldLeader {
		t.Fatalf("detached = %v, want the dead leader %s", cur.Detached, oldLeader)
	}

	// Replay the pending tail the way core.File does: refresh, re-dial the
	// new leader, write the carried chunks, drain. The promoted leader may
	// briefly refuse binds while its alignment pass runs - that rejection
	// is retriable by contract, so the loop below is the client's loop.
	var replayed []proto.ExtentKey
	deadline := time.Now().Add(10 * time.Second)
	var firstCommit time.Time
	for {
		if err := c.Refresh(); err != nil {
			t.Fatal(err)
		}
		dp2, err := c.Data.PickWritable()
		if err != nil {
			t.Fatal(err)
		}
		w2, err := c.Data.NewExtentWriter(dp2)
		if err == nil {
			off := uint64(len(before))
			for _, pw := range pend {
				if _, err = w2.Write(pw.FileOffset, pw.Data); err != nil {
					break
				}
				off += uint64(len(pw.Data))
			}
			var keys []proto.ExtentKey
			keys, _, err = w2.Drain()
			w2.Close()
			if err == nil {
				replayed = keys
				firstCommit = time.Now()
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("replay never committed on the promoted leader: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Logf("failover downtime: kill -> first replayed commit = %v", firstCommit.Sub(killedAt))

	// Read-your-writes across the failover: every committed key - written
	// before the kill or replayed after - serves its bytes.
	var got []byte
	for _, ek := range append(append([]proto.ExtentKey(nil), committed...), replayed...) {
		data, err := c.Data.Read(ek, ek.ExtentOffset, ek.Size)
		if err != nil {
			t.Fatalf("read %v after failover: %v", ek, err)
		}
		got = append(got, data...)
	}
	if want := append(append([]byte(nil), before...), after...); !bytes.Equal(got, want) {
		t.Fatalf("read-your-writes broken across failover: got %d bytes, want %d", len(got), len(want))
	}
}

// TestFollowerRestartTriggersTargetedRecover: a follower that crash-
// restarts while its leader stays up re-registers, and the master reacts
// by tasking THAT partition's leader with a targeted Recover - before this
// hook, nothing realigned the follower until the leader's own (restart-
// only) recovery pass, so a crashed follower served nothing indefinitely.
func TestFollowerRestartTriggersTargetedRecover(t *testing.T) {
	e := newFailEnv(t, 3)
	c, err := client.Mount(e.nw, "master0", "vol", client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dp, err := c.Data.PickWritable()
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.Data.NewExtentWriter(dp)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("survives follower crashes")
	if _, err := w.Write(0, payload); err != nil {
		t.Fatal(err)
	}
	keys, _, err := w.Drain()
	if err != nil || len(keys) != 1 {
		t.Fatalf("baseline drain: %d keys, %v", len(keys), err)
	}
	w.Close()
	c.Close() // frees the partition's session slot (Recover is quiesce-gated)
	ek := keys[0]

	follower := dp.Members[2]
	var idx int
	for i, a := range e.addrs {
		if a == follower {
			idx = i
		}
	}
	e.datas[idx].Close() // plain close: quick restart, no failover involved
	e.datas[idx] = nil
	// Simulate the crash having lost the committed snapshot: without it
	// the restarted follower clamps every read at zero.
	if err := os.Remove(filepath.Join(e.dirs[idx], fmt.Sprintf("dp_%d", dp.PartitionID), "committed.json")); err != nil {
		t.Fatal(err)
	}
	e.datas[idx] = e.bootData(idx)

	// The restart re-registered with the master; no heartbeats, no
	// maintenance scan - the re-registration hook alone must realign the
	// follower through the leader's targeted Recover.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, data := e.readExtent(follower, dp.PartitionID, ek.ExtentID, ek.ExtentOffset, ek.Size)
		if resp.ResultCode == proto.ResultOK {
			if !bytes.Equal(data, payload) {
				t.Fatalf("follower read = %q after targeted recover", data)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted follower never realigned: rc=%d %s", resp.ResultCode, resp.Data)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStaleEpochFenced is the fence regression the acceptance criteria
// demand: after a failover, a writer still holding the old view can never
// commit bytes through the deposed leader (its followers reject the
// stale-epoch hops, so no all-replica ack can assemble), and a stale-epoch
// session open against the NEW leader is rejected with the retriable
// stale-epoch code.
func TestStaleEpochFenced(t *testing.T) {
	e := newFailEnv(t, 3)
	dp := e.dataPartition()
	oldLeader := dp.Members[0]
	var killIdx int
	for i, a := range e.addrs {
		if a == oldLeader {
			killIdx = i
		}
	}

	// Baseline through the original chain.
	w, err := dntest.Dial(e.nw, oldLeader, dp.PartitionID)
	if err != nil {
		t.Fatal(err)
	}
	w.Epoch = 1
	eid := w.MustCreateExtent(t)
	w.MustAppend(t, eid, []byte("epoch1-bytes"))
	w.Close()

	// Failover away from the old leader.
	e.kill(killIdx)
	e.driveUntil("leader failover", func() bool {
		cur := e.dataPartition()
		return cur.ReplicaEpoch >= 2 && cur.Members[0] != oldLeader
	})
	cur := e.dataPartition()
	newLeader := cur.Members[0]

	// The old leader comes back as a ZOMBIE: same directory (it still
	// believes it leads at epoch 1), but unregistered, so the master does
	// not re-attach it and its stale state stands.
	e.nw.Heal(e.addrs[killIdx])
	zombie, err := datanode.Start(e.nw, datanode.Config{
		Addr: e.addrs[killIdx], Dir: e.dirs[killIdx],
	})
	if err != nil {
		t.Fatal(err)
	}
	defer zombie.Close()
	zp := zombie.Partition(dp.PartitionID)
	if zp == nil {
		t.Fatal("zombie did not reopen its partition")
	}
	if zp.Epoch() != 1 {
		t.Fatalf("zombie epoch = %d, want the stale 1", zp.Epoch())
	}
	committedBefore := e.zombieCommitted(zp, eid)

	// A stale-view writer binds to the zombie (epochs match!) and pushes a
	// tail. The zombie applies it locally - but its followers hold epoch
	// >= 2 and reject the hops, so the session aborts and nothing commits:
	// the fence holds exactly where it must.
	zw, err := dntest.Dial(e.nw, oldLeader, dp.PartitionID)
	if err != nil {
		t.Fatal(err)
	}
	defer zw.Close()
	zw.Epoch = 1
	ack, err := zw.Append(eid, []byte("fenced-tail"))
	if err != nil {
		t.Fatal(err)
	}
	if ack.ResultCode == proto.ResultOK {
		t.Fatal("a stale-epoch writer committed bytes through the deposed leader")
	}
	if got := e.zombieCommitted(zp, eid); got != committedBefore {
		t.Fatalf("zombie committed moved %d -> %d under a fenced write", committedBefore, got)
	}
	// The tail is never served either (the Section 2.2.5 clamp).
	if resp, _ := e.readExtent(oldLeader, dp.PartitionID, eid, committedBefore, uint32(len("fenced-tail"))); resp.ResultCode == proto.ResultOK {
		t.Fatal("zombie served its fenced stale tail")
	}

	// A stale-epoch session open against the NEW leader is rejected with
	// the dedicated retriable code.
	sw, err := dntest.Dial(e.nw, newLeader, dp.PartitionID)
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	sw.Epoch = 1
	if ack, err = sw.Append(eid, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if ack.ResultCode != proto.ResultErrStaleEpoch {
		t.Fatalf("stale-epoch open rc = %d, want ResultErrStaleEpoch", ack.ResultCode)
	}

	// And a CURRENT-epoch writer commits through the new leader: the
	// partition survived its leader's death writable.
	cw, err := dntest.Dial(e.nw, newLeader, dp.PartitionID)
	if err != nil {
		t.Fatal(err)
	}
	defer cw.Close()
	cw.Epoch = cur.ReplicaEpoch
	deadline := time.Now().Add(10 * time.Second)
	for {
		if ack, err = cw.Append(eid, []byte("epoch2-bytes")); err != nil {
			t.Fatal(err)
		}
		if ack.ResultCode == proto.ResultOK {
			break
		}
		if ack.ResultCode != proto.ResultErrAgain {
			t.Fatalf("current-epoch append rc = %d (%s)", ack.ResultCode, ack.Data)
		}
		if time.Now().After(deadline) {
			t.Fatal("promoted leader never finished its alignment pass")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// zombieCommitted reads a partition's committed offset (works for any
// replica handle, including unregistered zombies).
func (e *failEnv) zombieCommitted(p *datanode.Partition, eid uint64) uint64 {
	e.t.Helper()
	return p.CommittedOf(eid)
}

// TestDetachedReplicaReattaches: a replica detached by a failure report
// re-attaches through the maintenance scan once its heartbeats resume (and
// only with heartbeats NEWER than the detach), under another epoch bump,
// and ends realigned - new writes commit through all three replicas again.
func TestDetachedReplicaReattaches(t *testing.T) {
	e := newFailEnv(t, 3)
	dp := e.dataPartition()
	follower := dp.Members[1]

	var resp proto.ReportFailureResp
	if err := e.nw.Call("master0", uint8(proto.OpMasterReportFailure),
		&proto.ReportFailureReq{PartitionID: dp.PartitionID, Addr: follower}, &resp); err != nil {
		t.Fatal(err)
	}
	cur := e.dataPartition()
	if len(cur.Members) != 2 || cur.ReplicaEpoch != 2 || len(cur.Detached) != 1 {
		t.Fatalf("after report: members=%v epoch=%d detached=%v", cur.Members, cur.ReplicaEpoch, cur.Detached)
	}

	// The node is alive and heartbeating: the scan re-attaches it.
	e.driveUntil("re-attach", func() bool {
		cur := e.dataPartition()
		return cur.ReplicaEpoch >= 3 && len(cur.Members) == 3 && len(cur.Detached) == 0
	})
	cur = e.dataPartition()
	if cur.Members[len(cur.Members)-1] != follower {
		t.Fatalf("re-attached replica %s should rejoin at the END of %v", follower, cur.Members)
	}

	// Writes commit through the re-attached replica (poll: the leader may
	// still be aligning it, and the datanodes may still be adopting the
	// pushed epoch).
	c, err := client.Mount(e.nw, "master0", "vol", client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.Now().Add(10 * time.Second)
	var ek proto.ExtentKey
	for {
		ek, err = c.Data.WriteSmallFile(0, []byte("all-three-again"))
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("write never committed after re-attach: %v", err)
		}
		_ = c.Refresh()
		time.Sleep(10 * time.Millisecond)
	}
	// The re-attached follower itself serves the bytes once gossip lands.
	deadline = time.Now().Add(5 * time.Second)
	for {
		resp, data := e.readExtent(follower, ek.PartitionID, ek.ExtentID, ek.ExtentOffset, ek.Size)
		if resp.ResultCode == proto.ResultOK {
			if string(data) != "all-three-again" {
				t.Fatalf("re-attached follower read = %q", data)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("re-attached follower never served the new write: rc=%d %s", resp.ResultCode, resp.Data)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReattachRecreatesWipedReplica: a replica that lost its disk between
// detach and re-attach is re-created empty by the reconfiguration push
// (Volume/Capacity ride the update) and refilled by the leader's
// alignment pass - instead of wedging the partition with a member that
// cannot host it.
func TestReattachRecreatesWipedReplica(t *testing.T) {
	e := newFailEnv(t, 3)
	c, err := client.Mount(e.nw, "master0", "vol", client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dp, err := c.Data.PickWritable()
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.Data.NewExtentWriter(dp)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("refill-me-from-the-leader")
	if _, err := w.Write(0, payload); err != nil {
		t.Fatal(err)
	}
	keys, _, err := w.Drain()
	if err != nil || len(keys) != 1 {
		t.Fatalf("baseline drain: %d keys, %v", len(keys), err)
	}
	w.Close()
	c.Close() // frees the partition's session slot (Recover is quiesce-gated)
	ek := keys[0]

	follower := dp.Members[2]
	var idx int
	for i, a := range e.addrs {
		if a == follower {
			idx = i
		}
	}
	// Detach, then bring the node back with a WIPED data directory.
	var resp proto.ReportFailureResp
	if err := e.nw.Call("master0", uint8(proto.OpMasterReportFailure),
		&proto.ReportFailureReq{PartitionID: dp.PartitionID, Addr: follower}, &resp); err != nil {
		t.Fatal(err)
	}
	e.datas[idx].Close()
	e.datas[idx] = nil
	e.dirs[idx] = t.TempDir() // the disk is gone
	e.datas[idx] = e.bootData(idx)

	e.driveUntil("re-attach of the wiped replica", func() bool {
		cur := e.dataPartition()
		return len(cur.Members) == 3 && len(cur.Detached) == 0
	})
	// The recreated replica ends up serving the baseline bytes the leader
	// re-shipped into it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, data := e.readExtent(follower, dp.PartitionID, ek.ExtentID, ek.ExtentOffset, ek.Size)
		if resp.ResultCode == proto.ResultOK {
			if !bytes.Equal(data, payload) {
				t.Fatalf("wiped replica refilled with %q", data)
			}
			return
		}
		e.pump()
		if time.Now().After(deadline) {
			t.Fatalf("wiped replica never refilled: rc=%d %s", resp.ResultCode, resp.Data)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestUnavailablePartitionRevives: losing the LAST member marks a
// partition unavailable; when that member comes back heartbeating with its
// data intact, the maintenance scan flips it read-write again - no
// operator intervention.
func TestUnavailablePartitionRevives(t *testing.T) {
	e := newFailEnv(t, 1)
	dp := e.dataPartition()
	if len(dp.Members) != 1 {
		t.Fatalf("want a single-replica partition, got %v", dp.Members)
	}
	e.kill(0)
	e.driveUntil("unavailable after losing the only replica", func() bool {
		return e.dataPartition().Status == proto.PartitionUnavailable
	})
	e.restart(0)
	e.driveUntil("revival", func() bool {
		return e.dataPartition().Status == proto.PartitionReadWrite
	})

	// Writable again end to end.
	c, err := client.Mount(e.nw, "master0", "vol", client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err = c.Data.WriteSmallFile(0, []byte("back-from-the-dead")); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("write never succeeded after revival: %v", err)
		}
		_ = c.Refresh()
		time.Sleep(10 * time.Millisecond)
	}
}
