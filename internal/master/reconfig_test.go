package master

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"cfs/internal/client"
	"cfs/internal/clock"
	"cfs/internal/datanode"
	"cfs/internal/meta"
	"cfs/internal/proto"
	"cfs/internal/transport"
	"cfs/internal/util"
)

// Membership-change integration suite (DESIGN.md Section 5.5): the master's
// reconfiguration decisions must translate into matching Raft ConfChanges on
// the replicas, so the PacificA epoch fence and the Raft quorum stay ONE
// view of who each partition is. Every scenario runs over both the
// in-process Memory fabric and real TCP loopback sockets.

// rcNet is the fabric surface these tests drive; Memory and TCP both
// satisfy it.
type rcNet interface {
	transport.PacketStreamNetwork
	Heal(addr string)
}

// rcEnv is a restartable multi-meta-node, multi-data-node cluster,
// parameterized over the transport fabric. The master and every node run
// on one manual clock that only the test moves.
type rcEnv struct {
	t         *testing.T
	fabric    string
	nw        rcNet
	clk       *clock.Manual
	m         *Master
	metas     []*meta.MetaNode // nil slot = currently down
	datas     []*datanode.DataNode
	metaAddrs []string
	dataAddrs []string
	metaDirs  []string
	dataDirs  []string
}

func newRcEnv(t *testing.T, fabric string, metaN, dataN int) *rcEnv {
	t.Helper()
	e := &rcEnv{t: t, fabric: fabric, clk: clock.NewManual(time.Now())}
	var masterAddr string
	if fabric == "tcp" {
		addrs, err := transport.LoopbackAddrs(1 + metaN + dataN)
		if err != nil {
			t.Fatal(err)
		}
		e.nw = transport.NewTCP()
		masterAddr = addrs[0]
		e.metaAddrs = addrs[1 : 1+metaN]
		e.dataAddrs = addrs[1+metaN:]
	} else {
		e.nw = transport.NewMemory()
		masterAddr = "master0"
		for i := 0; i < metaN; i++ {
			e.metaAddrs = append(e.metaAddrs, fmt.Sprintf("mn%d", i))
		}
		for i := 0; i < dataN; i++ {
			e.dataAddrs = append(e.dataAddrs, fmt.Sprintf("dn%d", i))
		}
	}
	m, err := Start(e.nw, Config{Addr: masterAddr, Clock: e.clk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	if !m.WaitLeader(5 * time.Second) {
		t.Fatal("master never elected a leader")
	}
	e.m = m
	for i := 0; i < metaN; i++ {
		e.metaDirs = append(e.metaDirs, t.TempDir())
		e.metas = append(e.metas, e.bootMeta(i))
	}
	for i := 0; i < dataN; i++ {
		e.dataDirs = append(e.dataDirs, t.TempDir())
		e.datas = append(e.datas, e.bootData(i))
	}
	var resp proto.CreateVolumeResp
	if err := e.nw.Call(e.m.Addr(), uint8(proto.OpMasterCreateVolume), &proto.CreateVolumeReq{
		Name: "vol", MetaPartitionCount: 1, DataPartitionCount: 1,
	}, &resp); err != nil {
		t.Fatal(err)
	}
	return e
}

func (e *rcEnv) bootMeta(i int) *meta.MetaNode {
	e.t.Helper()
	mn, err := meta.Start(e.nw, meta.Config{
		Addr: e.metaAddrs[i], MasterAddr: e.m.Addr(), Dir: e.metaDirs[i],
		Clock: e.clk,
		Total: 32 * util.GB,
	})
	if err != nil {
		e.t.Fatal(err)
	}
	e.t.Cleanup(func() { mn.Close() })
	return mn
}

func (e *rcEnv) bootData(i int) *datanode.DataNode {
	e.t.Helper()
	dn, err := datanode.Start(e.nw, datanode.Config{
		Addr: e.dataAddrs[i], MasterAddr: e.m.Addr(), Dir: e.dataDirs[i],
		Clock: e.clk,
	})
	if err != nil {
		e.t.Fatal(err)
	}
	e.t.Cleanup(func() { dn.Close() })
	return dn
}

// cut makes addr unreachable. The Memory fabric models a symmetric
// partition; on TCP, closing the node (the caller's job) closes its
// listener, which is how a real crashed process disappears.
func (e *rcEnv) cut(addr string) {
	if m, ok := e.nw.(*transport.Memory); ok {
		m.Partition(addr)
	}
}

// killMeta and killData crash a node, then let exactly NodeTimeout pass
// while the live nodes beat, so the next pump's scan declares it dead.
func (e *rcEnv) killMeta(addr string) int {
	e.t.Helper()
	i := rcIndexOf(e.metaAddrs, addr)
	e.cut(addr)
	e.metas[i].Close()
	e.metas[i] = nil
	e.pass(e.m.cfg.NodeTimeout)
	return i
}

func (e *rcEnv) killData(addr string) int {
	e.t.Helper()
	i := rcIndexOf(e.dataAddrs, addr)
	e.cut(addr)
	e.datas[i].Close()
	e.datas[i] = nil
	e.pass(e.m.cfg.NodeTimeout)
	return i
}

// restartMeta brings a killed meta node back on its old directory,
// registered with the master (a normal process restart).
func (e *rcEnv) restartMeta(i int) {
	e.t.Helper()
	e.nw.Heal(e.metaAddrs[i])
	e.metas[i] = e.bootMeta(i)
}

func (e *rcEnv) heartbeatLive() {
	for _, mn := range e.metas {
		if mn != nil {
			mn.SendHeartbeat()
		}
	}
	for _, dn := range e.datas {
		if dn != nil {
			dn.SendHeartbeat()
		}
	}
}

// pass moves the clock d forward one heartbeat period at a time, every
// live node beating (and so renewing its read lease) after each period.
func (e *rcEnv) pass(d time.Duration) {
	for ; d > 0; d -= beat {
		e.clk.Advance(min(d, beat))
		e.heartbeatLive()
	}
}

// pump lets one heartbeat period pass and runs a maintenance scan.
func (e *rcEnv) pump() {
	e.pass(beat)
	e.m.CheckOnce()
}

// driveUntil pumps until cond holds. The deadline and the pause between
// pumps are wall time: they wait on the Raft and recovery work the
// reconfigurations start.
func (e *rcEnv) driveUntil(what string, cond func() bool) {
	e.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
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

func (e *rcEnv) view() *proto.VolumeView {
	e.t.Helper()
	var resp proto.GetVolumeResp
	if err := e.nw.Call(e.m.Addr(), uint8(proto.OpMasterGetVolume),
		&proto.GetVolumeReq{Name: "vol"}, &resp); err != nil {
		e.t.Fatal(err)
	}
	return resp.View
}

func (e *rcEnv) metaPartition() proto.MetaPartitionInfo {
	e.t.Helper()
	v := e.view()
	if len(v.MetaPartitions) == 0 {
		e.t.Fatal("volume has no meta partitions")
	}
	return v.MetaPartitions[0]
}

func (e *rcEnv) dataPartition() proto.DataPartitionInfo {
	e.t.Helper()
	v := e.view()
	if len(v.DataPartitions) == 0 {
		e.t.Fatal("volume has no data partitions")
	}
	return v.DataPartitions[0]
}

func (e *rcEnv) readExtent(addr string, pid, eid, off uint64, length uint32) (*proto.Packet, []byte) {
	e.t.Helper()
	pkt := proto.NewPacket(proto.OpDataRead, 199, pid, eid, nil)
	pkt.ExtentOffset, pkt.FileOffset = off, uint64(length)
	var resp proto.Packet
	if err := e.nw.Call(addr, uint8(proto.OpDataRead), pkt, &resp); err != nil {
		return &proto.Packet{ResultCode: proto.ResultErrIO, Data: []byte(err.Error())}, nil
	}
	return &resp, resp.Data
}

func rcIndexOf(addrs []string, addr string) int {
	for i, a := range addrs {
		if a == addr {
			return i
		}
	}
	return -1
}

func rcMemberOf(set []string, addr string) bool {
	return rcIndexOf(set, addr) >= 0
}

func rcSameMembers(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		if !rcMemberOf(b, x) {
			return false
		}
	}
	return true
}

// metaViewsConverged is the single-view invariant for a meta partition:
// every live member holds exactly the master's ReplicaEpoch and Members,
// its committed Raft configuration equals that same set, and someone in the
// set leads the group. Polled (not asserted) because the ConfChange is
// asynchronous by design.
func (e *rcEnv) metaViewsConverged(mp proto.MetaPartitionInfo) bool {
	leaderSeen := false
	for i, mn := range e.metas {
		if mn == nil || !rcMemberOf(mp.Members, e.metaAddrs[i]) {
			continue
		}
		p := mn.Partition(mp.PartitionID)
		if p == nil || p.Epoch() != mp.ReplicaEpoch || !rcSameMembers(p.MembersCopy(), mp.Members) {
			return false
		}
		if len(mp.Members) > 1 && !rcSameMembers(p.RaftMembers(), mp.Members) {
			return false
		}
		if mn.IsLeader(mp.PartitionID) {
			leaderSeen = true
		}
	}
	return leaderSeen
}

// dataViewsConverged is the same invariant for a data partition's
// overwrite Raft group.
func (e *rcEnv) dataViewsConverged(dp proto.DataPartitionInfo) bool {
	for i, dn := range e.datas {
		if dn == nil || !rcMemberOf(dp.Members, e.dataAddrs[i]) {
			continue
		}
		p := dn.Partition(dp.PartitionID)
		if p == nil || p.Epoch() != dp.ReplicaEpoch || !rcSameMembers(p.MembersCopy(), dp.Members) {
			return false
		}
		if len(dp.Members) > 1 && !rcSameMembers(p.RaftMembers(), dp.Members) {
			return false
		}
	}
	return true
}

// createUntil retries a meta create until the partition serves it (covers
// elections and reconfigurations in flight).
func (e *rcEnv) createUntil(c *client.Client, name string) {
	e.t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		_, err := c.Meta.Create(proto.RootInodeID, name, proto.TypeFile, nil)
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			e.t.Fatalf("create %q never succeeded: %v", name, err)
		}
		e.pump()
		time.Sleep(20 * time.Millisecond)
	}
}

// TestMetaLeaderFailoverServesWrites is the acceptance scenario for meta
// membership change: kill the meta partition's leader replica; the master
// detaches it under a bumped epoch, the survivors commit the matching
// RemoveNode ConfChange (quorum drops to the survivor count), elect a
// leader among themselves, and the partition serves WRITES again - the old
// behavior escalated the partition to read-only and stopped there.
func TestMetaLeaderFailoverServesWrites(t *testing.T) {
	for _, fabric := range []string{"memory", "tcp"} {
		t.Run(fabric, func(t *testing.T) { testMetaLeaderFailoverServesWrites(t, fabric) })
	}
}

func testMetaLeaderFailoverServesWrites(t *testing.T, fabric string) {
	e := newRcEnv(t, fabric, 3, 3)
	mp := e.metaPartition()
	if len(mp.Members) != 3 || mp.ReplicaEpoch != 1 {
		t.Fatalf("fresh meta partition: members=%v epoch=%d", mp.Members, mp.ReplicaEpoch)
	}
	c, err := client.Mount(e.nw, e.m.Addr(), "vol", client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	e.createUntil(c, "before-failover")

	oldLeader := mp.Members[0]
	e.killMeta(oldLeader)
	e.driveUntil("meta leader detach", func() bool {
		cur := e.metaPartition()
		return cur.ReplicaEpoch >= 2 && len(cur.Members) == 2 &&
			!rcMemberOf(cur.Members, oldLeader) && cur.Status == proto.PartitionReadWrite
	})
	cur := e.metaPartition()
	if len(cur.Detached) != 1 || cur.Detached[0] != oldLeader {
		t.Fatalf("detached = %v, want the dead leader %s", cur.Detached, oldLeader)
	}

	// The survivors' Raft configuration shrinks to match the record and a
	// new leader emerges among them: the group is TWO views no longer.
	e.driveUntil("RemoveNode ConfChange + election", func() bool {
		return e.metaViewsConverged(e.metaPartition())
	})

	// And the partition accepts writes on the survivors.
	e.createUntil(c, "after-failover")

	// Read-your-writes across the failover: both files resolve.
	for _, name := range []string{"before-failover", "after-failover"} {
		if _, err := c.Meta.Lookup(proto.RootInodeID, name); err != nil {
			t.Fatalf("lookup %q after failover: %v", name, err)
		}
	}
}

// TestMetaKillDuringConfChange kills the returning replica in the middle of
// its AddNode window: the node is detached, removed from the Raft
// configuration, restarts, earns re-attachment through the hysteresis gate -
// and dies again right as the master re-expands Members, so the AddNode
// ConfChange races the second death. Whichever way that race lands, the
// master re-detaches the corpse and the survivors converge back to a
// two-replica group that matches the record and serves writes.
func TestMetaKillDuringConfChange(t *testing.T) {
	for _, fabric := range []string{"memory", "tcp"} {
		t.Run(fabric, func(t *testing.T) { testMetaKillDuringConfChange(t, fabric) })
	}
}

func testMetaKillDuringConfChange(t *testing.T, fabric string) {
	e := newRcEnv(t, fabric, 3, 3)
	mp := e.metaPartition()
	victim := mp.Members[2] // a follower: leadership never moves in this test
	idx := e.killMeta(victim)

	e.driveUntil("follower detach", func() bool {
		cur := e.metaPartition()
		return cur.ReplicaEpoch >= 2 && len(cur.Members) == 2 && !rcMemberOf(cur.Members, victim)
	})
	e.driveUntil("RemoveNode committed on the survivors", func() bool {
		return e.metaViewsConverged(e.metaPartition())
	})

	// The node returns, proves itself through the hysteresis gate, and the
	// master re-expands Members...
	e.restartMeta(idx)
	e.driveUntil("re-attach recorded", func() bool {
		cur := e.metaPartition()
		return len(cur.Members) == 3 && rcMemberOf(cur.Members, victim)
	})
	// ...and dies AGAIN immediately - mid-AddNode.
	e.killMeta(victim)

	e.driveUntil("re-detach after the mid-ConfChange kill", func() bool {
		cur := e.metaPartition()
		return len(cur.Members) == 2 && !rcMemberOf(cur.Members, victim) &&
			cur.Status == proto.PartitionReadWrite && e.metaViewsConverged(cur)
	})

	// The group survived the interrupted membership change writable.
	c, err := client.Mount(e.nw, e.m.Addr(), "vol", client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	e.createUntil(c, "after-interrupted-confchange")
}

// TestReplacementReplicaRefillsFromEmptyDisk: a permanently dead data
// replica is replaced after the grace period by a FRESH node outside the
// partition's past membership. The update push creates the partition empty
// on the newcomer, the leader's alignment pass ships every extent into it,
// and both the Members record and the Raft configuration re-expand to full
// redundancy - the acceptance criterion for replacement placement.
func TestReplacementReplicaRefillsFromEmptyDisk(t *testing.T) {
	for _, fabric := range []string{"memory", "tcp"} {
		t.Run(fabric, func(t *testing.T) { testReplacementReplicaRefill(t, fabric) })
	}
}

func testReplacementReplicaRefill(t *testing.T, fabric string) {
	// 4 data nodes, replica target 3: one spare for the replacement.
	e := newRcEnv(t, fabric, 1, 4)
	dp := e.dataPartition()
	if len(dp.Members) != 3 {
		t.Fatalf("fresh data partition: members=%v", dp.Members)
	}
	var spare string
	for _, a := range e.dataAddrs {
		if !rcMemberOf(dp.Members, a) {
			spare = a
		}
	}
	if spare == "" {
		t.Fatal("no spare data node")
	}

	c, err := client.Mount(e.nw, e.m.Addr(), "vol", client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("refill"), 1024)
	ek, err := c.Data.WriteSmallFile(0, payload)
	c.Close() // frees the partition's session slot (the refill is quiesce-gated)
	if err != nil {
		t.Fatal(err)
	}

	victim := dp.Members[2] // follower: replacement, not promotion, is under test
	killedAt := time.Now()
	e.killData(victim)
	e.driveUntil("replacement placement", func() bool {
		cur := e.dataPartition()
		return len(cur.Members) == 3 && rcMemberOf(cur.Members, spare) &&
			!rcMemberOf(cur.Members, victim) && len(cur.Detached) == 0
	})
	cur := e.dataPartition()
	if cur.ReplicaEpoch < 3 {
		t.Fatalf("epoch = %d, want >= 3 (detach bump + replacement bump)", cur.ReplicaEpoch)
	}

	// The newcomer starts from a truly empty disk and ends up serving the
	// baseline bytes the leader re-shipped into it.
	e.driveUntil("refill of the fresh replica", func() bool {
		resp, data := e.readExtent(spare, ek.PartitionID, ek.ExtentID, ek.ExtentOffset, ek.Size)
		return resp.ResultCode == proto.ResultOK && bytes.Equal(data, payload)
	})
	t.Logf("kill -> full redundancy restored (refill served) = %v", time.Since(killedAt))

	// Single-view regression: the overwrite Raft group's configuration and
	// every live replica's epoch/Members agree with the master's record.
	e.driveUntil("Raft conf matches the replacement record", func() bool {
		return e.dataViewsConverged(e.dataPartition())
	})
}

// TestDeposedMetaLeaderCannotWinAfterRemoval: the killed-and-removed leader
// comes back as a ZOMBIE - same directory, same address, unregistered, still
// believing it leads a three-member group at epoch 1. Its election attempts
// must go nowhere: the survivors committed its removal, so they refuse its
// vote requests, keep their own leader, and keep serving writes. Removal
// must not only shrink quorum - it must also strip the removed server's
// power to disrupt (the classic removed-server election problem).
func TestDeposedMetaLeaderCannotWinAfterRemoval(t *testing.T) {
	for _, fabric := range []string{"memory", "tcp"} {
		t.Run(fabric, func(t *testing.T) { testDeposedMetaLeader(t, fabric) })
	}
}

func testDeposedMetaLeader(t *testing.T, fabric string) {
	e := newRcEnv(t, fabric, 3, 3)
	mp := e.metaPartition()
	oldLeader := mp.Members[0]
	idx := e.killMeta(oldLeader)

	e.driveUntil("detach + removal of the dead leader", func() bool {
		cur := e.metaPartition()
		return len(cur.Members) == 2 && !rcMemberOf(cur.Members, oldLeader) &&
			e.metaViewsConverged(cur)
	})

	// Resurrect it UNREGISTERED on its pre-failover state: its snapshot
	// still says {itself-first, B, C} at epoch 1, so it campaigns on boot
	// and keeps campaigning on election timeouts.
	e.nw.Heal(oldLeader)
	zombie, err := meta.Start(e.nw, meta.Config{Addr: oldLeader, Dir: e.metaDirs[idx]})
	if err != nil {
		t.Fatal(err)
	}
	defer zombie.Close()
	zp := zombie.Partition(mp.PartitionID)
	if zp == nil {
		t.Fatal("zombie did not reload its meta partition")
	}
	if zp.Epoch() != 1 {
		t.Fatalf("zombie epoch = %d, want the stale 1", zp.Epoch())
	}

	// Over several of its election timeouts: the zombie never wins, the
	// survivors never lose their leader for good, and the record never
	// moves back toward the corpse.
	until := time.Now().Add(1 * time.Second)
	for time.Now().Before(until) {
		if zombie.IsLeader(mp.PartitionID) {
			t.Fatal("deposed leader won an election after its removal")
		}
		cur := e.metaPartition()
		if rcMemberOf(cur.Members, oldLeader) {
			t.Fatalf("master re-attached the unregistered zombie: %v", cur.Members)
		}
		e.pump()
		time.Sleep(20 * time.Millisecond)
	}

	// The survivors' group still serves writes while the zombie screams.
	c, err := client.Mount(e.nw, e.m.Addr(), "vol", client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	e.createUntil(c, "despite-the-zombie")
}

// TestReadLeaseFencing: every master heartbeat reply grants the node a read
// lease for one NodeTimeout term; a node cut off from the master stops
// serving reads when the lease lapses, and resumes on the next granted
// beat. This fences a deposed data leader off the read path in the same
// window the master needs to declare it dead - without it, a partitioned
// ex-leader could serve arbitrarily stale bytes forever.
func TestReadLeaseFencing(t *testing.T) {
	for _, fabric := range []string{"memory", "tcp"} {
		t.Run(fabric, func(t *testing.T) { testReadLeaseFencing(t, fabric) })
	}
}

func testReadLeaseFencing(t *testing.T, fabric string) {
	e := newRcEnv(t, fabric, 1, 3)
	c, err := client.Mount(e.nw, e.m.Addr(), "vol", client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("leased bytes")
	ek, err := c.Data.WriteSmallFile(0, payload)
	c.Close()
	if err != nil {
		t.Fatal(err)
	}
	dp := e.dataPartition()
	replica := dp.Members[0]

	// A granted lease serves.
	e.heartbeatLive()
	resp, data := e.readExtent(replica, ek.PartitionID, ek.ExtentID, ek.ExtentOffset, ek.Size)
	if resp.ResultCode != proto.ResultOK || !bytes.Equal(data, payload) {
		t.Fatalf("leased read rc=%d data=%q", resp.ResultCode, data)
	}

	// One NodeTimeout of silence (no heartbeats, no maintenance scans -
	// the master is NOT declaring anyone dead here) lapses the lease and
	// reads fence.
	e.clk.Advance(e.m.cfg.NodeTimeout)
	if resp, _ = e.readExtent(replica, ek.PartitionID, ek.ExtentID, ek.ExtentOffset, ek.Size); resp.ResultCode != proto.ResultErrLeaseExpired {
		t.Fatalf("read after the lease lapsed: rc=%d, want ResultErrLeaseExpired", resp.ResultCode)
	}

	// The next heartbeat renews the lease and reads resume.
	e.heartbeatLive()
	resp, data = e.readExtent(replica, ek.PartitionID, ek.ExtentID, ek.ExtentOffset, ek.Size)
	if resp.ResultCode != proto.ResultOK || !bytes.Equal(data, payload) {
		t.Fatalf("renewed-lease read rc=%d data=%q", resp.ResultCode, data)
	}
}

// TestLivenessBoundaries pins the deadlines derived from NodeTimeout to the
// nanosecond on the cluster's one manual clock: a heartbeat-granted read
// lease serves 1ns before it lapses and refuses at the lapse; a silent
// node is still live at exactly NodeTimeout and is detached 1ns later; and
// the partition it leaves degraded is not replaced before 2*NodeTimeout
// and is replaced at it.
func TestLivenessBoundaries(t *testing.T) {
	e := newRcEnv(t, "memory", 1, 4) // replica target 3, one spare
	nt := e.m.cfg.NodeTimeout
	c, err := client.Mount(e.nw, e.m.Addr(), "vol", client.Config{})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("bounded")
	ek, err := c.Data.WriteSmallFile(0, payload)
	c.Close()
	if err != nil {
		t.Fatal(err)
	}
	dp := e.dataPartition()
	read := func() uint8 {
		resp, _ := e.readExtent(dp.Members[0], ek.PartitionID, ek.ExtentID, ek.ExtentOffset, ek.Size)
		return resp.ResultCode
	}

	e.heartbeatLive()
	e.clk.Advance(nt - time.Nanosecond)
	if rc := read(); rc != proto.ResultOK {
		t.Fatalf("read 1ns before the lease lapses: rc=%d, want OK", rc)
	}
	e.clk.Advance(time.Nanosecond)
	if rc := read(); rc != proto.ResultErrLeaseExpired {
		t.Fatalf("read at the lapse: rc=%d, want ResultErrLeaseExpired", rc)
	}

	// Every node earns a healthy streak, so the spare may host a
	// replacement; then a follower goes silent for exactly NodeTimeout.
	for i := 0; i < reattachHysteresis; i++ {
		e.pump()
	}
	victim := dp.Members[2]
	e.killData(victim)
	member := func(addr string) bool { return rcMemberOf(e.dataPartition().Members, addr) }
	e.m.CheckOnce()
	if !member(victim) {
		t.Fatal("a node silent for exactly NodeTimeout was detached")
	}
	e.clk.Advance(time.Nanosecond)
	e.m.CheckOnce()
	if member(victim) {
		t.Fatal("a node silent for NodeTimeout+1ns was not detached")
	}

	// The detaching scan marked the partition degraded.
	var spare string
	for _, a := range e.dataAddrs {
		if !rcMemberOf(dp.Members, a) {
			spare = a
		}
	}
	e.pass(2*nt - time.Nanosecond)
	e.m.CheckOnce()
	if member(spare) {
		t.Fatal("replaced 1ns before 2*NodeTimeout")
	}
	e.clk.Advance(time.Nanosecond)
	e.m.CheckOnce()
	if !member(spare) {
		t.Fatalf("not replaced at 2*NodeTimeout: members %v", e.dataPartition().Members)
	}
}
