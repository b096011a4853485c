package master

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"cfs/internal/clock"
	"cfs/internal/datanode"
	"cfs/internal/meta"
	"cfs/internal/proto"
	"cfs/internal/transport"
	"cfs/internal/util"
)

// env is a full in-process control plane: one master, meta nodes, data
// nodes, all on one manual clock.
type env struct {
	t      *testing.T
	nw     *transport.Memory
	clk    *clock.Manual
	master *Master
	metas  []*meta.MetaNode
	datas  []*datanode.DataNode
}

func newEnv(t *testing.T, metaN, dataN int, cfg Config) *env {
	t.Helper()
	nw := transport.NewMemory()
	clk := clock.NewManual(time.Now())
	cfg.Addr = "master0"
	cfg.Clock = clk
	m, err := Start(nw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	if !m.WaitLeader(5 * time.Second) {
		t.Fatal("master never elected a leader")
	}
	e := &env{t: t, nw: nw, clk: clk, master: m}
	for i := 0; i < metaN; i++ {
		mn, err := meta.Start(nw, meta.Config{
			Addr:       fmt.Sprintf("mn%d", i),
			MasterAddr: "master0",
			Clock:      clk,
			Total:      32 * util.GB,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(mn.Close)
		e.metas = append(e.metas, mn)
	}
	for i := 0; i < dataN; i++ {
		dn, err := datanode.Start(nw, datanode.Config{
			Addr:       fmt.Sprintf("dn%d", i),
			MasterAddr: "master0",
			Dir:        t.TempDir(),
			Clock:      clk,
			Total:      util.GB,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(dn.Close)
		e.datas = append(e.datas, dn)
	}
	return e
}

func (e *env) heartbeatAll() {
	for _, mn := range e.metas {
		mn.SendHeartbeat()
	}
	for _, dn := range e.datas {
		dn.SendHeartbeat()
	}
}

func (e *env) createVolume(name string, mps, dps int) *proto.VolumeView {
	e.t.Helper()
	var resp proto.CreateVolumeResp
	err := e.nw.Call("master0", uint8(proto.OpMasterCreateVolume), &proto.CreateVolumeReq{
		Name: name, MetaPartitionCount: mps, DataPartitionCount: dps,
	}, &resp)
	if err != nil {
		e.t.Fatal(err)
	}
	return resp.View
}

func TestCreateVolumeProvisionsPartitions(t *testing.T) {
	e := newEnv(t, 3, 3, Config{})
	view := e.createVolume("vol1", 2, 3)
	if len(view.MetaPartitions) != 2 || len(view.DataPartitions) != 3 {
		t.Fatalf("view has %d meta, %d data partitions",
			len(view.MetaPartitions), len(view.DataPartitions))
	}
	// Ranges tile the id space: first starts at 1, last is unbounded.
	if view.MetaPartitions[0].Start != 1 {
		t.Fatalf("first meta partition starts at %d", view.MetaPartitions[0].Start)
	}
	last := view.MetaPartitions[len(view.MetaPartitions)-1]
	if last.End != ^uint64(0) {
		t.Fatalf("last meta partition ends at %d", last.End)
	}
	// Partitions actually exist on the nodes.
	for _, mp := range view.MetaPartitions {
		found := 0
		for _, mn := range e.metas {
			if mn.Partition(mp.PartitionID) != nil {
				found++
			}
		}
		if found != len(mp.Members) {
			t.Fatalf("meta partition %d on %d nodes, want %d", mp.PartitionID, found, len(mp.Members))
		}
	}
	// Root inode exists on partition 1's leader.
	mp := view.MetaPartitions[0]
	var ig proto.InodeGetResp
	err := e.master.callMetaLeader(mp, uint8(proto.OpMetaInodeGet),
		&proto.InodeGetReq{PartitionID: mp.PartitionID, Inode: proto.RootInodeID}, &ig)
	if err != nil || !ig.Info.IsDir() {
		t.Fatalf("root inode: %+v, %v", ig.Info, err)
	}
}

func TestCreateVolumeDuplicate(t *testing.T) {
	e := newEnv(t, 3, 3, Config{})
	e.createVolume("vol1", 1, 1)
	var resp proto.CreateVolumeResp
	err := e.nw.Call("master0", uint8(proto.OpMasterCreateVolume), &proto.CreateVolumeReq{
		Name: "vol1", MetaPartitionCount: 1, DataPartitionCount: 1,
	}, &resp)
	if !errors.Is(err, util.ErrExist) {
		t.Fatalf("duplicate volume: %v", err)
	}
}

func TestCreateVolumeNeedsNodes(t *testing.T) {
	e := newEnv(t, 0, 0, Config{})
	var resp proto.CreateVolumeResp
	err := e.nw.Call("master0", uint8(proto.OpMasterCreateVolume), &proto.CreateVolumeReq{
		Name: "vol1", MetaPartitionCount: 1, DataPartitionCount: 1,
	}, &resp)
	if !errors.Is(err, util.ErrNoAvailableNode) {
		t.Fatalf("volume without nodes: %v", err)
	}
}

func TestGetVolumeEpochCache(t *testing.T) {
	e := newEnv(t, 3, 3, Config{})
	e.createVolume("vol1", 1, 1)
	var r1 proto.GetVolumeResp
	if err := e.nw.Call("master0", uint8(proto.OpMasterGetVolume),
		&proto.GetVolumeReq{Name: "vol1"}, &r1); err != nil {
		t.Fatal(err)
	}
	if r1.View == nil || r1.View.Epoch == 0 {
		t.Fatalf("bad view: %+v", r1)
	}
	var r2 proto.GetVolumeResp
	if err := e.nw.Call("master0", uint8(proto.OpMasterGetVolume),
		&proto.GetVolumeReq{Name: "vol1", Epoch: r1.View.Epoch}, &r2); err != nil {
		t.Fatal(err)
	}
	if !r2.Unchanged {
		t.Fatal("identical epoch returned a full view")
	}
	var r3 proto.GetVolumeResp
	err := e.nw.Call("master0", uint8(proto.OpMasterGetVolume),
		&proto.GetVolumeReq{Name: "missing"}, &r3)
	if !errors.Is(err, util.ErrNotFound) {
		t.Fatalf("missing volume: %v", err)
	}
}

func TestUtilizationPlacementPrefersEmptyNodes(t *testing.T) {
	e := newEnv(t, 5, 3, Config{ReplicaCount: 3, RaftSetSize: 100})
	// Report mn0/mn1 heavily utilized.
	for i, used := range []uint64{30 * util.GB, 30 * util.GB, util.GB, util.GB, util.GB} {
		e.nw.Call("master0", uint8(proto.OpMasterHeartbeat), &proto.HeartbeatReq{
			Addr: fmt.Sprintf("mn%d", i), IsMeta: true,
			Used: used, Total: 32 * util.GB,
		}, nil)
	}
	view := e.createVolume("vol1", 1, 1)
	members := view.MetaPartitions[0].Members
	for _, m := range members {
		if m == "mn0" || m == "mn1" {
			t.Fatalf("placement chose hot node %s: %v", m, members)
		}
	}
}

func TestCapacityExpansionWithoutRebalancing(t *testing.T) {
	// The headline property of utilization-based placement: adding nodes
	// triggers NO movement of existing partitions; new partitions just
	// prefer the new (empty) nodes.
	e := newEnv(t, 3, 3, Config{ReplicaCount: 3, RaftSetSize: 100})
	view := e.createVolume("vol1", 1, 2)
	before := map[uint64][]string{}
	for _, mp := range view.MetaPartitions {
		before[mp.PartitionID] = mp.Members
	}
	for _, dp := range view.DataPartitions {
		before[dp.PartitionID] = dp.Members
	}
	// Existing nodes report utilization; new nodes join empty.
	e.heartbeatAll()
	for i := 3; i < 6; i++ {
		mn, err := meta.Start(e.nw, meta.Config{
			Addr: fmt.Sprintf("mn%d", i), MasterAddr: "master0",
			Clock: e.clk, Total: 32 * util.GB,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(mn.Close)
	}
	for i, used := range []uint64{10 * util.GB, 10 * util.GB, 10 * util.GB, 0, 0, 0} {
		e.nw.Call("master0", uint8(proto.OpMasterHeartbeat), &proto.HeartbeatReq{
			Addr: fmt.Sprintf("mn%d", i), IsMeta: true, Used: used, Total: 32 * util.GB,
		}, nil)
	}
	// New partition lands on the empty nodes.
	mp, err := e.master.addMetaPartition("vol1", 1<<30, ^uint64(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mp.Members {
		if m == "mn0" || m == "mn1" || m == "mn2" {
			t.Fatalf("expansion placed replica on old node %s: %v", m, mp.Members)
		}
	}
	// No existing assignment changed (zero rebalancing).
	var after proto.GetVolumeResp
	if err := e.nw.Call("master0", uint8(proto.OpMasterGetVolume),
		&proto.GetVolumeReq{Name: "vol1"}, &after); err != nil {
		t.Fatal(err)
	}
	for _, got := range after.View.MetaPartitions {
		want, ok := before[got.PartitionID]
		if !ok {
			continue // the new partition
		}
		for i := range want {
			if got.Members[i] != want[i] {
				t.Fatalf("partition %d members changed: %v -> %v",
					got.PartitionID, want, got.Members)
			}
		}
	}
}

func TestSplitMetaPartitionAlgorithm1EndToEnd(t *testing.T) {
	e := newEnv(t, 3, 3, Config{
		ReplicaCount:            3,
		MetaPartitionInodeLimit: 10,
		SplitDelta:              100,
	})
	view := e.createVolume("vol1", 1, 1)
	mp := view.MetaPartitions[0]

	// Fill past the inode limit.
	for i := 0; i < 12; i++ {
		var resp proto.CreateInodeResp
		if err := e.master.callMetaLeader(mp, uint8(proto.OpMetaCreateInode),
			&proto.CreateInodeReq{PartitionID: mp.PartitionID, Type: proto.TypeFile}, &resp); err != nil {
			t.Fatal(err)
		}
	}
	e.heartbeatAll() // master learns the inode counts
	e.master.CheckOnce()

	var after proto.GetVolumeResp
	if err := e.nw.Call("master0", uint8(proto.OpMasterGetVolume),
		&proto.GetVolumeReq{Name: "vol1"}, &after); err != nil {
		t.Fatal(err)
	}
	if len(after.View.MetaPartitions) != 2 {
		t.Fatalf("split did not create a successor: %d partitions", len(after.View.MetaPartitions))
	}
	orig, succ := after.View.MetaPartitions[0], after.View.MetaPartitions[1]
	// 13 inodes (root + 12): maxInodeID=13, delta=100 -> End=113.
	if orig.End != 113 {
		t.Fatalf("original End = %d, want 113", orig.End)
	}
	if succ.Start != 114 || succ.End != ^uint64(0) {
		t.Fatalf("successor range = [%d,%d]", succ.Start, succ.End)
	}
	// New inodes from the successor start at its range base.
	var resp proto.CreateInodeResp
	if err := e.master.callMetaLeader(succ, uint8(proto.OpMetaCreateInode),
		&proto.CreateInodeReq{PartitionID: succ.PartitionID, Type: proto.TypeFile}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Info.Inode != 114 {
		t.Fatalf("successor allocated inode %d, want 114", resp.Info.Inode)
	}
}

func TestDataPartitionExpansionWhenFull(t *testing.T) {
	e := newEnv(t, 3, 3, Config{ReplicaCount: 3, DataPartitionCapacity: 1000})
	e.createVolume("vol1", 1, 1)
	// Report the sole data partition nearly full.
	var view proto.GetVolumeResp
	e.nw.Call("master0", uint8(proto.OpMasterGetVolume), &proto.GetVolumeReq{Name: "vol1"}, &view)
	dp := view.View.DataPartitions[0]
	e.nw.Call("master0", uint8(proto.OpMasterHeartbeat), &proto.HeartbeatReq{
		Addr: dp.Members[0], IsMeta: false, Used: 950, Total: util.GB,
		Partitions: []proto.PartitionReport{{
			PartitionID: dp.PartitionID, Used: 950, Status: proto.PartitionReadWrite, IsLeader: true,
		}},
	}, nil)
	e.master.CheckOnce()
	var after proto.GetVolumeResp
	e.nw.Call("master0", uint8(proto.OpMasterGetVolume), &proto.GetVolumeReq{Name: "vol1"}, &after)
	if len(after.View.DataPartitions) < 2 {
		t.Fatalf("no expansion: %d data partitions", len(after.View.DataPartitions))
	}
}

// TestFailureReportsReconfigureDataPartition: a failure report against a
// data replica no longer just fences the partition - the master DETACHES
// the replica under a bumped ReplicaEpoch and the partition stays writable
// on the survivors. Only losing the last member makes it unavailable.
func TestFailureReportsReconfigureDataPartition(t *testing.T) {
	e := newEnv(t, 3, 3, Config{ReplicaCount: 3, FailureThreshold: 3})
	view := e.createVolume("vol1", 1, 1)
	dp := view.DataPartitions[0]

	report := func(addr string) {
		t.Helper()
		var resp proto.ReportFailureResp
		if err := e.nw.Call("master0", uint8(proto.OpMasterReportFailure),
			&proto.ReportFailureReq{PartitionID: dp.PartitionID, Addr: addr}, &resp); err != nil {
			t.Fatal(err)
		}
	}
	current := func() proto.DataPartitionInfo {
		t.Helper()
		var v proto.GetVolumeResp
		if err := e.nw.Call("master0", uint8(proto.OpMasterGetVolume),
			&proto.GetVolumeReq{Name: "vol1"}, &v); err != nil {
			t.Fatal(err)
		}
		return v.View.DataPartitions[0]
	}

	failed := dp.Members[1]
	report(failed)
	got := current()
	if got.Status != proto.PartitionReadWrite {
		t.Fatalf("after detaching 1 of 3 replicas: %v, want read-write", got.Status)
	}
	if len(got.Members) != 2 || got.ReplicaEpoch != 2 {
		t.Fatalf("after 1 report: members=%v epoch=%d, want 2 members at epoch 2", got.Members, got.ReplicaEpoch)
	}
	if len(got.Detached) != 1 || got.Detached[0] != failed {
		t.Fatalf("detached = %v, want [%s]", got.Detached, failed)
	}
	// A duplicate report about a node that is no longer a member is inert.
	report(failed)
	if again := current(); again.ReplicaEpoch != 2 {
		t.Fatalf("stale report bumped the epoch to %d", again.ReplicaEpoch)
	}

	report(got.Members[1])
	got = current()
	if len(got.Members) != 1 || got.ReplicaEpoch != 3 || got.Status != proto.PartitionReadWrite {
		t.Fatalf("after 2 reports: members=%v epoch=%d status=%v", got.Members, got.ReplicaEpoch, got.Status)
	}

	// Losing the last member leaves nothing to promote: unavailable.
	report(got.Members[0])
	if got = current(); got.Status != proto.PartitionUnavailable {
		t.Fatalf("after losing every replica: %v, want unavailable", got.Status)
	}
}

// TestFailureReportsReconfigureMetaPartition: meta partitions with members
// to spare no longer escalate to read-only on a failure report - the dead
// member is detached under a bumped epoch (membership change made meta
// failover possible) and the partition stays read-write on the survivors.
// Only the last member's death fences the partition.
func TestFailureReportsReconfigureMetaPartition(t *testing.T) {
	e := newEnv(t, 3, 3, Config{ReplicaCount: 3, FailureThreshold: 3})
	view := e.createVolume("vol1", 1, 1)
	pid := view.MetaPartitions[0].PartitionID

	report := func(addr string) {
		t.Helper()
		var resp proto.ReportFailureResp
		if err := e.nw.Call("master0", uint8(proto.OpMasterReportFailure),
			&proto.ReportFailureReq{PartitionID: pid, Addr: addr, IsMeta: true}, &resp); err != nil {
			t.Fatal(err)
		}
	}
	current := func() proto.MetaPartitionInfo {
		t.Helper()
		var v proto.GetVolumeResp
		if err := e.nw.Call("master0", uint8(proto.OpMasterGetVolume),
			&proto.GetVolumeReq{Name: "vol1"}, &v); err != nil {
			t.Fatal(err)
		}
		return v.View.MetaPartitions[0]
	}

	got := current()
	failed := got.Members[1]
	report(failed)
	got = current()
	if len(got.Members) != 2 || got.ReplicaEpoch != 2 || got.Status != proto.PartitionReadWrite {
		t.Fatalf("after 1 report: members=%v epoch=%d status=%v", got.Members, got.ReplicaEpoch, got.Status)
	}
	for _, member := range got.Members {
		if member == failed {
			t.Fatalf("failed member %s still in %v", failed, got.Members)
		}
	}
	if len(got.Detached) != 1 || got.Detached[0] != failed {
		t.Fatalf("detached=%v, want [%s]", got.Detached, failed)
	}

	// A duplicate report about a node that is no longer a member is inert.
	report(failed)
	if again := current(); again.ReplicaEpoch != 2 {
		t.Fatalf("stale report bumped the epoch to %d", again.ReplicaEpoch)
	}

	report(got.Members[1])
	got = current()
	if len(got.Members) != 1 || got.ReplicaEpoch != 3 || got.Status != proto.PartitionReadWrite {
		t.Fatalf("after 2 reports: members=%v epoch=%d status=%v", got.Members, got.ReplicaEpoch, got.Status)
	}

	// The last member has no survivors to shrink to: the old escalation
	// stands - read-only first (each detach reset the failure count), then
	// unavailable at the threshold.
	last := got.Members[0]
	report(last)
	if got = current(); got.Status != proto.PartitionReadOnly {
		t.Fatalf("first report against the last member: %v, want read-only", got.Status)
	}
	report(last)
	report(last)
	if got = current(); got.Status != proto.PartitionUnavailable {
		t.Fatalf("after losing every replica: %v, want unavailable", got.Status)
	}
}

func TestClusterStats(t *testing.T) {
	e := newEnv(t, 2, 3, Config{})
	e.createVolume("vol1", 1, 2)
	var stats proto.ClusterStatsResp
	if err := e.nw.Call("master0", uint8(proto.OpMasterClusterStats),
		&proto.ClusterStatsReq{}, &stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.MetaNodes) != 2 || len(stats.DataNodes) != 3 {
		t.Fatalf("stats nodes: %d meta, %d data", len(stats.MetaNodes), len(stats.DataNodes))
	}
	if stats.MetaPartitions != 1 || stats.DataPartitions != 2 {
		t.Fatalf("stats partitions: %d meta, %d data", stats.MetaPartitions, stats.DataPartitions)
	}
}

func TestMasterPersistenceAcrossRestart(t *testing.T) {
	nw := transport.NewMemory()
	dir := t.TempDir()
	clk := clock.NewManual(time.Now())
	m, err := Start(nw, Config{Addr: "m-persist", Dir: dir, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	if !m.WaitLeader(5 * time.Second) {
		t.Fatal("no leader")
	}
	// Register some nodes (durable state).
	for i := 0; i < 3; i++ {
		var resp proto.RegisterNodeResp
		if err := nw.Call("m-persist", uint8(proto.OpMasterRegisterNode), &proto.RegisterNodeReq{
			Addr: fmt.Sprintf("node%d", i), IsMeta: true, Total: util.GB,
		}, &resp); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()

	m2, err := Start(nw, Config{Addr: "m-persist2", Dir: dir, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if !m2.WaitLeader(5 * time.Second) {
		t.Fatal("no leader after restart")
	}
	var stats proto.ClusterStatsResp
	if err := nw.Call("m-persist2", uint8(proto.OpMasterClusterStats),
		&proto.ClusterStatsReq{}, &stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.MetaNodes) != 3 {
		t.Fatalf("recovered %d meta nodes, want 3", len(stats.MetaNodes))
	}
}

func TestRaftSetAssignment(t *testing.T) {
	e := newEnv(t, 0, 0, Config{RaftSetSize: 2})
	var sets []int
	for i := 0; i < 6; i++ {
		var resp proto.RegisterNodeResp
		if err := e.nw.Call("master0", uint8(proto.OpMasterRegisterNode), &proto.RegisterNodeReq{
			Addr: fmt.Sprintf("rs%d", i), IsMeta: true, Total: util.GB,
		}, &resp); err != nil {
			t.Fatal(err)
		}
		sets = append(sets, resp.RaftSet)
	}
	// With set size 2, six nodes land in 3 sets of 2.
	counts := map[int]int{}
	for _, s := range sets {
		counts[s]++
	}
	if len(counts) != 3 {
		t.Fatalf("raft sets = %v", sets)
	}
	for set, c := range counts {
		if c != 2 {
			t.Fatalf("raft set %d has %d members", set, c)
		}
	}
}

func TestPlacementWithinRaftSet(t *testing.T) {
	// With raft sets of 3 and 6 meta nodes, a 3-replica partition must
	// land entirely inside one set (Section 2.5.1: replicas are chosen
	// from the same Raft set so heartbeats stay set-local).
	e := newEnv(t, 6, 3, Config{ReplicaCount: 3, RaftSetSize: 3})
	e.heartbeatAll()
	var stats proto.ClusterStatsResp
	if err := e.nw.Call("master0", uint8(proto.OpMasterClusterStats),
		&proto.ClusterStatsReq{}, &stats); err != nil {
		t.Fatal(err)
	}
	setOf := map[string]int{}
	for _, n := range stats.MetaNodes {
		setOf[n.Addr] = n.RaftSet
	}
	view := e.createVolume("vol1", 3, 1)
	for _, mp := range view.MetaPartitions {
		want := setOf[mp.Members[0]]
		for _, m := range mp.Members {
			if setOf[m] != want {
				t.Fatalf("partition %d spans raft sets: %v (sets %v)",
					mp.PartitionID, mp.Members, setOf)
			}
		}
	}
}

func TestQuickPlacementAlwaysPicksLowest(t *testing.T) {
	prop := func(usedRaw []uint16) bool {
		if len(usedRaw) < 3 {
			return true
		}
		if len(usedRaw) > 20 {
			usedRaw = usedRaw[:20]
		}
		state := newClusterState()
		soft := newSoftState()
		for i, u := range usedRaw {
			addr := fmt.Sprintf("n%02d", i)
			state.Nodes[addr] = &proto.NodeInfo{
				Addr: addr, IsMeta: true, Total: 1 << 16, Active: true, RaftSet: 0,
			}
			soft.used[addr] = uint64(u)
		}
		picked, err := pickNodes(state, soft, true, 3)
		if err != nil {
			return false
		}
		// No picked node may be strictly more utilized than an
		// unpicked node.
		pickedSet := map[string]bool{}
		var maxPicked uint64
		for _, p := range picked {
			pickedSet[p] = true
			if soft.used[p] > maxPicked {
				maxPicked = soft.used[p]
			}
		}
		for addr := range state.Nodes {
			if !pickedSet[addr] && soft.used[addr] < maxPicked {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
