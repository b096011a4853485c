package meta

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"cfs/internal/clock"
	"cfs/internal/proto"
	"cfs/internal/transport"
	"cfs/internal/util"
)

func startFakeMaster(t testing.TB, nw transport.Network, addr string) {
	t.Helper()
	ln, err := nw.Listen(addr, func(op uint8, req any) (any, error) {
		switch proto.Op(op) {
		case proto.OpMasterRegisterNode:
			return &proto.RegisterNodeResp{}, nil
		case proto.OpMasterHeartbeat:
			return &proto.HeartbeatResp{}, nil
		}
		return nil, fmt.Errorf("fake master: op %d", op)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
}

type metaCluster struct {
	nw    transport.Network
	nodes []*MetaNode
	addrs []string
}

func startMetaCluster(t testing.TB, n int) *metaCluster {
	return startMetaClusterOn(t, "mem", n)
}

// startMetaClusterOn starts n meta nodes and a fake master on fabric "mem"
// (the Memory network) or "tcp" (loopback, ports from transport.LoopbackAddrs).
func startMetaClusterOn(t testing.TB, fabric string, n int) *metaCluster {
	t.Helper()
	addrs := make([]string, n+1)
	mc := &metaCluster{}
	switch fabric {
	case "mem":
		mc.nw = transport.NewMemory()
		addrs[0] = "master"
		for i := 1; i <= n; i++ {
			addrs[i] = fmt.Sprintf("mn%d", i-1)
		}
	case "tcp":
		mc.nw = transport.NewTCP()
		var err error
		if addrs, err = transport.LoopbackAddrs(n + 1); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unknown fabric %q", fabric)
	}
	startFakeMaster(t, mc.nw, addrs[0])
	clk := clock.NewManual(time.Now())
	for _, addr := range addrs[1:] {
		mn, err := Start(mc.nw, Config{
			Addr:       addr,
			MasterAddr: addrs[0],
			Clock:      clk,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(mn.Close)
		mc.nodes = append(mc.nodes, mn)
		mc.addrs = append(mc.addrs, addr)
	}
	return mc
}

// createPartition provisions partition pid covering [start, end] on all
// nodes and waits for a leader.
func (mc *metaCluster) createPartition(t testing.TB, pid, start, end uint64) string {
	t.Helper()
	req := &proto.CreateMetaPartitionReq{
		PartitionID: pid, Volume: "vol", Start: start, End: end, Members: mc.addrs,
	}
	for _, addr := range mc.addrs {
		var resp proto.CreateMetaPartitionResp
		if err := mc.nw.Call(addr, uint8(proto.OpAdminCreateMetaPartition), req, &resp); err != nil {
			t.Fatal(err)
		}
	}
	return mc.waitLeader(t, pid)
}

func (mc *metaCluster) waitLeader(t testing.TB, pid uint64) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for i, n := range mc.nodes {
			if n.IsLeader(pid) {
				return mc.addrs[i]
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("no leader for meta partition %d", pid)
	return ""
}

func (mc *metaCluster) createInode(t testing.TB, leader string, pid uint64, typ uint32) *proto.Inode {
	t.Helper()
	var resp proto.CreateInodeResp
	err := mc.nw.Call(leader, uint8(proto.OpMetaCreateInode),
		&proto.CreateInodeReq{PartitionID: pid, Type: typ}, &resp)
	if err != nil {
		t.Fatal(err)
	}
	return resp.Info
}

func TestCreateInodeAllocatesSequentialIDs(t *testing.T) {
	mc := startMetaCluster(t, 3)
	leader := mc.createPartition(t, 1, 1, 1000)
	for want := uint64(1); want <= 5; want++ {
		ino := mc.createInode(t, leader, 1, proto.TypeFile)
		if ino.Inode != want {
			t.Fatalf("inode id = %d, want %d", ino.Inode, want)
		}
		if ino.NLink != 1 {
			t.Fatalf("file nlink = %d", ino.NLink)
		}
	}
	// Directories start with nlink 2.
	dir := mc.createInode(t, leader, 1, proto.TypeDir)
	if dir.NLink != 2 {
		t.Fatalf("dir nlink = %d", dir.NLink)
	}
}

func TestInodeRangeExhaustion(t *testing.T) {
	mc := startMetaCluster(t, 3)
	leader := mc.createPartition(t, 1, 1, 3)
	for i := 0; i < 3; i++ {
		mc.createInode(t, leader, 1, proto.TypeFile)
	}
	var resp proto.CreateInodeResp
	err := mc.nw.Call(leader, uint8(proto.OpMetaCreateInode),
		&proto.CreateInodeReq{PartitionID: 1, Type: proto.TypeFile}, &resp)
	if !errors.Is(err, util.ErrFull) {
		t.Fatalf("exhausted range: %v", err)
	}
}

func TestDentryLifecycle(t *testing.T) {
	mc := startMetaCluster(t, 3)
	leader := mc.createPartition(t, 1, 1, 1000)
	dir := mc.createInode(t, leader, 1, proto.TypeDir)
	file := mc.createInode(t, leader, 1, proto.TypeFile)

	// Create a dentry dir/hello -> file.
	var cd proto.CreateDentryResp
	err := mc.nw.Call(leader, uint8(proto.OpMetaCreateDentry), &proto.CreateDentryReq{
		PartitionID: 1, ParentID: dir.Inode, Name: "hello",
		Inode: file.Inode, Type: proto.TypeFile,
	}, &cd)
	if err != nil {
		t.Fatal(err)
	}

	// Duplicate create fails.
	err = mc.nw.Call(leader, uint8(proto.OpMetaCreateDentry), &proto.CreateDentryReq{
		PartitionID: 1, ParentID: dir.Inode, Name: "hello",
		Inode: file.Inode, Type: proto.TypeFile,
	}, &cd)
	if !errors.Is(err, util.ErrExist) {
		t.Fatalf("duplicate dentry: %v", err)
	}

	// Lookup resolves it.
	var lr proto.LookupResp
	err = mc.nw.Call(leader, uint8(proto.OpMetaLookup),
		&proto.LookupReq{PartitionID: 1, ParentID: dir.Inode, Name: "hello"}, &lr)
	if err != nil || lr.Inode != file.Inode {
		t.Fatalf("lookup = %+v, %v", lr, err)
	}

	// ReadDir lists it.
	var rd proto.ReadDirResp
	err = mc.nw.Call(leader, uint8(proto.OpMetaReadDir),
		&proto.ReadDirReq{PartitionID: 1, ParentID: dir.Inode}, &rd)
	if err != nil || len(rd.Children) != 1 || rd.Children[0].Name != "hello" {
		t.Fatalf("readdir = %+v, %v", rd, err)
	}

	// Delete returns the inode id.
	var dd proto.DeleteDentryResp
	err = mc.nw.Call(leader, uint8(proto.OpMetaDeleteDentry),
		&proto.DeleteDentryReq{PartitionID: 1, ParentID: dir.Inode, Name: "hello"}, &dd)
	if err != nil || dd.Inode != file.Inode {
		t.Fatalf("delete dentry = %+v, %v", dd, err)
	}
	// Second delete fails.
	err = mc.nw.Call(leader, uint8(proto.OpMetaDeleteDentry),
		&proto.DeleteDentryReq{PartitionID: 1, ParentID: dir.Inode, Name: "hello"}, &dd)
	if !errors.Is(err, util.ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestDentryParentMustBeDir(t *testing.T) {
	mc := startMetaCluster(t, 3)
	leader := mc.createPartition(t, 1, 1, 1000)
	f1 := mc.createInode(t, leader, 1, proto.TypeFile)
	f2 := mc.createInode(t, leader, 1, proto.TypeFile)
	var cd proto.CreateDentryResp
	err := mc.nw.Call(leader, uint8(proto.OpMetaCreateDentry), &proto.CreateDentryReq{
		PartitionID: 1, ParentID: f1.Inode, Name: "x", Inode: f2.Inode, Type: proto.TypeFile,
	}, &cd)
	if !errors.Is(err, util.ErrNotDir) {
		t.Fatalf("dentry under file: %v", err)
	}
}

func TestUnlinkWorkflowFigure3(t *testing.T) {
	mc := startMetaCluster(t, 3)
	leader := mc.createPartition(t, 1, 1, 1000)
	dir := mc.createInode(t, leader, 1, proto.TypeDir)
	file := mc.createInode(t, leader, 1, proto.TypeFile)
	var cd proto.CreateDentryResp
	if err := mc.nw.Call(leader, uint8(proto.OpMetaCreateDentry), &proto.CreateDentryReq{
		PartitionID: 1, ParentID: dir.Inode, Name: "f", Inode: file.Inode, Type: proto.TypeFile,
	}, &cd); err != nil {
		t.Fatal(err)
	}

	// Unlink: delete dentry first, then decrement nlink (Figure 3c).
	var dd proto.DeleteDentryResp
	if err := mc.nw.Call(leader, uint8(proto.OpMetaDeleteDentry),
		&proto.DeleteDentryReq{PartitionID: 1, ParentID: dir.Inode, Name: "f"}, &dd); err != nil {
		t.Fatal(err)
	}
	var ur proto.UnlinkInodeResp
	if err := mc.nw.Call(leader, uint8(proto.OpMetaUnlinkInode),
		&proto.UnlinkInodeReq{PartitionID: 1, Inode: dd.Inode}, &ur); err != nil {
		t.Fatal(err)
	}
	if ur.Info.NLink != 0 || ur.Info.Flag&proto.FlagDeleteMark == 0 {
		t.Fatalf("post-unlink inode = %+v", ur.Info)
	}

	// InodeGet no longer returns it.
	var ig proto.InodeGetResp
	err := mc.nw.Call(leader, uint8(proto.OpMetaInodeGet),
		&proto.InodeGetReq{PartitionID: 1, Inode: dd.Inode}, &ig)
	if !errors.Is(err, util.ErrNotFound) {
		t.Fatalf("deleted inode still readable: %v", err)
	}

	// Evict removes it from the inode tree outright.
	var er proto.EvictInodeResp
	if err := mc.nw.Call(leader, uint8(proto.OpMetaEvictInode),
		&proto.EvictInodeReq{PartitionID: 1, Inode: dd.Inode}, &er); err != nil {
		t.Fatal(err)
	}
	for i, a := range mc.addrs {
		if a != leader {
			continue
		}
		for _, ino := range mc.nodes[i].Partition(1).capture().Inodes {
			if ino.Inode == dd.Inode {
				t.Fatalf("evicted inode %d still held: %+v", dd.Inode, ino)
			}
		}
	}
}

func TestLinkIncrementsAndUnlinkBalances(t *testing.T) {
	mc := startMetaCluster(t, 3)
	leader := mc.createPartition(t, 1, 1, 1000)
	file := mc.createInode(t, leader, 1, proto.TypeFile)

	var lr proto.LinkInodeResp
	if err := mc.nw.Call(leader, uint8(proto.OpMetaLinkInode),
		&proto.LinkInodeReq{PartitionID: 1, Inode: file.Inode}, &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Info.NLink != 2 {
		t.Fatalf("post-link nlink = %d", lr.Info.NLink)
	}
	// Failure path of Figure 3b: dentry creation failed, so undo by
	// decrementing. One unlink brings it back to 1 and does NOT mark.
	var ur proto.UnlinkInodeResp
	if err := mc.nw.Call(leader, uint8(proto.OpMetaUnlinkInode),
		&proto.UnlinkInodeReq{PartitionID: 1, Inode: file.Inode}, &ur); err != nil {
		t.Fatal(err)
	}
	if ur.Info.NLink != 1 || ur.Info.Flag&proto.FlagDeleteMark != 0 {
		t.Fatalf("post-undo inode = %+v", ur.Info)
	}
}

func TestAppendExtentKeysAndSetAttr(t *testing.T) {
	mc := startMetaCluster(t, 3)
	leader := mc.createPartition(t, 1, 1, 1000)
	file := mc.createInode(t, leader, 1, proto.TypeFile)

	keys := []proto.ExtentKey{
		{PartitionID: 9, ExtentID: 1, FileOffset: 0, Size: 100},
		{PartitionID: 9, ExtentID: 2, FileOffset: 100, Size: 50},
	}
	var ar proto.AppendExtentKeysResp
	if err := mc.nw.Call(leader, uint8(proto.OpMetaAppendExtentKeys), &proto.AppendExtentKeysReq{
		PartitionID: 1, Inode: file.Inode, Extents: keys, Size: 150,
	}, &ar); err != nil {
		t.Fatal(err)
	}
	var ig proto.InodeGetResp
	if err := mc.nw.Call(leader, uint8(proto.OpMetaInodeGet),
		&proto.InodeGetReq{PartitionID: 1, Inode: file.Inode}, &ig); err != nil {
		t.Fatal(err)
	}
	if ig.Info.Size != 150 || len(ig.Info.Extents) != 2 || ig.Info.Gen == 0 {
		t.Fatalf("inode after extent append = %+v", ig.Info)
	}

	// Truncate to 100: drops the second extent key.
	var sr proto.SetAttrResp
	if err := mc.nw.Call(leader, uint8(proto.OpMetaSetAttr), &proto.SetAttrReq{
		PartitionID: 1, Inode: file.Inode, Valid: proto.AttrSize, Size: 100,
	}, &sr); err != nil {
		t.Fatal(err)
	}
	if err := mc.nw.Call(leader, uint8(proto.OpMetaInodeGet),
		&proto.InodeGetReq{PartitionID: 1, Inode: file.Inode}, &ig); err != nil {
		t.Fatal(err)
	}
	if ig.Info.Size != 100 || len(ig.Info.Extents) != 1 {
		t.Fatalf("inode after truncate = %+v", ig.Info)
	}
}

func TestBatchInodeGet(t *testing.T) {
	mc := startMetaCluster(t, 3)
	leader := mc.createPartition(t, 1, 1, 1000)
	var ids []uint64
	for i := 0; i < 10; i++ {
		ids = append(ids, mc.createInode(t, leader, 1, proto.TypeFile).Inode)
	}
	ids = append(ids, 999) // missing: skipped silently
	var br proto.BatchInodeGetResp
	if err := mc.nw.Call(leader, uint8(proto.OpMetaBatchInodeGet),
		&proto.BatchInodeGetReq{PartitionID: 1, Inodes: ids}, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Infos) != 10 {
		t.Fatalf("batch returned %d inodes", len(br.Infos))
	}
}

func TestSplitPartitionAlgorithm1(t *testing.T) {
	mc := startMetaCluster(t, 3)
	leader := mc.createPartition(t, 1, 1, 0xFFFFFFFF)
	for i := 0; i < 10; i++ {
		mc.createInode(t, leader, 1, proto.TypeFile)
	}
	// Master cuts the range at maxInodeID + delta.
	var sr proto.SplitMetaPartitionResp
	if err := mc.nw.Call(leader, uint8(proto.OpMetaSplitPartition),
		&proto.SplitMetaPartitionReq{PartitionID: 1, End: 110}, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.MaxInodeID != 10 {
		t.Fatalf("split resp maxInodeID = %d", sr.MaxInodeID)
	}
	// Allocation continues from maxInodeID+1 up to the new End.
	ino := mc.createInode(t, leader, 1, proto.TypeFile)
	if ino.Inode != 11 {
		t.Fatalf("post-split inode id = %d", ino.Inode)
	}
	// Split below maxInodeID is rejected.
	err := mc.nw.Call(leader, uint8(proto.OpMetaSplitPartition),
		&proto.SplitMetaPartitionReq{PartitionID: 1, End: 5}, &sr)
	if !errors.Is(err, util.ErrInvalidArgument) {
		t.Fatalf("bad split accepted: %v", err)
	}
}

func TestWritesRejectedOnFollower(t *testing.T) {
	mc := startMetaCluster(t, 3)
	leader := mc.createPartition(t, 1, 1, 1000)
	for _, addr := range mc.addrs {
		if addr == leader {
			continue
		}
		var resp proto.CreateInodeResp
		err := mc.nw.Call(addr, uint8(proto.OpMetaCreateInode),
			&proto.CreateInodeReq{PartitionID: 1, Type: proto.TypeFile}, &resp)
		if !errors.Is(err, util.ErrNotLeader) {
			t.Fatalf("follower accepted write: %v", err)
		}
		return
	}
}

// Reads are served by the leader too: every follower refuses each read op
// with ErrNotLeader, and the leader answers each one.
func TestReadsRejectedOnFollowers(t *testing.T) {
	mc := startMetaCluster(t, 3)
	leader := mc.createPartition(t, 1, 1, 1000)
	dir := mc.createInode(t, leader, 1, proto.TypeDir)
	file := mc.createInode(t, leader, 1, proto.TypeFile)
	var cd proto.CreateDentryResp
	if err := mc.nw.Call(leader, uint8(proto.OpMetaCreateDentry), &proto.CreateDentryReq{
		PartitionID: 1, ParentID: dir.Inode, Name: "hello", Inode: file.Inode, Type: proto.TypeFile,
	}, &cd); err != nil {
		t.Fatal(err)
	}
	reads := []struct {
		op   proto.Op
		req  any
		resp any
	}{
		{proto.OpMetaLookup, &proto.LookupReq{PartitionID: 1, ParentID: dir.Inode, Name: "hello"}, &proto.LookupResp{}},
		{proto.OpMetaInodeGet, &proto.InodeGetReq{PartitionID: 1, Inode: file.Inode}, &proto.InodeGetResp{}},
		{proto.OpMetaBatchInodeGet, &proto.BatchInodeGetReq{PartitionID: 1, Inodes: []uint64{dir.Inode, file.Inode}},
			&proto.BatchInodeGetResp{}},
		{proto.OpMetaReadDir, &proto.ReadDirReq{PartitionID: 1, ParentID: dir.Inode}, &proto.ReadDirResp{}},
		{proto.OpMetaSnapshot, &proto.MetaSnapshotReq{PartitionID: 1}, &proto.MetaSnapshotResp{}},
	}
	for _, addr := range mc.addrs {
		for _, r := range reads {
			err := mc.nw.Call(addr, uint8(r.op), r.req, r.resp)
			if addr == leader && err != nil {
				t.Fatalf("leader %s refused %v: %v", addr, r.op, err)
			}
			if addr != leader && !errors.Is(err, util.ErrNotLeader) {
				t.Fatalf("follower %s answered %v with %v, want ErrNotLeader", addr, r.op, err)
			}
		}
	}
}

func TestReplicationAcrossNodes(t *testing.T) {
	mc := startMetaCluster(t, 3)
	leader := mc.createPartition(t, 1, 1, 1000)
	dir := mc.createInode(t, leader, 1, proto.TypeDir)
	for i := 0; i < 20; i++ {
		f := mc.createInode(t, leader, 1, proto.TypeFile)
		var cd proto.CreateDentryResp
		if err := mc.nw.Call(leader, uint8(proto.OpMetaCreateDentry), &proto.CreateDentryReq{
			PartitionID: 1, ParentID: dir.Inode, Name: fmt.Sprintf("f%02d", i),
			Inode: f.Inode, Type: proto.TypeFile,
		}, &cd); err != nil {
			t.Fatal(err)
		}
	}
	// All replicas converge to the same tree sizes.
	deadline := time.Now().Add(5 * time.Second)
	for _, n := range mc.nodes {
		for {
			p := n.Partition(1)
			if p.InodeCount() == 21 && p.DentryCount() == 20 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %s: inodes=%d dentries=%d", n.Addr(), p.InodeCount(), p.DentryCount())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// TestReplicasAgreeUnderConcurrentCreates: four callers make 12 000
// creates on a 3-replica partition, enough to compact the Raft log a few
// times while followers lag; afterwards every replica holds the leader's
// inodes and maxInodeID, on both fabrics.
func TestReplicasAgreeUnderConcurrentCreates(t *testing.T) {
	for _, fabric := range []string{"mem", "tcp"} {
		t.Run(fabric, func(t *testing.T) {
			mc := startMetaClusterOn(t, fabric, 3)
			leader := mc.createPartition(t, 1, 1, 1<<40)
			const callers, each = 4, 3000
			errs := make(chan error, callers)
			for range callers {
				go func() {
					for range each {
						var resp proto.CreateInodeResp
						if err := mc.nw.Call(leader, uint8(proto.OpMetaCreateInode),
							&proto.CreateInodeReq{PartitionID: 1, Type: proto.TypeFile}, &resp); err != nil {
							errs <- err
							return
						}
					}
					errs <- nil
				}()
			}
			for range callers {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			const want = callers * each
			deadline := time.Now().Add(10 * time.Second)
			for _, n := range mc.nodes {
				p := n.Partition(1)
				for p.InodeCount() != want || p.MaxInodeID() != want {
					if p.InodeCount() > want || p.MaxInodeID() > want || time.Now().After(deadline) {
						t.Fatalf("%s holds %d inodes, maxInodeID %d; want %d and %d",
							n.Addr(), p.InodeCount(), p.MaxInodeID(), want, want)
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
		})
	}
}

// TestReappliedEntriesChangeNothing: a follower restores a snapshot of the
// leader's state and is then re-sent entries that state already holds, as
// Raft does when it labels a snapshot with an index below the one it was
// taken at. The re-run commands are no-ops, and the next one applies.
func TestReappliedEntriesChangeNothing(t *testing.T) {
	leader := NewPartition(1, "vol", 1, 1000, nil)
	var log [][]byte
	apply := func(p *Partition, op proto.Op, req any) {
		log = append(log, mustEntry(t, op, req))
		if _, err := p.Apply(uint64(len(log)), log[len(log)-1]); err != nil {
			t.Fatal(err)
		}
	}
	apply(leader, proto.OpMetaCreateInode, &proto.CreateInodeReq{Type: proto.TypeDir})
	for i := 0; i < 10; i++ {
		apply(leader, proto.OpMetaCreateInode, &proto.CreateInodeReq{Type: proto.TypeFile})
		apply(leader, proto.OpMetaCreateDentry, &proto.CreateDentryReq{ParentID: proto.RootInodeID,
			Name: fmt.Sprintf("f%d", i), Inode: uint64(i + 2), Type: proto.TypeFile})
	}
	data, err := leader.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	follower := NewPartition(1, "vol", 1, 1000, nil)
	if err := follower.Restore(data); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < len(log); i++ {
		if _, err := follower.Apply(uint64(i+1), log[i]); !errors.Is(err, util.ErrStale) {
			t.Fatalf("re-applying entry %d: %v, want ErrStale", i+1, err)
		}
	}
	check := func(when string) {
		t.Helper()
		if follower.InodeCount() != leader.InodeCount() || follower.DentryCount() != leader.DentryCount() ||
			follower.MaxInodeID() != leader.MaxInodeID() {
			t.Fatalf("%s: follower holds %d inodes, %d dentries, maxInodeID %d; leader %d, %d, %d", when,
				follower.InodeCount(), follower.DentryCount(), follower.MaxInodeID(),
				leader.InodeCount(), leader.DentryCount(), leader.MaxInodeID())
		}
	}
	check("after the re-sent entries")
	apply(leader, proto.OpMetaCreateInode, &proto.CreateInodeReq{Type: proto.TypeFile})
	if _, err := follower.Apply(uint64(len(log)), log[len(log)-1]); err != nil {
		t.Fatal(err)
	}
	check("after the next entry")
}

// fillSnapshotFixture applies to p, at Raft indexes from 1, a root, 100
// named files with an extent key each, a named symlink and a delete-marked
// orphan, so every field of the snapshot record holds something.
func fillSnapshotFixture(t *testing.T, p *Partition) {
	t.Helper()
	var index uint64
	apply := func(op proto.Op, req any) any {
		t.Helper()
		index++
		out, err := p.Apply(index, mustEntry(t, op, req))
		if err != nil {
			t.Fatalf("entry %d, %v: %v", index, op, err)
		}
		return out
	}
	create := func(typ uint32, target string) uint64 {
		t.Helper()
		out := apply(proto.OpMetaCreateInode, &proto.CreateInodeReq{Type: typ, LinkTarget: []byte(target)})
		return out.(*proto.CreateInodeResp).Info.Inode
	}
	create(proto.TypeDir, "")
	for i := range 100 {
		ino := create(proto.TypeFile, "")
		apply(proto.OpMetaCreateDentry, &proto.CreateDentryReq{ParentID: proto.RootInodeID,
			Name: fmt.Sprintf("f%03d", i), Inode: ino, Type: proto.TypeFile})
		apply(proto.OpMetaAppendExtentKeys, &proto.AppendExtentKeysReq{Inode: ino, Size: 4096,
			Extents: []proto.ExtentKey{{PartitionID: 7, ExtentID: uint64(i), Size: 4096, CRC: uint32(i)}}})
	}
	link := create(proto.TypeSymlink, "f000")
	apply(proto.OpMetaCreateDentry, &proto.CreateDentryReq{ParentID: proto.RootInodeID, Name: "l",
		Inode: link, Type: proto.TypeSymlink})
	apply(proto.OpMetaUnlinkInode, &proto.UnlinkInodeReq{Inode: create(proto.TypeFile, "")})
}

// TestSnapshotRestoreRoundTrip: a restored snapshot holds every inode,
// field for field, every dentry and the header, the applied index and the
// replica set included. The OpMetaSnapshot reply fsck fetches, over Memory
// and over TCP, is the same record, byte for byte.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	p := NewPartition(1, "vol", 1, 10000, nil)
	fillSnapshotFixture(t, p)
	p.applyReconfig([]string{"mn0", "mn1", "mn2"}, 3)
	data, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	p2 := NewPartition(1, "", 1, 0, nil)
	if err := p2.Restore(data); err != nil {
		t.Fatal(err)
	}
	want, got := p.capture(), p2.capture()
	if len(want.Inodes) != 103 || len(want.Dentries) != 101 || want.Applied == 0 {
		t.Fatalf("fixture holds %d inodes, %d dentries, applied %d", len(want.Inodes), len(want.Dentries), want.Applied)
	}
	for i := range want.Inodes {
		if !reflect.DeepEqual(got.Inodes[i], want.Inodes[i]) {
			t.Fatalf("restored inode %+v, want %+v", got.Inodes[i], want.Inodes[i])
		}
	}
	if !reflect.DeepEqual(got.Dentries, want.Dentries) {
		t.Fatal("restored dentries differ")
	}
	got.Inodes, got.Dentries, want.Inodes, want.Dentries = nil, nil, nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored header %+v, want %+v", got, want)
	}
	if _, err := p2.Lookup(proto.RootInodeID, "f050"); err != nil {
		t.Fatalf("restored lookup: %v", err)
	}

	for _, fabric := range []string{"mem", "tcp"} {
		t.Run(fabric, func(t *testing.T) {
			mc := startMetaClusterOn(t, fabric, 1)
			leader := mc.createPartition(t, 1, 1, 10000)
			p := mc.nodes[0].Partition(1)
			fillSnapshotFixture(t, p)
			var resp proto.MetaSnapshotResp
			if err := mc.nw.Call(leader, uint8(proto.OpMetaSnapshot), &proto.MetaSnapshotReq{PartitionID: 1}, &resp); err != nil {
				t.Fatal(err)
			}
			fetched, _ := proto.AppendMeta(nil, proto.OpMetaSnapshot, true, &resp)
			if want, _ := p.Snapshot(); !bytes.Equal(fetched, want) {
				t.Fatalf("fetched a %d-byte record, the partition's snapshot is %d bytes", len(fetched), len(want))
			}
		})
	}
}

func TestPersistenceAcrossRestart(t *testing.T) {
	nw := transport.NewMemory()
	startFakeMaster(t, nw, "master")
	dir := t.TempDir()
	clk := clock.NewManual(time.Now())
	mn, err := Start(nw, Config{
		Addr: "mn-persist", MasterAddr: "master", Dir: dir, Clock: clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mn.CreatePartition(&proto.CreateMetaPartitionReq{
		PartitionID: 1, Volume: "v", Start: 1, End: 1000, Members: []string{"mn-persist"},
	}); err != nil {
		t.Fatal(err)
	}
	p := mn.Partition(1)
	p.CreateRootInode()
	for i := 0; i < 50; i++ {
		newInode(t, p, proto.TypeFile)
	}
	mn.Close() // persists snapshots

	mn2, err := Start(nw, Config{
		Addr: "mn-persist2", MasterAddr: "master", Dir: dir, Clock: clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mn2.Close()
	p2 := mn2.Partition(1)
	if p2 == nil {
		t.Fatal("partition not recovered from disk")
	}
	if p2.InodeCount() != 51 {
		t.Fatalf("recovered inode count = %d", p2.InodeCount())
	}
	if p2.MaxInodeID() != 51 {
		t.Fatalf("recovered maxInodeID = %d", p2.MaxInodeID())
	}
}

func TestMemUsedGrowsWithContent(t *testing.T) {
	p := NewPartition(1, "vol", 1, 100000, nil)
	before := p.MemUsed()
	for i := 0; i < 100; i++ {
		newInode(t, p, proto.TypeFile)
	}
	if p.MemUsed() <= before {
		t.Fatalf("MemUsed did not grow: %d -> %d", before, p.MemUsed())
	}
}

func TestQuickInodeAllocationDisjointAfterSplit(t *testing.T) {
	// Property: after splitting at any end >= maxInodeID, ids allocated
	// by the original partition and a successor starting at end+1 never
	// collide (Algorithm 1's invariant).
	prop := func(preAlloc uint8, delta uint8) bool {
		p := NewPartition(1, "v", 1, ^uint64(0), nil)
		n := int(preAlloc%50) + 1
		for i := 0; i < n; i++ {
			if _, err := p.propose(proto.OpMetaCreateInode, &proto.CreateInodeReq{Type: proto.TypeFile}); err != nil {
				return false
			}
		}
		end := p.MaxInodeID() + uint64(delta%100) + 1
		if _, err := p.propose(proto.OpMetaSplitPartition, &proto.SplitMetaPartitionReq{End: end}); err != nil {
			return false
		}
		succ := NewPartition(2, "v", end+1, ^uint64(0), nil)
		seen := map[uint64]bool{}
		for i := 0; i < 30; i++ {
			out, err := p.propose(proto.OpMetaCreateInode, &proto.CreateInodeReq{Type: proto.TypeFile})
			if err != nil {
				break // original exhausted its cut range: fine
			}
			id := out.(*proto.CreateInodeResp).Info.Inode
			if seen[id] || id > end {
				return false
			}
			seen[id] = true
		}
		for i := 0; i < 30; i++ {
			out, err := succ.propose(proto.OpMetaCreateInode, &proto.CreateInodeReq{Type: proto.TypeFile})
			if err != nil {
				return false
			}
			id := out.(*proto.CreateInodeResp).Info.Inode
			if seen[id] || id <= end {
				return false
			}
			seen[id] = true
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
