package meta

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
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
// (the Memory network) or "tcp" (loopback, ports reserved by bind-and-close).
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
		for i := range addrs {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addrs[i] = ln.Addr().String()
			ln.Close()
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
		for _, ino := range mc.nodes[i].Partition(1).BatchAllInodes() {
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

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	p := NewPartition(1, "vol", 1, 10000, nil)
	p.CreateRootInode()
	for i := 0; i < 100; i++ {
		out, err := p.propose(&command{Kind: cmdCreateInode, Type: proto.TypeFile})
		if err != nil {
			t.Fatal(err)
		}
		ino := out.(*proto.Inode)
		if _, err := p.propose(&command{
			Kind: cmdCreateDentry, ParentID: proto.RootInodeID,
			Name: fmt.Sprintf("f%03d", i), Inode: ino.Inode, DentryType: proto.TypeFile,
		}); err != nil {
			t.Fatal(err)
		}
	}
	data, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	p2 := NewPartition(1, "vol", 1, 0, nil)
	if err := p2.Restore(data); err != nil {
		t.Fatal(err)
	}
	if p2.InodeCount() != p.InodeCount() || p2.DentryCount() != p.DentryCount() {
		t.Fatalf("restored counts %d/%d, want %d/%d",
			p2.InodeCount(), p2.DentryCount(), p.InodeCount(), p.DentryCount())
	}
	if p2.MaxInodeID() != p.MaxInodeID() || p2.End != p.End {
		t.Fatalf("restored range state differs")
	}
	if _, err := p2.Lookup(proto.RootInodeID, "f050"); err != nil {
		t.Fatalf("restored lookup: %v", err)
	}
}

// TestRestoreSnapshotWithFreeList restores a snapshot written before the
// free list was dropped from partitionSnapshot: gob skips the field, and
// every inode and dentry comes back.
func TestRestoreSnapshotWithFreeList(t *testing.T) {
	type freeListSnapshot struct {
		ID, Start, End, MaxInodeID uint64
		Volume                     string
		FreeList                   []uint64
		Inodes                     []*proto.Inode
		Dentries                   []proto.Dentry
		Members                    []string
		ReplicaEpoch               uint64
	}
	old := freeListSnapshot{
		ID: 1, Volume: "vol", Start: 1, End: 1000, MaxInodeID: 4,
		FreeList: []uint64{3},
		Inodes: []*proto.Inode{
			{Inode: 1, Type: proto.TypeDir, NLink: 2},
			{Inode: 2, Type: proto.TypeFile, NLink: 1, Size: 7,
				Extents: []proto.ExtentKey{{PartitionID: 9, ExtentID: 4, Size: 7}}},
			{Inode: 4, Type: proto.TypeFile, NLink: 1},
		},
		Dentries: []proto.Dentry{
			{ParentID: 1, Name: "a", Inode: 2, Type: proto.TypeFile},
			{ParentID: 1, Name: "b", Inode: 4, Type: proto.TypeFile},
		},
		Members: []string{"mn0"}, ReplicaEpoch: 3,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&old); err != nil {
		t.Fatal(err)
	}
	p := NewPartition(1, "vol", 1, 0, nil)
	if err := p.Restore(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if p.InodeCount() != 3 || p.DentryCount() != 2 || p.MaxInodeID() != 4 || p.Epoch() != 3 {
		t.Fatalf("restored %d inodes, %d dentries, max id %d, epoch %d",
			p.InodeCount(), p.DentryCount(), p.MaxInodeID(), p.Epoch())
	}
	for _, name := range []string{"a", "b"} {
		if _, err := p.Lookup(proto.RootInodeID, name); err != nil {
			t.Fatalf("lookup %q: %v", name, err)
		}
	}
	ino, err := p.InodeGet(2)
	if err != nil || len(ino.Extents) != 1 || ino.Extents[0].ExtentID != 4 {
		t.Fatalf("inode 2 = %+v, %v", ino, err)
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
		if _, err := p.propose(&command{Kind: cmdCreateInode, Type: proto.TypeFile}); err != nil {
			t.Fatal(err)
		}
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

func TestOrphanDetection(t *testing.T) {
	p := NewPartition(1, "vol", 1, 1000, nil)
	p.CreateRootInode()
	out, _ := p.propose(&command{Kind: cmdCreateInode, Type: proto.TypeFile})
	linked := out.(*proto.Inode)
	p.propose(&command{
		Kind: cmdCreateDentry, ParentID: proto.RootInodeID,
		Name: "linked", Inode: linked.Inode, DentryType: proto.TypeFile,
	})
	out, _ = p.propose(&command{Kind: cmdCreateInode, Type: proto.TypeFile})
	orphan := out.(*proto.Inode)

	orphans := p.OrphanInodes()
	if len(orphans) != 1 || orphans[0].Inode != orphan.Inode {
		t.Fatalf("orphans = %+v", orphans)
	}
}

func TestMemUsedGrowsWithContent(t *testing.T) {
	p := NewPartition(1, "vol", 1, 100000, nil)
	before := p.MemUsed()
	for i := 0; i < 100; i++ {
		p.propose(&command{Kind: cmdCreateInode, Type: proto.TypeFile})
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
			if _, err := p.propose(&command{Kind: cmdCreateInode, Type: proto.TypeFile}); err != nil {
				return false
			}
		}
		end := p.MaxInodeID() + uint64(delta%100) + 1
		if _, err := p.propose(&command{Kind: cmdSplit, End: end}); err != nil {
			return false
		}
		succ := NewPartition(2, "v", end+1, ^uint64(0), nil)
		seen := map[uint64]bool{}
		for i := 0; i < 30; i++ {
			out, err := p.propose(&command{Kind: cmdCreateInode, Type: proto.TypeFile})
			if err != nil {
				break // original exhausted its cut range: fine
			}
			id := out.(*proto.Inode).Inode
			if seen[id] || id > end {
				return false
			}
			seen[id] = true
		}
		for i := 0; i < 30; i++ {
			out, err := succ.propose(&command{Kind: cmdCreateInode, Type: proto.TypeFile})
			if err != nil {
				return false
			}
			id := out.(*proto.Inode).Inode
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
