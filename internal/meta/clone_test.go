package meta

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"cfs/internal/proto"
	"cfs/internal/util"
)

// Inode ids in the partition cloneFixture builds.
const (
	fixtureFile = proto.RootInodeID + 1 // "f" under the root, three extent keys out of file order
	fixtureDir  = proto.RootInodeID + 2 // "d" under the root
)

// cloneFixture builds an unreplicated partition holding the root, a file
// with three extent keys and a directory, both named under the root.
func cloneFixture(t testing.TB) *Partition {
	t.Helper()
	p := NewPartition(1, "vol", 1, 1000, nil)
	mustApply(t, p, proto.OpMetaCreateInode, &proto.CreateInodeReq{Type: proto.TypeDir})
	mustApply(t, p, proto.OpMetaCreateInode, &proto.CreateInodeReq{Type: proto.TypeFile})
	mustApply(t, p, proto.OpMetaCreateInode, &proto.CreateInodeReq{Type: proto.TypeDir})
	mustApply(t, p, proto.OpMetaCreateDentry, &proto.CreateDentryReq{ParentID: proto.RootInodeID, Name: "f",
		Inode: fixtureFile, Type: proto.TypeFile})
	mustApply(t, p, proto.OpMetaCreateDentry, &proto.CreateDentryReq{ParentID: proto.RootInodeID, Name: "d",
		Inode: fixtureDir, Type: proto.TypeDir})
	for _, off := range []uint64{200, 0, 100} { // as random writes leave them
		mustApply(t, p, proto.OpMetaAppendExtentKeys, &proto.AppendExtentKeysReq{Inode: fixtureFile, Size: off + 100,
			Extents: []proto.ExtentKey{{PartitionID: 1, ExtentID: 7, ExtentOffset: off, FileOffset: off, Size: 100}}})
	}
	return p
}

// mustApply proposes op's request req on the unreplicated partition p.
func mustApply(t testing.TB, p *Partition, op proto.Op, req any) any {
	t.Helper()
	out, err := p.propose(op, req)
	if err != nil {
		t.Fatalf("apply %v: %v", op, err)
	}
	return out
}

// newInode creates an inode of type typ on the unreplicated partition p.
func newInode(t testing.TB, p *Partition, typ uint32) *proto.Inode {
	t.Helper()
	return mustApply(t, p, proto.OpMetaCreateInode, &proto.CreateInodeReq{Type: typ}).(*proto.CreateInodeResp).Info
}

// deepInode copies ino with its slices, so a later comparison sees a
// change made through a shared backing array.
func deepInode(ino *proto.Inode) proto.Inode {
	out := *ino
	out.LinkTarget = slices.Clone(ino.LinkTarget)
	out.Extents = slices.Clone(ino.Extents)
	return out
}

// TestCloneIsAPointInTime: every apply that changes an existing inode
// leaves the version a tree clone holds - and the one an earlier InodeGet
// returned - field for field as it was, extent keys included.
func TestCloneIsAPointInTime(t *testing.T) {
	for _, tc := range []struct {
		name  string
		watch uint64
		op    proto.Op
		req   any
	}{
		{"create-dentry of a dir", proto.RootInodeID, proto.OpMetaCreateDentry, &proto.CreateDentryReq{
			ParentID: proto.RootInodeID, Name: "e", Inode: 99, Type: proto.TypeDir}},
		{"delete-dentry", proto.RootInodeID, proto.OpMetaDeleteDentry, &proto.DeleteDentryReq{ParentID: proto.RootInodeID, Name: "d"}},
		{"unlink", fixtureFile, proto.OpMetaUnlinkInode, &proto.UnlinkInodeReq{Inode: fixtureFile}},
		{"link", fixtureFile, proto.OpMetaLinkInode, &proto.LinkInodeReq{Inode: fixtureFile}},
		{"set-attr mtime", fixtureFile, proto.OpMetaSetAttr, &proto.SetAttrReq{Inode: fixtureFile,
			Valid: proto.AttrModifyTime, ModifyTime: 42}},
		{"set-attr truncating size", fixtureFile, proto.OpMetaSetAttr, &proto.SetAttrReq{Inode: fixtureFile,
			Valid: proto.AttrSize, Size: 150}},
		{"append-extent-keys", fixtureFile, proto.OpMetaAppendExtentKeys, &proto.AppendExtentKeysReq{Inode: fixtureFile, Size: 400,
			Extents: []proto.ExtentKey{{PartitionID: 1, ExtentID: 8, FileOffset: 300, Size: 100}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := cloneFixture(t)
			clone := p.inodeTree.Clone()
			held := clone.Get(inodeItem{ino: &proto.Inode{Inode: tc.watch}}).(inodeItem).ino
			got, err := p.InodeGet(tc.watch)
			if err != nil {
				t.Fatal(err)
			}
			want := deepInode(held)

			mustApply(t, p, tc.op, tc.req)
			now, _ := p.InodeGet(tc.watch)
			if now != nil && reflect.DeepEqual(deepInode(now), want) {
				t.Fatalf("the apply changed nothing in inode %d", tc.watch)
			}
			if after := deepInode(held); !reflect.DeepEqual(after, want) {
				t.Errorf("clone's inode changed:\n got %+v\nwant %+v", after, want)
			}
			if after := deepInode(got); !reflect.DeepEqual(after, want) {
				t.Errorf("InodeGet's inode changed:\n got %+v\nwant %+v", after, want)
			}
		})
	}
}

// TestSnapshotWhileApplying takes snapshots while 2 000 directories are
// created under the root, at least one per 200 creates: each restored
// snapshot must be one point in time, where the root's link count is 2
// plus its subdirectory dentries. Under -race it also checks that
// encoding a snapshot reads nothing an apply writes.
func TestSnapshotWhileApplying(t *testing.T) {
	p := NewPartition(1, "vol", 1, 1<<20, nil)
	newInode(t, p, proto.TypeDir)
	done := make(chan struct{})
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(done) // also when an apply fails the test
	var snaps atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			data, err := p.Snapshot()
			if err != nil {
				t.Error(err)
				return
			}
			q := NewPartition(1, "vol", 1, 0, nil)
			if err := q.Restore(data); err != nil {
				t.Error(err)
				return
			}
			root, err := q.InodeGet(proto.RootInodeID)
			if err != nil {
				t.Error(err)
				return
			}
			if want := 2 + q.DentryCount(); uint64(root.NLink) != want {
				t.Errorf("snapshot %d: root nlink %d with %d dentries under it, want %d",
					snaps.Load(), root.NLink, q.DentryCount(), want)
				return
			}
			snaps.Add(1)
		}
	}()
	for i := 0; i < 2000; i++ {
		for i%200 == 0 && snaps.Load() < int64(i/200) && !t.Failed() {
			runtime.Gosched()
		}
		ino := newInode(t, p, proto.TypeDir)
		mustApply(t, p, proto.OpMetaCreateDentry, &proto.CreateDentryReq{ParentID: proto.RootInodeID,
			Name: fmt.Sprintf("d%d", i), Inode: ino.Inode, Type: proto.TypeDir})
	}
}

// TestDentryFoundByItsPair: Lookup and UpdateDentry find a dentry by
// (parent, name) itself (dentryAt), so a lookup boxes no search key - its
// one allocation is the reply - and an update changes the dentry in the
// descent that found it, leaving a tree clone's dentry as it was.
func TestDentryFoundByItsPair(t *testing.T) {
	p := cloneFixture(t)
	if allocs := testing.AllocsPerRun(100, func() { _, _ = p.Lookup(proto.RootInodeID, "f") }); allocs > 1 {
		t.Fatalf("Lookup allocates %v times, want only its reply", allocs)
	}
	clone := p.dentryTree.Clone()
	out := mustApply(t, p, proto.OpMetaUpdateDentry, &proto.UpdateDentryReq{ParentID: proto.RootInodeID, Name: "f", Inode: fixtureDir})
	if old := out.(*proto.UpdateDentryResp).OldInode; old != fixtureFile {
		t.Fatalf("UpdateDentry reports old inode %d, want %d", old, fixtureFile)
	}
	if resp, err := p.Lookup(proto.RootInodeID, "f"); err != nil || resp.Inode != fixtureDir {
		t.Fatalf("Lookup after the update = %+v, %v, want inode %d", resp, err, fixtureDir)
	}
	if d := clone.Find(dentryAt(proto.RootInodeID, "f")).(dentryItem).d; d.Inode != fixtureFile {
		t.Fatalf("the clone's dentry moved to inode %d, want %d", d.Inode, fixtureFile)
	}
	if _, err := p.propose(proto.OpMetaUpdateDentry, &proto.UpdateDentryReq{ParentID: proto.RootInodeID, Name: "g", Inode: fixtureDir}); !errors.Is(err, util.ErrNotFound) {
		t.Fatalf("UpdateDentry of a missing name = %v, want ErrNotFound", err)
	}
}
