package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"cfs/internal/clock"
	"cfs/internal/cluster"
	"cfs/internal/meta"
	"cfs/internal/proto"
	"cfs/internal/transport"
	"cfs/internal/util"
)

// countingNet is a mount's network that counts the metadata RPCs the mount
// sends: the unary calls of the ops with the binary meta layout.
type countingNet struct {
	transport.PacketStreamNetwork
	mu   sync.Mutex
	meta int
}

func (n *countingNet) Call(addr string, op uint8, req, resp any) error {
	if proto.HasMetaLayout(proto.Op(op)) {
		n.mu.Lock()
		n.meta++
		n.mu.Unlock()
	}
	return n.PacketStreamNetwork.Call(addr, op, req, resp)
}

// metaRPCs returns the metadata RPCs counted since the last call.
func (n *countingNet) metaRPCs() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	c := n.meta
	n.meta = 0
	return c
}

// coldMount mounts the volume afresh, so no dentry or inode is cached,
// through a network that counts its metadata RPCs.
func coldMount(t *testing.T, nw transport.PacketStreamNetwork, master string) (*FileSystem, *countingNet) {
	t.Helper()
	cn := &countingNet{PacketStreamNetwork: nw}
	fs, err := Mount(cn, master, "vol", MountOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fs.Unmount)
	cn.metaRPCs()
	return fs, cn
}

// TestColdStatAndOpenAreOneMetaRPC: on a volume of one meta partition,
// whose leader therefore leads every inode's partition, a cold Stat and a
// cold Open each cost one metadata RPC, and Open's inode is the one
// InodeGet(forceSync) returns.
func TestColdStatAndOpenAreOneMetaRPC(t *testing.T) {
	c := bootVolume(t, cluster.Options{}, 1, 1)
	fs, err := Mount(c.Net(), c.MasterAddr(), "vol", MountOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fs.Unmount)
	for _, p := range []string{"/stat", "/open"} {
		f, err := fs.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(make([]byte, 4096)); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	cold, cn := coldMount(t, c.Net(), c.MasterAddr())
	info, err := cold.Stat("/stat")
	if err != nil {
		t.Fatal(err)
	}
	if n := cn.metaRPCs(); n != 1 || info.Size != 4096 {
		t.Fatalf("cold stat: %d meta RPCs, size %d; want 1 RPC, size 4096", n, info.Size)
	}
	f, err := cold.Open("/open")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if n := cn.metaRPCs(); n != 1 {
		t.Fatalf("cold open: %d meta RPCs, want 1", n)
	}
	want, err := cold.Client().Meta.InodeGet(f.Inode(), true)
	if err != nil {
		t.Fatal(err)
	}
	if f.size != want.Size || !reflect.DeepEqual(f.extents, want.Extents) {
		t.Fatalf("open saw size %d extents %+v; InodeGet(forceSync) answers %d %+v",
			f.size, f.extents, want.Size, want.Extents)
	}
}

// TestDeleteMarkedInodeNeverCarried: a dentry whose inode is delete-marked
// (unlinked, not yet evicted) resolves, but its Lookup carries nothing,
// and a cold Stat or Open still answers ErrNotFound.
func TestDeleteMarkedInodeNeverCarried(t *testing.T) {
	c := bootVolume(t, cluster.Options{}, 1, 1)
	fs, err := Mount(c.Net(), c.MasterAddr(), "vol", MountOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fs.Unmount)
	f, err := fs.Create("/gone")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	ino, err := fs.Client().Meta.UnlinkInode(f.Inode())
	if err != nil || ino.Flag&proto.FlagDeleteMark == 0 {
		t.Fatalf("unlink: %+v, %v", ino, err)
	}

	cold, _ := coldMount(t, c.Net(), c.MasterAddr())
	d, err := cold.Client().Meta.Lookup(proto.RootInodeID, "gone")
	if err != nil || d.Inode != f.Inode() || d.Info != nil {
		t.Fatalf("lookup = %+v, %v; want the dentry and no inode", d, err)
	}
	cold, _ = coldMount(t, c.Net(), c.MasterAddr())
	if _, err := cold.Stat("/gone"); !errors.Is(err, util.ErrNotFound) {
		t.Fatalf("stat of a delete-marked inode: %v", err)
	}
	cold, _ = coldMount(t, c.Net(), c.MasterAddr())
	if _, err := cold.Open("/gone"); !errors.Is(err, util.ErrNotFound) {
		t.Fatalf("open of a delete-marked inode: %v", err)
	}
}

// TestStatFallsBackWhenAnotherNodeLeadsTheInode: the root's dentries live
// on a partition mn0 leads, the file's inode on one only mn1 hosts. The
// Lookup mn0 answers carries nothing, and a cold Stat asks mn1 for the
// inode: two metadata RPCs. The partitions are placed by hand (one member
// each, so no election decides who leads) behind a stand-in master that
// serves only the volume view.
func TestStatFallsBackWhenAnotherNodeLeadsTheInode(t *testing.T) {
	nw := transport.NewMemory()
	view := &proto.VolumeView{Name: "vol", Epoch: 1, MetaPartitions: []proto.MetaPartitionInfo{
		{PartitionID: 1, Volume: "vol", Start: 1, End: 1000, Members: []string{"mn0"},
			Status: proto.PartitionReadOnly, ReplicaEpoch: 1}, // no creates land here
		{PartitionID: 2, Volume: "vol", Start: 1001, End: math.MaxUint64, Members: []string{"mn1"},
			Status: proto.PartitionReadWrite, ReplicaEpoch: 1},
	}}
	ln, err := nw.Listen("master", func(op uint8, req any) (any, error) {
		switch proto.Op(op) {
		case proto.OpMasterRegisterNode:
			return &proto.RegisterNodeResp{}, nil
		case proto.OpMasterHeartbeat:
			return &proto.HeartbeatResp{}, nil
		case proto.OpMasterGetVolume:
			return &proto.GetVolumeResp{View: view}, nil
		}
		return nil, fmt.Errorf("stand-in master: op %d", op)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	clk := clock.NewManual(time.Now())
	for i, mp := range view.MetaPartitions {
		addr := mp.Members[0]
		mn, err := meta.Start(nw.Endpoint(addr), meta.Config{Addr: addr, MasterAddr: "master", Clock: clk})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(mn.Close)
		if err := mn.CreatePartition(&proto.CreateMetaPartitionReq{PartitionID: mp.PartitionID, Volume: "vol",
			Start: mp.Start, End: mp.End, Members: mp.Members}); err != nil {
			t.Fatal(err)
		}
		if i == 0 { // the volume root, inode 1
			if err := nw.Call(addr, uint8(proto.OpMetaCreateInode),
				&proto.CreateInodeReq{PartitionID: 1, Type: proto.TypeDir}, &proto.CreateInodeResp{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	fs, err := Mount(nw, "master", "vol", MountOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fs.Unmount)
	f, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if f.Inode() < 1001 {
		t.Fatalf("inode %d, want it on partition 2", f.Inode())
	}

	cold, _ := coldMount(t, nw, "master")
	if d, err := cold.Client().Meta.Lookup(proto.RootInodeID, "f"); err != nil || d.Info != nil {
		t.Fatalf("lookup = %+v, %v; want no inode from mn0", d, err)
	}
	cold, cn := coldMount(t, nw, "master")
	info, err := cold.Stat("/f")
	if err != nil || info.Inode != f.Inode() {
		t.Fatalf("stat = %+v, %v", info, err)
	}
	if n := cn.metaRPCs(); n != 2 {
		t.Fatalf("cold stat: %d meta RPCs, want 2 (Lookup, then InodeGet)", n)
	}
}
