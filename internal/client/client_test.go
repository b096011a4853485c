package client

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"cfs/internal/datanode"
	"cfs/internal/master"
	"cfs/internal/meta"
	"cfs/internal/proto"
	"cfs/internal/raftstore"
	"cfs/internal/transport"
	"cfs/internal/util"
)

func startCluster(t *testing.T, nw transport.Network) {
	t.Helper()
	m, err := master.Start(nw, master.Config{
		Addr: "master", ReplicaCount: 3, DisableBackground: true,
		Raft: raftstore.Config{FlushInterval: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	if !m.WaitLeader(5 * time.Second) {
		t.Fatal("no master leader")
	}
	for i := 0; i < 3; i++ {
		mn, err := meta.Start(nw, meta.Config{
			Addr: fmt.Sprintf("mn%d", i), MasterAddr: "master",
			DisableHeartbeat: true,
			Raft:             raftstore.Config{FlushInterval: time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(mn.Close)
		dn, err := datanode.Start(nw, datanode.Config{
			Addr: fmt.Sprintf("dn%d", i), MasterAddr: "master",
			Dir: t.TempDir(), DisableHeartbeat: true,
			Raft: raftstore.Config{FlushInterval: time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(dn.Close)
	}
	var resp proto.CreateVolumeResp
	if err := nw.Call("master", uint8(proto.OpMasterCreateVolume), &proto.CreateVolumeReq{
		Name: "vol", MetaPartitionCount: 2, DataPartitionCount: 3,
	}, &resp); err != nil {
		t.Fatal(err)
	}
}

func TestMountUnknownVolumeFails(t *testing.T) {
	nw := transport.NewMemory()
	startCluster(t, nw)
	_, err := Mount(nw, "master", "nope", Config{})
	if !errors.Is(err, util.ErrNotFound) {
		t.Fatalf("mount of unknown volume: %v", err)
	}
}

func TestCreateLookupRoutesByParent(t *testing.T) {
	nw := transport.NewMemory()
	startCluster(t, nw)
	c, err := Mount(nw, "master", "vol", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ino, err := c.Meta.Create(proto.RootInodeID, "hello", proto.TypeFile, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, typ, err := c.Meta.Lookup(proto.RootInodeID, "hello")
	if err != nil || got != ino.Inode || typ != proto.TypeFile {
		t.Fatalf("lookup = %d/%d, %v", got, typ, err)
	}
}

func TestInodeGetForceSyncBypassesCache(t *testing.T) {
	nw := transport.NewMemory()
	startCluster(t, nw)
	c, err := Mount(nw, "master", "vol", Config{CacheTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ino, err := c.Meta.Create(proto.RootInodeID, "f", proto.TypeFile, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate through a second client; first client's cache is stale.
	c2, err := Mount(nw, "master", "vol", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Meta.AppendExtentKeys(ino.Inode, nil, 12345); err != nil {
		t.Fatal(err)
	}
	cached, err := c.Meta.InodeGet(ino.Inode, false)
	if err != nil {
		t.Fatal(err)
	}
	if cached.Size != 0 {
		t.Fatalf("expected stale cached size 0, got %d", cached.Size)
	}
	fresh, err := c.Meta.InodeGet(ino.Inode, true)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Size != 12345 {
		t.Fatalf("forceSync returned stale size %d", fresh.Size)
	}
}

func TestBatchInodeGetGroupsByPartition(t *testing.T) {
	nw := transport.NewMemory()
	startCluster(t, nw)
	c, err := Mount(nw, "master", "vol", Config{CacheTTL: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var ids []uint64
	for i := 0; i < 30; i++ {
		ino, err := c.Meta.Create(proto.RootInodeID, fmt.Sprintf("b%02d", i), proto.TypeFile, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, ino.Inode)
	}
	// With 2 meta partitions and random create placement, inode ids land
	// in different ranges; batch get must reassemble all of them.
	got, err := c.Meta.BatchInodeGet(ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ids) {
		t.Fatalf("batch returned %d of %d inodes", len(got), len(ids))
	}
}

func TestLeaderCachePopulated(t *testing.T) {
	nw := transport.NewMemory()
	startCluster(t, nw)
	c, err := Mount(nw, "master", "vol", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Meta.Create(proto.RootInodeID, "x", proto.TypeFile, nil); err != nil {
		t.Fatal(err)
	}
	c.Meta.mu.Lock()
	cached := len(c.Meta.leader)
	c.Meta.mu.Unlock()
	if cached == 0 {
		t.Fatal("leader cache empty after successful ops")
	}
}

func TestSmallFileWriteNoExtentCreate(t *testing.T) {
	nw := transport.NewMemory()
	startCluster(t, nw)
	c, err := Mount(nw, "master", "vol", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ek, err := c.Data.WriteSmallFile(0, []byte("tiny"))
	if err != nil {
		t.Fatal(err)
	}
	if ek.Size != 4 || ek.ExtentID == 0 {
		t.Fatalf("small-file key = %+v", ek)
	}
	data, err := c.Data.Read(ek, ek.ExtentOffset, ek.Size)
	if err != nil || string(data) != "tiny" {
		t.Fatalf("read back = %q, %v", data, err)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults("volname")
	if cfg.MaxRetries != 3 || cfg.PacketSize != util.DefaultPacketSize ||
		cfg.SmallFileThreshold != util.DefaultSmallFileThreshold ||
		cfg.CacheTTL != 2*time.Second || cfg.Seed == 0 ||
		cfg.WriteWindow != util.DefaultWriteWindow {
		t.Fatalf("defaults = %+v", cfg)
	}
	// Defaults are idempotent.
	again := cfg.withDefaults("volname")
	if again != cfg {
		t.Fatal("withDefaults not idempotent")
	}
	disabled := Config{}.DisableCaches()
	if !disabled.DisableBatchInodeGet || !disabled.DisableLeaderCache || disabled.CacheTTL >= 0 {
		t.Fatalf("DisableCaches = %+v", disabled)
	}
}

// reservePorts asks the kernel for n distinct free loopback ports. The
// listeners close just before the nodes bind, so collisions are unlikely
// (and the caller tolerates them by skipping).
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

func TestEndToEndOverTCP(t *testing.T) {
	// The same cluster code over real sockets: master, meta, data nodes
	// and a client all on loopback TCP.
	if testing.Short() {
		t.Skip("short mode")
	}
	nw := transport.NewTCP()
	addrs := reservePorts(t, 7)
	masterAddr := addrs[0]
	m, err := master.Start(nw, master.Config{Addr: masterAddr})
	if err != nil {
		t.Skipf("cannot bind %s: %v", masterAddr, err)
	}
	defer m.Close()
	if !m.WaitLeader(5 * time.Second) {
		t.Fatal("no master leader over TCP")
	}
	for i := 0; i < 3; i++ {
		mn, err := meta.Start(nw, meta.Config{
			Addr:       addrs[1+i],
			MasterAddr: masterAddr, DisableHeartbeat: true,
		})
		if err != nil {
			t.Skipf("cannot bind meta node: %v", err)
		}
		defer mn.Close()
		dn, err := datanode.Start(nw, datanode.Config{
			Addr:       addrs[4+i],
			MasterAddr: masterAddr, Dir: t.TempDir(), DisableHeartbeat: true,
		})
		if err != nil {
			t.Skipf("cannot bind data node: %v", err)
		}
		defer dn.Close()
	}
	var resp proto.CreateVolumeResp
	if err := nw.Call(masterAddr, uint8(proto.OpMasterCreateVolume), &proto.CreateVolumeReq{
		Name: "tcpvol", MetaPartitionCount: 1, DataPartitionCount: 2,
	}, &resp); err != nil {
		t.Fatal(err)
	}
	c, err := Mount(nw, masterAddr, "tcpvol", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ino, err := c.Meta.Create(proto.RootInodeID, "over-tcp", proto.TypeFile, nil)
	if err != nil {
		t.Fatal(err)
	}
	ek, err := c.Data.WriteSmallFile(0, []byte("tcp payload"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Meta.AppendExtentKeys(ino.Inode, []proto.ExtentKey{ek}, uint64(ek.Size)); err != nil {
		t.Fatal(err)
	}
	data, err := c.Data.Read(ek, ek.ExtentOffset, ek.Size)
	if err != nil || string(data) != "tcp payload" {
		t.Fatalf("TCP read back = %q, %v", data, err)
	}
}

// ---------------------------------------------------------------------------
// Pipelined extent writer.

func TestExtentWriterPipelinedAppend(t *testing.T) {
	nw := transport.NewMemory()
	startCluster(t, nw)
	c, err := Mount(nw, "master", "vol", Config{})
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
	defer w.Close()

	// 5 packets of data, accepted without waiting for acks.
	data := make([]byte, 5*c.Config().PacketSize)
	for i := range data {
		data[i] = byte(i)
	}
	n, err := w.Write(0, data)
	if err != nil || n != len(data) {
		t.Fatalf("Write = %d, %v", n, err)
	}
	keys, pend, err := w.Drain()
	if err != nil || len(pend) != 0 {
		t.Fatalf("Drain = %d pending, %v", len(pend), err)
	}
	if len(keys) != 5 {
		t.Fatalf("got %d keys, want 5", len(keys))
	}
	// Keys are contiguous in both file and extent space, in ack order.
	var foff, eoff uint64
	for i, ek := range keys {
		if ek.FileOffset != foff || ek.ExtentOffset != eoff {
			t.Fatalf("key %d = %+v, want foff %d eoff %d", i, ek, foff, eoff)
		}
		foff += uint64(ek.Size)
		eoff += uint64(ek.Size)
		got, err := c.Data.Read(ek, ek.ExtentOffset, ek.Size)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(data[ek.FileOffset:ek.End()]) {
			t.Fatalf("key %d content mismatch", i)
		}
	}
}

func TestExtentWriterFailureReportsUncommittedTail(t *testing.T) {
	nw := transport.NewMemory()
	startCluster(t, nw)
	c, err := Mount(nw, "master", "vol", Config{})
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
	defer w.Close()

	// A committed packet, then a failed window.
	if _, err := w.Write(0, []byte("stable")); err != nil {
		t.Fatal(err)
	}
	if keys, _, err := w.Drain(); err != nil || len(keys) != 1 {
		t.Fatalf("baseline drain = %d keys, %v", len(keys), err)
	}

	// Cut a replica: every packet of the next window must come back as
	// uncommitted, in order, with its bytes intact for replay.
	nw.Partition("dn2")
	defer nw.Heal("dn2")
	chunk := make([]byte, 2*c.Config().PacketSize)
	n, _ := w.Write(6, chunk) // acceptance may or may not see the error yet
	keys, pend, err := w.Drain()
	if err == nil {
		t.Fatal("window drained cleanly with an unreachable replica")
	}
	if len(keys) != 0 {
		t.Fatalf("%d keys committed past a replica failure", len(keys))
	}
	var replay uint64
	next := uint64(6)
	for _, pw := range pend {
		if pw.FileOffset != next {
			t.Fatalf("pending tail out of order: foff %d, want %d", pw.FileOffset, next)
		}
		next += uint64(len(pw.Data))
		replay += uint64(len(pw.Data))
	}
	if replay != uint64(n) {
		t.Fatalf("pending bytes = %d, accepted = %d", replay, n)
	}
	// The poisoned writer keeps failing fast.
	if _, err := w.Write(next, []byte("more")); err == nil {
		t.Fatal("write on a poisoned writer succeeded")
	}
}
