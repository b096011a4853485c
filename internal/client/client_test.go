package client

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cfs/internal/cluster"
	"cfs/internal/proto"
	"cfs/internal/transport"
	"cfs/internal/util"
)

// startCluster boots three meta and three data nodes on Memory with volume
// "vol" of 2 meta and 3 data partitions; mount with Mount(nw, "master", "vol", ...).
func startCluster(t *testing.T) *transport.Memory {
	return bootCluster(t, "memory", "vol", 2, 3).Memory()
}

// bootCluster boots a cluster on fabric and creates the volume name on it.
func bootCluster(t testing.TB, fabric, name string, metaParts, dataParts int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.Boot(cluster.Options{Fabric: fabric})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if _, err := c.CreateVolume(name, metaParts, dataParts); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMountUnknownVolumeFails(t *testing.T) {
	nw := startCluster(t)
	_, err := Mount(nw, "master", "nope", Config{})
	if !errors.Is(err, util.ErrNotFound) {
		t.Fatalf("mount of unknown volume: %v", err)
	}
}

func TestCreateLookupRoutesByParent(t *testing.T) {
	nw := startCluster(t)
	c, err := Mount(nw, "master", "vol", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ino, err := c.Meta.Create(proto.RootInodeID, "hello", proto.TypeFile, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Meta.Lookup(proto.RootInodeID, "hello")
	if err != nil || got.Inode != ino.Inode || got.Type != proto.TypeFile {
		t.Fatalf("lookup = %d/%d, %v", got.Inode, got.Type, err)
	}
}

func TestInodeGetForceSyncBypassesCache(t *testing.T) {
	nw := startCluster(t)
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
	nw := startCluster(t)
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
	nw := startCluster(t)
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
	nw := startCluster(t)
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

func TestEndToEndOverTCP(t *testing.T) {
	// The same cluster code over real sockets: master, meta, data nodes
	// and a client all on loopback TCP.
	if testing.Short() {
		t.Skip("short mode")
	}
	cl := bootCluster(t, "tcp", "tcpvol", 1, 2)
	c, err := Mount(cl.Net(), cl.MasterAddr(), "tcpvol", Config{})
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
	nw := startCluster(t)
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
	nw := startCluster(t)
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
