package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"cfs/internal/client"
	"cfs/internal/clock"
	"cfs/internal/datanode"
	"cfs/internal/master"
	"cfs/internal/meta"
	"cfs/internal/proto"
	"cfs/internal/transport"
	"cfs/internal/util"
)

// testEnv is a complete in-process CFS cluster with a mounted volume.
type testEnv struct {
	t          *testing.T
	nw         *transport.Memory // nil on TCP
	net        transport.Network // the fabric every node and mount uses
	masterAddr string
	master     *master.Master
	metas      []*meta.MetaNode
	datas      []*datanode.DataNode
	fs         *FileSystem
}

func startEnv(t *testing.T, opts MountOptions) *testEnv { return startEnvOn(t, "memory", opts) }

// startEnvOn boots the cluster on the Memory fabric or, for "tcp", on
// loopback TCP with one listener per node.
func startEnvOn(t *testing.T, fabric string, opts MountOptions) *testEnv {
	t.Helper()
	e := &testEnv{t: t, masterAddr: "master"}
	metaAddr := func(i int) string { return fmt.Sprintf("mn%d", i) }
	dataAddr := func(i int) string { return fmt.Sprintf("dn%d", i) }
	endpoint := func(addr string) transport.Network { return e.nw.Endpoint(addr) }
	if fabric == "tcp" {
		addrs := make([]string, 7)
		for i := range addrs {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addrs[i] = ln.Addr().String()
			ln.Close()
		}
		e.net, e.masterAddr = transport.NewTCP(), addrs[0]
		metaAddr = func(i int) string { return addrs[1+i] }
		dataAddr = func(i int) string { return addrs[4+i] }
		endpoint = func(string) transport.Network { return e.net }
	} else {
		e.nw = transport.NewMemory()
		e.net = e.nw
	}
	clk := clock.NewManual(time.Now())
	m, err := master.Start(e.net, master.Config{
		Addr:         e.masterAddr,
		ReplicaCount: 3,
		Clock:        clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	if !m.WaitLeader(5 * time.Second) {
		t.Fatal("no master leader")
	}
	e.master = m
	for i := 0; i < 3; i++ {
		mn, err := meta.Start(endpoint(metaAddr(i)), meta.Config{
			Addr: metaAddr(i), MasterAddr: e.masterAddr,
			Clock: clk,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(mn.Close)
		e.metas = append(e.metas, mn)
	}
	for i := 0; i < 3; i++ {
		dn, err := datanode.Start(e.net, datanode.Config{
			Addr: dataAddr(i), MasterAddr: e.masterAddr,
			Dir: t.TempDir(), Clock: clk,
			ExtentSize: 4 * util.MB,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(dn.Close)
		e.datas = append(e.datas, dn)
	}
	var resp proto.CreateVolumeResp
	if err := e.net.Call(e.masterAddr, uint8(proto.OpMasterCreateVolume), &proto.CreateVolumeReq{
		Name: "vol", MetaPartitionCount: 3, DataPartitionCount: 4,
	}, &resp); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(e.net, e.masterAddr, "vol", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fs.Unmount)
	e.fs = fs
	return e
}

func TestMkdirCreateStatRemove(t *testing.T) {
	e := startEnv(t, MountOptions{})
	if err := e.fs.Mkdir("/docs"); err != nil {
		t.Fatal(err)
	}
	f, err := e.fs.Create("/docs/readme.txt")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := e.fs.Stat("/docs/readme.txt")
	if err != nil {
		t.Fatal(err)
	}
	if info.IsDir || info.Name != "readme.txt" || info.NLink != 1 {
		t.Fatalf("stat = %+v", info)
	}
	dinfo, err := e.fs.Stat("/docs")
	if err != nil || !dinfo.IsDir {
		t.Fatalf("dir stat = %+v, %v", dinfo, err)
	}
	if err := e.fs.Remove("/docs/readme.txt"); err != nil {
		t.Fatal(err)
	}
	if e.fs.Exists("/docs/readme.txt") {
		t.Fatal("file exists after remove")
	}
	if err := e.fs.Remove("/docs"); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveNonEmptyDirFails(t *testing.T) {
	e := startEnv(t, MountOptions{})
	e.fs.MkdirAll("/a/b")
	err := e.fs.Remove("/a")
	if !errors.Is(err, util.ErrNotEmpty) {
		t.Fatalf("remove non-empty dir: %v", err)
	}
	if err := e.fs.RemoveAll("/a"); err != nil {
		t.Fatal(err)
	}
	if e.fs.Exists("/a") {
		t.Fatal("dir exists after RemoveAll")
	}
}

func TestWriteReadRoundTripLarge(t *testing.T) {
	e := startEnv(t, MountOptions{})
	f, err := e.fs.Create("/big.bin")
	if err != nil {
		t.Fatal(err)
	}
	// 1 MB spans multiple 128 KB packets.
	data := make([]byte, util.MB)
	r := util.NewRand(99)
	for i := range data {
		data[i] = byte(r.Uint64())
	}
	n, err := f.Write(data)
	if err != nil || n != len(data) {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if err := f.Fsync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and read back.
	f2, err := e.fs.Open("/big.bin")
	if err != nil {
		t.Fatal(err)
	}
	if f2.Size() != uint64(len(data)) {
		t.Fatalf("reopened size = %d", f2.Size())
	}
	got := make([]byte, len(data))
	if _, err := io.ReadFull(f2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("large file content mismatch after reopen")
	}
	f2.Close()
}

func TestSmallFileFastPath(t *testing.T) {
	e := startEnv(t, MountOptions{})
	f, _ := e.fs.Create("/small.txt")
	content := []byte("product image bytes")
	if _, err := f.Write(content); err != nil {
		t.Fatal(err)
	}
	f.Close()
	f2, err := e.fs.Open("/small.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(content))
	if _, err := io.ReadFull(f2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("small file = %q", got)
	}
	f2.Close()
}

func TestRandomOverwriteInPlace(t *testing.T) {
	e := startEnv(t, MountOptions{})
	f, _ := e.fs.Create("/rand.bin")
	base := bytes.Repeat([]byte("abcdefgh"), 64*1024) // 512 KB
	if _, err := f.Write(base); err != nil {
		t.Fatal(err)
	}
	f.Fsync()

	// Overwrite a range in the middle (in-place, Raft path).
	patch := bytes.Repeat([]byte("Z"), 1000)
	if _, err := f.WriteAt(patch, 100000); err != nil {
		t.Fatal(err)
	}
	copy(base[100000:], patch)

	got := make([]byte, len(base))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, base) {
		t.Fatal("content mismatch after in-place overwrite")
	}
	// In-place overwrite must not change the file size.
	if f.Size() != uint64(len(base)) {
		t.Fatalf("size changed by overwrite: %d", f.Size())
	}
	f.Close()
}

func TestWriteStraddlingEOF(t *testing.T) {
	e := startEnv(t, MountOptions{})
	f, _ := e.fs.Create("/straddle.bin")
	f.Write(bytes.Repeat([]byte("A"), 300*1024))
	// Write 200 KB starting 100 KB before EOF: half overwrite, half append.
	patch := bytes.Repeat([]byte("B"), 200*1024)
	if _, err := f.WriteAt(patch, 200*1024); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 400*1024 {
		t.Fatalf("size = %d, want 400K", f.Size())
	}
	got := make([]byte, 400*1024)
	f.ReadAt(got, 0)
	for i := 0; i < 200*1024; i++ {
		if got[i] != 'A' {
			t.Fatalf("byte %d = %c, want A", i, got[i])
		}
	}
	for i := 200 * 1024; i < 400*1024; i++ {
		if got[i] != 'B' {
			t.Fatalf("byte %d = %c, want B", i, got[i])
		}
	}
	f.Close()
}

func TestWritePastEOFRejected(t *testing.T) {
	e := startEnv(t, MountOptions{})
	f, _ := e.fs.Create("/gap.bin")
	f.Write([]byte("x"))
	if _, err := f.WriteAt([]byte("y"), 100); !errors.Is(err, util.ErrOutOfRange) {
		t.Fatalf("gapped write: %v", err)
	}
	f.Close()
}

func TestReadDirPlus(t *testing.T) {
	e := startEnv(t, MountOptions{})
	e.fs.Mkdir("/dir")
	for i := 0; i < 20; i++ {
		f, err := e.fs.Create(fmt.Sprintf("/dir/f%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		f.Write([]byte("data"))
		f.Close()
	}
	infos, err := e.fs.ReadDirPlus("/dir")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 20 {
		t.Fatalf("ReadDirPlus returned %d entries", len(infos))
	}
	for _, info := range infos {
		if info.Size != 4 {
			t.Fatalf("entry %s size = %d", info.Name, info.Size)
		}
	}
}

func TestRenameFile(t *testing.T) {
	e := startEnv(t, MountOptions{})
	f, _ := e.fs.Create("/old.txt")
	f.Write([]byte("payload"))
	f.Close()
	if err := e.fs.Rename("/old.txt", "/new.txt"); err != nil {
		t.Fatal(err)
	}
	if e.fs.Exists("/old.txt") {
		t.Fatal("old name still exists")
	}
	info, err := e.fs.Stat("/new.txt")
	if err != nil || info.Size != 7 || info.NLink != 1 {
		t.Fatalf("renamed stat = %+v, %v", info, err)
	}
	f2, _ := e.fs.Open("/new.txt")
	got := make([]byte, 7)
	io.ReadFull(f2, got)
	if string(got) != "payload" {
		t.Fatalf("renamed content = %q", got)
	}
	f2.Close()
}

func TestRenameOverExisting(t *testing.T) {
	e := startEnv(t, MountOptions{})
	f1, _ := e.fs.Create("/src.txt")
	f1.Write([]byte("source"))
	f1.Close()
	f2, _ := e.fs.Create("/dst.txt")
	f2.Write([]byte("stale destination"))
	f2.Close()
	if err := e.fs.Rename("/src.txt", "/dst.txt"); err != nil {
		t.Fatal(err)
	}
	info, err := e.fs.Stat("/dst.txt")
	if err != nil || info.Size != 6 || info.NLink != 1 {
		t.Fatalf("stat after clobbering rename = %+v, %v", info, err)
	}
	if e.fs.Exists("/src.txt") {
		t.Fatal("source still exists")
	}
}

// writeStreamed creates p with size seeded random bytes written in 128 KiB
// calls, as seq_stream does: the first call takes the small-file path into
// a shared aggregation extent, the rest stream into the file's own extent.
func (e *testEnv) writeStreamed(t *testing.T, p string, size int, seed uint64) []byte {
	t.Helper()
	data := make([]byte, size)
	r := util.NewRand(seed)
	for i := range data {
		data[i] = byte(r.Uint64())
	}
	f, err := e.fs.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < size; off += 128 * util.KB {
		if _, err := f.Write(data[off:util.Min(off+128*util.KB, size)]); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return data
}

// storeTotals sums extent counts and used bytes over every replica of every
// data partition of the volume.
func (e *testEnv) storeTotals() (extents int, used uint64) {
	var resp proto.GetVolumeResp
	e.nw.Call("master", uint8(proto.OpMasterGetVolume), &proto.GetVolumeReq{Name: "vol"}, &resp)
	for _, dp := range resp.View.DataPartitions {
		for _, dn := range e.datas {
			if p := dn.Partition(dp.PartitionID); p != nil {
				extents += p.ExtentCount()
				used += p.Used()
			}
		}
	}
	return extents, used
}

// waitReleased waits for asynchronous content release to bring the used
// bytes over all replicas down to want, and fails if it never does.
func (e *testEnv) waitReleased(t *testing.T, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, used := e.storeTotals()
		if used <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("used bytes over all replicas = %d, want %d", used, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestExtentRunsMergeOnlyTouchingRanges: keys merge into one release per
// contiguous run on one extent; a gap, another extent or another partition
// starts a new run, since the bytes between may belong to another file.
func TestExtentRunsMergeOnlyTouchingRanges(t *testing.T) {
	key := func(pid, ext, off uint64, size uint32) proto.ExtentKey {
		return proto.ExtentKey{PartitionID: pid, ExtentID: ext, ExtentOffset: off, Size: size}
	}
	got := extentRuns([]proto.ExtentKey{
		key(1, 7, 20, 10), key(1, 7, 0, 10), key(1, 7, 10, 10), // touching, out of order
		key(1, 7, 40, 5), // gap at [30, 40)
		key(1, 8, 45, 5), // another extent
		key(2, 7, 45, 5), // another partition
		key(1, 7, 42, 8), // overlaps the run at 40
	})
	want := []proto.ExtentKey{key(1, 7, 0, 30), key(1, 7, 40, 10), key(1, 8, 45, 5), key(2, 7, 45, 5)}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("runs = %v, want %v", got, want)
	}
}

// TestRemoveKeepsNeighboursInSharedExtent: streamed files share their
// first block's aggregation extent with each other, so removing some of
// them must free only their own bytes - on every replica - and leave every
// byte of the survivors readable.
func TestRemoveKeepsNeighboursInSharedExtent(t *testing.T) {
	e := startEnv(t, MountOptions{})
	const size = 4 * 128 * util.KB
	files := make([][]byte, 8)
	for i := range files {
		files[i] = e.writeStreamed(t, fmt.Sprintf("/f%d", i), size, uint64(i+1))
	}
	_, used0 := e.storeTotals()
	for i := 0; i < len(files); i += 2 {
		if err := e.fs.Remove(fmt.Sprintf("/f%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	want := used0 - 3*size*uint64(len(files)/2)
	e.waitReleased(t, want)
	for i := 1; i < len(files); i += 2 {
		f, err := e.fs.Open(fmt.Sprintf("/f%d", i))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, size)
		_, err = io.ReadFull(f, got)
		f.Close()
		if err != nil {
			t.Fatalf("read /f%d after removing its neighbours: %v", i, err)
		}
		if !bytes.Equal(got, files[i]) {
			t.Fatalf("/f%d content changed by removing its neighbours", i)
		}
	}
	if _, used := e.storeTotals(); used != want {
		t.Fatalf("used bytes over all replicas = %d, want %d", used, want)
	}
}

// TestRenameOverReleasesReplacedContent: a rename onto an existing name
// drops the replaced file's last link, and its content goes with it from
// every replica, as a Remove's would.
func TestRenameOverReleasesReplacedContent(t *testing.T) {
	e := startEnv(t, MountOptions{})
	src := e.writeStreamed(t, "/src.bin", 128*util.KB, 1)
	e.writeStreamed(t, "/dst.bin", util.MB, 2)
	extents0, used0 := e.storeTotals()
	if err := e.fs.Rename("/src.bin", "/dst.bin"); err != nil {
		t.Fatal(err)
	}
	// The first 128 KiB is punched out of a shared extent, the file's own
	// extent is deleted: 1 MiB and at least one extent per replica.
	e.waitReleased(t, used0-3*util.MB)
	if extents, used := e.storeTotals(); used != used0-3*util.MB || extents > extents0-3 {
		t.Fatalf("after rename: %d extents, %d used bytes; want <= %d extents, %d bytes",
			extents, used, extents0-3, used0-3*util.MB)
	}
	f, err := e.fs.Open("/dst.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got := make([]byte, len(src)+1)
	if n, _ := io.ReadFull(f, got); n != len(src) || !bytes.Equal(got[:n], src) {
		t.Fatalf("renamed content: %d bytes, want the %d-byte source", n, len(src))
	}
}

func TestHardLink(t *testing.T) {
	e := startEnv(t, MountOptions{})
	f, _ := e.fs.Create("/orig")
	f.Write([]byte("shared"))
	f.Close()
	if err := e.fs.Link("/orig", "/alias"); err != nil {
		t.Fatal(err)
	}
	i1, _ := e.fs.Stat("/orig")
	i2, _ := e.fs.Stat("/alias")
	if i1.Inode != i2.Inode {
		t.Fatalf("link points at different inode: %d vs %d", i1.Inode, i2.Inode)
	}
	if i1.NLink != 2 {
		t.Fatalf("nlink = %d", i1.NLink)
	}
	// Removing one name keeps the inode alive.
	if err := e.fs.Remove("/orig"); err != nil {
		t.Fatal(err)
	}
	i3, err := e.fs.Stat("/alias")
	if err != nil || i3.NLink != 1 {
		t.Fatalf("after removing one link: %+v, %v", i3, err)
	}
	fr, err := e.fs.Open("/alias")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 6)
	io.ReadFull(fr, got)
	if string(got) != "shared" {
		t.Fatalf("content via surviving link = %q", got)
	}
	fr.Close()
}

func TestSymlink(t *testing.T) {
	e := startEnv(t, MountOptions{})
	f, _ := e.fs.Create("/target.txt")
	f.Close()
	if err := e.fs.Symlink("/target.txt", "/sym"); err != nil {
		t.Fatal(err)
	}
	got, err := e.fs.Readlink("/sym")
	if err != nil || got != "/target.txt" {
		t.Fatalf("readlink = %q, %v", got, err)
	}
}

func TestTruncate(t *testing.T) {
	e := startEnv(t, MountOptions{})
	f, _ := e.fs.Create("/t.bin")
	f.Write(bytes.Repeat([]byte("x"), 300*1024))
	f.Close()
	if err := e.fs.Truncate("/t.bin", 1000); err != nil {
		t.Fatal(err)
	}
	info, _ := e.fs.Stat("/t.bin")
	if info.Size != 1000 {
		t.Fatalf("size after truncate = %d", info.Size)
	}
}

func TestSeekSemantics(t *testing.T) {
	e := startEnv(t, MountOptions{})
	f, _ := e.fs.Create("/seek.bin")
	f.Write([]byte("0123456789"))
	if pos, _ := f.Seek(2, io.SeekStart); pos != 2 {
		t.Fatalf("SeekStart pos = %d", pos)
	}
	buf := make([]byte, 3)
	f.Read(buf)
	if string(buf) != "234" {
		t.Fatalf("read after seek = %q", buf)
	}
	if pos, _ := f.Seek(-2, io.SeekEnd); pos != 8 {
		t.Fatalf("SeekEnd pos = %d", pos)
	}
	if pos, _ := f.Seek(1, io.SeekCurrent); pos != 9 {
		t.Fatalf("SeekCurrent pos = %d", pos)
	}
	if _, err := f.Seek(-100, io.SeekStart); !errors.Is(err, util.ErrInvalidArgument) {
		t.Fatalf("negative seek: %v", err)
	}
	f.Close()
}

func TestSharedVolumeTwoClients(t *testing.T) {
	e := startEnv(t, MountOptions{})
	// Second client mounts the same volume (containers sharing files).
	fs2, err := Mount(e.nw, "master", "vol", MountOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Unmount()

	f, _ := e.fs.Create("/shared.txt")
	f.Write([]byte("written by client 1"))
	f.Close() // flushes extent keys to the meta node

	f2, err := fs2.Open("/shared.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 19)
	if _, err := io.ReadFull(f2, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "written by client 1" {
		t.Fatalf("client 2 read %q", got)
	}
	f2.Close()
}

func TestConcurrentFileCreation(t *testing.T) {
	e := startEnv(t, MountOptions{})
	e.fs.Mkdir("/conc")
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err := e.fs.Create(fmt.Sprintf("/conc/f%03d", i))
			if err != nil {
				errs <- err
				return
			}
			if _, err := f.Write([]byte("x")); err != nil {
				errs <- err
				return
			}
			errs <- f.Close()
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	ents, err := e.fs.ReadDir("/conc")
	if err != nil || len(ents) != 64 {
		t.Fatalf("readdir after concurrent creates: %d entries, %v", len(ents), err)
	}
}

func TestCreateDuplicateFails(t *testing.T) {
	e := startEnv(t, MountOptions{})
	f, _ := e.fs.Create("/dup")
	f.Close()
	_, err := e.fs.Create("/dup")
	if !errors.Is(err, util.ErrExist) {
		t.Fatalf("duplicate create: %v", err)
	}
	// The failed create's inode went onto the orphan list and gets
	// evicted (Figure 3a failure path).
	if n := e.fs.Client().Meta.OrphanCount(); n != 1 {
		t.Fatalf("orphan count = %d, want 1", n)
	}
	if n := e.fs.Client().Meta.EvictOrphans(); n != 1 {
		t.Fatalf("evicted = %d, want 1", n)
	}
}

func TestExtentRollAcrossPartitions(t *testing.T) {
	// With tiny extents, a large write must roll across extents (and
	// possibly partitions) transparently.
	nw := transport.NewMemory()
	clk := clock.NewManual(time.Now())
	m, err := master.Start(nw, master.Config{
		Addr: "master", ReplicaCount: 3, Clock: clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	m.WaitLeader(5 * time.Second)
	for i := 0; i < 3; i++ {
		mn, err := meta.Start(nw, meta.Config{
			Addr: fmt.Sprintf("mn%d", i), MasterAddr: "master",
			Clock: clk,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(mn.Close)
	}
	for i := 0; i < 3; i++ {
		dn, err := datanode.Start(nw, datanode.Config{
			Addr: fmt.Sprintf("dn%d", i), MasterAddr: "master",
			Dir: t.TempDir(), Clock: clk,
			ExtentSize: 256 * util.KB, // force rolling
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(dn.Close)
	}
	var resp proto.CreateVolumeResp
	if err := nw.Call("master", uint8(proto.OpMasterCreateVolume), &proto.CreateVolumeReq{
		Name: "vol", MetaPartitionCount: 1, DataPartitionCount: 4,
	}, &resp); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(nw, "master", "vol", MountOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Unmount()

	f, _ := fs.Create("/rolling.bin")
	data := make([]byte, util.MB) // 4x the extent size
	r := util.NewRand(7)
	for i := range data {
		data[i] = byte(r.Uint64())
	}
	n, err := f.Write(data)
	if err != nil || n != len(data) {
		t.Fatalf("rolling write = %d, %v", n, err)
	}
	f.Fsync()
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("content mismatch after extent rolling")
	}
	f.Close()

	// The file must span multiple extents.
	info, _ := fs.Stat("/rolling.bin")
	ino, err := fs.Client().Meta.InodeGet(info.Inode, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(ino.Extents) < 4 {
		t.Fatalf("file has %d extents, expected >= 4", len(ino.Extents))
	}
}

func TestClientCachesDisabledStillCorrect(t *testing.T) {
	e := startEnv(t, MountOptions{Client: client.Config{}.DisableCaches()})
	e.fs.Mkdir("/d")
	f, _ := e.fs.Create("/d/f")
	f.Write([]byte("no caches"))
	f.Close()
	infos, err := e.fs.ReadDirPlus("/d")
	if err != nil || len(infos) != 1 || infos[0].Size != 9 {
		t.Fatalf("uncached ReadDirPlus = %+v, %v", infos, err)
	}
}

func TestDataNodeFailureDuringWrite(t *testing.T) {
	e := startEnv(t, MountOptions{})
	f, _ := e.fs.Create("/resilient.bin")
	if _, err := f.Write(bytes.Repeat([]byte("a"), 256*1024)); err != nil {
		t.Fatal(err)
	}
	// Partition one data node mid-file. Every data partition's chain
	// includes it, so the in-flight window aborts - but the failure
	// report now makes the master DETACH the replica under a bumped
	// epoch instead of fencing the partition read-only, and the client
	// replays the uncommitted tail on the surviving replicas: the write
	// self-heals with no operator intervention and no silent loss. (The
	// leader's own report is async; the explicit reports below make the
	// reconfiguration deterministic for the test.)
	e.nw.Partition("dn2")
	var view proto.GetVolumeResp
	if err := e.nw.Call("master", uint8(proto.OpMasterGetVolume),
		&proto.GetVolumeReq{Name: "vol"}, &view); err != nil {
		t.Fatal(err)
	}
	for _, dp := range view.View.DataPartitions {
		if err := e.nw.Call("master", uint8(proto.OpMasterReportFailure),
			&proto.ReportFailureReq{PartitionID: dp.PartitionID, Addr: "dn2"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	_, werr := f.Write(bytes.Repeat([]byte("b"), 256*1024))
	if werr == nil {
		werr = f.Fsync()
	}
	if werr != nil {
		t.Fatalf("write did not self-heal around the detached replica: %v", werr)
	}
	// Nothing was lost: the whole file reads back through the survivors.
	got := make([]byte, 512*1024)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	want := append(bytes.Repeat([]byte("a"), 256*1024), bytes.Repeat([]byte("b"), 256*1024)...)
	if !bytes.Equal(got, want) {
		t.Fatal("content mismatch after replaying around the detached replica")
	}
	// Heal: writes keep working (the healed node re-attaches via the
	// master's maintenance scan; the failover tests cover that path).
	e.nw.Heal("dn2")
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		t.Fatalf("seek after heal: %v", err)
	}
	if _, err := f.Write(bytes.Repeat([]byte("c"), 128*1024)); err != nil {
		t.Fatalf("write after heal: %v", err)
	}
	if err := f.Fsync(); err != nil {
		t.Fatalf("fsync after heal: %v", err)
	}
	f.Close()
}

func TestMetaLeaderFailover(t *testing.T) {
	e := startEnv(t, MountOptions{})
	f, _ := e.fs.Create("/before-failover")
	f.Close()

	// Kill the meta node hosting the root partition's leader.
	var leaderAddr string
	for _, mn := range e.metas {
		if mn.IsLeader(e.rootMetaPartition()) {
			leaderAddr = mn.Addr()
		}
	}
	if leaderAddr == "" {
		t.Fatal("no meta leader found")
	}
	e.nw.Partition(leaderAddr)

	// The remaining replicas elect a new leader; client retries find it.
	deadline := time.Now().Add(10 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		f2, err := e.fs.Create("/after-failover")
		if err == nil {
			f2.Close()
			return
		}
		lastErr = err
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("create never succeeded after meta failover: %v", lastErr)
}

func (e *testEnv) rootMetaPartition() uint64 {
	var resp proto.GetVolumeResp
	e.nw.Call("master", uint8(proto.OpMasterGetVolume), &proto.GetVolumeReq{Name: "vol"}, &resp)
	for _, mp := range resp.View.MetaPartitions {
		if mp.Start <= proto.RootInodeID && proto.RootInodeID <= mp.End {
			return mp.PartitionID
		}
	}
	return 0
}

// TestStreamedWriteReadYourWrites: appends ride the pipelined window, yet
// a read through the same handle - before any Fsync - settles the window
// first and sees every written byte (the read-after-write flush point).
func TestStreamedWriteReadYourWrites(t *testing.T) {
	e := startEnv(t, MountOptions{})
	f, err := e.fs.Create("/ryw.bin")
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 600*1024) // several packets in flight
	r := util.NewRand(41)
	for i := range data {
		data[i] = byte(r.Uint64())
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read-after-write mismatch with in-flight window")
	}
	// Seek settles the window too: SeekEnd lands on the committed size.
	if pos, err := f.Seek(0, io.SeekEnd); err != nil || pos != int64(len(data)) {
		t.Fatalf("SeekEnd = %d, %v", pos, err)
	}
	// More appends after the flush reuse the same session.
	if _, err := f.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := e.fs.Stat("/ryw.bin")
	if err != nil || info.Size != uint64(len(data))+4 {
		t.Fatalf("final size = %d, %v", info.Size, err)
	}
}

// TestStreamedWriteConcurrentReaders: readers racing an in-flight append
// observe only settled bytes - never uncommitted garbage - because every
// read flushes the window under the file lock.
func TestStreamedWriteConcurrentReaders(t *testing.T) {
	e := startEnv(t, MountOptions{})
	f, err := e.fs.Create("/race.bin")
	if err != nil {
		t.Fatal(err)
	}
	const chunks = 8
	chunk := bytes.Repeat([]byte("0123456789abcdef"), 8*1024) // 128 KB
	stop := make(chan struct{})
	readErrs := make(chan error, 1)
	go func() {
		defer close(readErrs)
		buf := make([]byte, len(chunk))
		for {
			select {
			case <-stop:
				return
			default:
			}
			n, err := f.ReadAt(buf, 0)
			if err != nil && err != io.EOF {
				readErrs <- err
				return
			}
			// Any byte the reader sees must match the deterministic
			// pattern; uncommitted or torn data would break it.
			for i := 0; i < n; i++ {
				if buf[i] != chunk[i%len(chunk)] {
					readErrs <- fmt.Errorf("byte %d = %q, want %q", i, buf[i], chunk[i%len(chunk)])
					return
				}
			}
		}
	}()
	for i := 0; i < chunks; i++ {
		if _, err := f.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-readErrs; err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamedWriteReadAfterWindowDrains: regression for the Idle() fast
// path. Once every ack has drained (pending empty) the committed keys
// still sit uncollected in the writer; a read must NOT skip the flush, or
// it sees a hole (zeros) where the data landed.
func TestStreamedWriteReadAfterWindowDrains(t *testing.T) {
	e := startEnv(t, MountOptions{})
	f, err := e.fs.Create("/drained.bin")
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("x"), 256*1024)
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	// Give the ack collector time to drain the whole window.
	time.Sleep(50 * time.Millisecond)
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		for i := range got {
			if got[i] != data[i] {
				t.Fatalf("first mismatch at byte %d: got %q want %q", i, got[i], data[i])
			}
		}
	}
	f.Close()
}

// TestWriteResumesAfterIdleSessionRetire: the session pool retires
// sessions whose writers go quiet, and a dormant File's next write must
// transparently reopen on a fresh session (retriable ErrStale), not
// hard-fail on a healthy cluster.
func TestWriteResumesAfterIdleSessionRetire(t *testing.T) {
	e := startEnv(t, MountOptions{Client: client.Config{
		KeepaliveInterval: 20 * time.Millisecond, // retire after ~240ms idle
	}})
	f, err := e.fs.Create("/pause.bin")
	if err != nil {
		t.Fatal(err)
	}
	first := bytes.Repeat([]byte("a"), 200*1024)
	if _, err := f.Write(first); err != nil {
		t.Fatal(err)
	}
	if err := f.Fsync(); err != nil {
		t.Fatal(err)
	}
	// Outlast the idle-retire threshold with margin.
	time.Sleep(600 * time.Millisecond)
	second := bytes.Repeat([]byte("b"), 200*1024)
	if _, err := f.Write(second); err != nil {
		t.Fatalf("write after idle retirement: %v", err)
	}
	if err := f.Fsync(); err != nil {
		t.Fatalf("fsync after idle retirement: %v", err)
	}
	got := make([]byte, len(first)+len(second))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:len(first)], first) || !bytes.Equal(got[len(first):], second) {
		t.Fatal("content mismatch across the retirement pause")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamedReadInvalidatedByOverwrite is the readahead read-your-writes
// regression: a sequential read warms the cross-ReadAt readahead buffer,
// then an in-place overwrite mutates bytes the buffer already prefetched.
// The next read must observe the NEW bytes - the write path invalidates
// the reader - not the stale prefetch.
func TestStreamedReadInvalidatedByOverwrite(t *testing.T) {
	e := startEnv(t, MountOptions{})
	f, err := e.fs.Create("/ryw-read.bin")
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("A"), 512*1024)
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	// Warm the readahead: reading the head prefetches well past it.
	head := make([]byte, 128*1024)
	if _, err := f.ReadAt(head, 0); err != nil {
		t.Fatal(err)
	}
	// Overwrite a range the prefetch has likely already buffered.
	patch := bytes.Repeat([]byte("B"), 64*1024)
	if _, err := f.WriteAt(patch, 200*1024); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		want := byte('A')
		if i >= 200*1024 && i < 264*1024 {
			want = 'B'
		}
		if got[i] != want {
			t.Fatalf("byte %d = %q, want %q (stale readahead served)", i, got[i], want)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
