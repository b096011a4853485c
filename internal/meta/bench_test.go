package meta

import (
	"encoding/binary"
	"fmt"
	"syscall"
	"testing"
	"time"

	"cfs/internal/proto"
)

// BenchmarkMetaRPC measures one metadata RPC as a client sees it: three
// meta nodes, one partition, one closed-loop caller on the leader over
// the transport, on the Memory fabric and on TCP loopback. lookup and
// inodeget are leader-memory reads (the handler's leadership gate, then a
// btree get); create is one Raft commit as well. Besides latency it
// reports the process CPU (user+sys, getrusage) and allocations per RPC.
func BenchmarkMetaRPC(b *testing.B) {
	for _, fabric := range []string{"mem", "tcp"} {
		for _, op := range []string{"lookup", "inodeget", "create"} {
			b.Run(fabric+"/"+op, func(b *testing.B) { benchmarkMetaRPC(b, fabric, op) })
		}
	}
}

func benchmarkMetaRPC(b *testing.B, fabric, op string) {
	mc := startMetaClusterOn(b, fabric, 3)
	leader := mc.createPartition(b, 1, 1, 1<<40)
	dir := mc.createInode(b, leader, 1, proto.TypeDir)
	file := mc.createInode(b, leader, 1, proto.TypeFile)
	if err := mc.nw.Call(leader, uint8(proto.OpMetaCreateDentry), &proto.CreateDentryReq{
		PartitionID: 1, ParentID: dir.Inode, Name: "f", Inode: file.Inode, Type: proto.TypeFile,
	}, &proto.CreateDentryResp{}); err != nil {
		b.Fatal(err)
	}
	var call func() error
	switch op {
	case "lookup":
		req := &proto.LookupReq{PartitionID: 1, ParentID: dir.Inode, Name: "f"}
		call = func() error { return mc.nw.Call(leader, uint8(proto.OpMetaLookup), req, &proto.LookupResp{}) }
	case "inodeget":
		req := &proto.InodeGetReq{PartitionID: 1, Inode: file.Inode}
		call = func() error { return mc.nw.Call(leader, uint8(proto.OpMetaInodeGet), req, &proto.InodeGetResp{}) }
	case "create":
		req := &proto.CreateInodeReq{PartitionID: 1, Type: proto.TypeFile}
		call = func() error { return mc.nw.Call(leader, uint8(proto.OpMetaCreateInode), req, &proto.CreateInodeResp{}) }
	default:
		b.Fatalf("unknown op %q", op)
	}
	if err := call(); err != nil {
		b.Fatalf("warm-up %s: %v", op, err)
	}
	b.ReportAllocs()
	cpu0 := cpuTime()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := call(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/n, "us/op")
	b.ReportMetric(float64((cpuTime()-cpu0).Nanoseconds())/1e3/n, "cpu_us/op")
}

// cpuTime is the CPU time (user+sys) the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// BenchmarkAppendExtentKeys appends one extent key per op to one inode
// through the apply path, as a file streamed in 128 KiB packets does. An
// apply puts a changed copy of the inode and appends into the key slice's
// spare capacity, so ns/op must not grow with the key count: compare
// -benchtime 1000x with 10000x.
func BenchmarkAppendExtentKeys(b *testing.B) {
	p := NewPartition(1, "vol", 1, 1000, nil)
	newInode(b, p, proto.TypeDir)
	file := newInode(b, p, proto.TypeFile)
	const size = 128 << 10
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := uint64(i) * size
		mustApply(b, p, proto.OpMetaAppendExtentKeys, &proto.AppendExtentKeysReq{Inode: file.Inode, Size: off + size,
			Extents: []proto.ExtentKey{{PartitionID: 1, ExtentID: 7, ExtentOffset: off, FileOffset: off, Size: size}}})
	}
}

// BenchmarkSnapshot encodes and restores one partition of 50 000 inodes,
// each a file with one dentry and one extent key: what a metanode does
// per partition every snapshot interval, and a follower when Raft sends it
// the state. It reports the snapshot's size. It builds the partition
// through Apply with hand-made entries and uses no unexported name, so it
// measures any snapshot encoding behind Snapshot and Restore.
func BenchmarkSnapshot(b *testing.B) {
	const files = 50_000
	p := NewPartition(1, "vol", 1, 1<<40, []string{"mn0", "mn1", "mn2"})
	var index uint64
	apply := func(op proto.Op, req any) any {
		index++
		// An entry is the op, the proposer's time and the request's body.
		entry := binary.LittleEndian.AppendUint64([]byte{byte(op)}, 1_760_000_000_000_000_000+index)
		entry, _ = proto.AppendMeta(entry, op, false, req)
		out, err := p.Apply(index, entry)
		if err != nil {
			b.Fatal(err)
		}
		return out
	}
	apply(proto.OpMetaCreateInode, &proto.CreateInodeReq{Type: proto.TypeDir})
	for i := range files {
		ino := apply(proto.OpMetaCreateInode, &proto.CreateInodeReq{Type: proto.TypeFile}).(*proto.CreateInodeResp).Info.Inode
		apply(proto.OpMetaCreateDentry, &proto.CreateDentryReq{ParentID: proto.RootInodeID,
			Name: fmt.Sprintf("file-%06d", i), Inode: ino, Type: proto.TypeFile})
		apply(proto.OpMetaAppendExtentKeys, &proto.AppendExtentKeysReq{Inode: ino, Size: 4096,
			Extents: []proto.ExtentKey{{PartitionID: 7, ExtentID: uint64(i/64 + 1), ExtentOffset: uint64(i%64) * 4096,
				Size: 4096, CRC: uint32(i) * 2654435761}}})
	}
	data, err := p.Snapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := p.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(data)), "snap_bytes")
	})
	b.Run("restore", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if err := NewPartition(1, "vol", 1, 0, nil).Restore(data); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(data)), "snap_bytes")
	})
}
