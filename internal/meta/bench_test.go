package meta

import (
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
