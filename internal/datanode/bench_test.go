package datanode

import (
	"syscall"
	"testing"
	"time"

	"cfs/internal/proto"
	"cfs/internal/util"
)

// BenchmarkReadStream measures the read server per 128 KiB block: one
// data node, one read session and a closed-loop reader that keeps
// util.DefaultReadWindow whole-block requests in flight and checks each
// reply's CRC, as the client's reader does. stored blocks carry the sum
// the store kept on ingest (on TCP they go out with sendfile); overwritten
// blocks have none, so the server reads them into a chunk and checksums
// them. Besides latency it reports the process CPU (user+sys, getrusage)
// and allocations per block, client and server together.
func BenchmarkReadStream(b *testing.B) {
	for _, fabric := range []string{"mem", "tcp"} {
		for _, row := range []string{"stored", "overwritten"} {
			b.Run(fabric+"/"+row, func(b *testing.B) { benchmarkReadStream(b, fabric, row) })
		}
	}
}

func benchmarkReadStream(b *testing.B, fabric, row string) {
	if fabric == "mem" {
		fabric = "memory"
	}
	tc := startClusterOn(b, 1, fabric, nil)
	tc.createPartition(b, 100)
	eid := tc.createExtent(b, 100)
	const blocks = 64 // 8 MiB, well inside the page cache
	payload := make([]byte, block)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	for i := 0; i < blocks; i++ {
		tc.append(b, 100, eid, payload)
	}
	if row == "overwritten" {
		p := tc.nodes[0].Partition(100)
		for i := uint64(0); i < blocks; i++ {
			if err := p.store.WriteAt(eid, i*block, payload); err != nil {
				b.Fatal(err)
			}
		}
	}
	st := tc.openReadStream(b, tc.leaderAddr())
	send := func(i int) {
		if err := st.Send(&proto.Packet{
			Op: proto.OpDataRead, ReqID: uint64(i + 1), PartitionID: 100, ExtentID: eid,
			ExtentOffset: uint64(i%blocks) * block, FileOffset: block,
		}); err != nil {
			b.Fatal(err)
		}
	}
	recv := func() {
		f, err := st.Recv()
		if err != nil {
			b.Fatal(err)
		}
		if f.ResultCode != proto.ResultOK || !f.VerifyCRC() || len(f.Data) != block {
			b.Fatalf("reply: rc=%d, %d bytes, crc ok %v", f.ResultCode, len(f.Data), f.VerifyCRC())
		}
		f.Release()
	}
	const depth = util.DefaultReadWindow
	run := func(n int) {
		for i := 0; i < n; i++ {
			if i >= depth {
				recv()
			}
			send(i)
		}
		for i := max(0, n-depth); i < n; i++ {
			recv()
		}
	}
	run(2 * blocks) // warm: page cache, pools, session
	b.ReportAllocs()
	b.SetBytes(block)
	cpu0 := cpuTime()
	b.ResetTimer()
	run(b.N)
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/n, "us/block")
	b.ReportMetric(float64((cpuTime()-cpu0).Nanoseconds())/1e3/n, "cpu_us/block")
}

// cpuTime is the CPU time (user+sys) the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
