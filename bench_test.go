package cfs

// Benchmarks regenerating every table and figure in the paper's
// evaluation (Section 4), plus ablations for the design choices called
// out in DESIGN.md Section 7. Each benchmark iteration runs one full
// experiment at the CI scale; `cmd/cfs-bench -scale paper` runs the same
// experiments at the paper-shaped scale and prints the tables.

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"cfs/internal/bench"
	"cfs/internal/client"
	"cfs/internal/util"
)

func benchScale() bench.Scale {
	s := bench.Quick()
	s.MaxClients = 2
	s.MaxProcs = 8
	s.Items = 8
	return s
}

func BenchmarkTable3_MetadataOps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		table, _, err := bench.RunTable3(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + table.Render())
		}
	}
}

func BenchmarkFig6_SingleClientMeta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		table, _, err := bench.RunFig6(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + table.Render())
		}
	}
}

func BenchmarkFig7_MultiClientMeta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		table, _, err := bench.RunFig7(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + table.Render())
		}
	}
}

func BenchmarkFig8_SingleClientLargeFile(b *testing.B) {
	s := benchScale()
	s.MaxProcs = 4
	for i := 0; i < b.N; i++ {
		table, _, err := bench.RunFig8(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + table.Render())
		}
	}
}

func BenchmarkFig9_MultiClientLargeFile(b *testing.B) {
	s := benchScale()
	for i := 0; i < b.N; i++ {
		table, _, err := bench.RunFig9(s)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + table.Render())
		}
	}
}

func BenchmarkFig10_SmallFiles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		table, _, err := bench.RunFig10(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + table.Render())
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md Section 7).

// BenchmarkAblation_AppendRaftVsPrimaryBackup quantifies scenario-aware
// replication (Section 2.2.4): sequential appends ride primary-backup
// while overwrites ride Raft; the gap between the two sub-benchmarks is
// the price CFS avoids paying on the (dominant) append path.
func BenchmarkAblation_AppendRaftVsPrimaryBackup(b *testing.B) {
	f, err := bench.SetupCFS(bench.CFSOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	sys, err := f.NewClient()
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.MkdirAll("/ablate"); err != nil {
		b.Fatal(err)
	}
	block := make([]byte, 128*util.KB)

	// The harness re-invokes sub-benchmark bodies with growing b.N, so
	// every invocation needs a distinct file name.
	var runSeq atomic.Uint64
	b.Run("append-primary-backup", func(b *testing.B) {
		h, err := sys.Create(fmt.Sprintf("/ablate/pb-%d.bin", runSeq.Add(1)))
		if err != nil {
			b.Fatal(err)
		}
		defer h.Close()
		b.SetBytes(int64(len(block)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := h.WriteAt(uint64(i)*uint64(len(block)), block); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("overwrite-raft", func(b *testing.B) {
		h, err := sys.Create(fmt.Sprintf("/ablate/raft-%d.bin", runSeq.Add(1)))
		if err != nil {
			b.Fatal(err)
		}
		defer h.Close()
		// Preallocate a region, then overwrite it in place repeatedly.
		const region = 64
		for i := 0; i < region; i++ {
			if err := h.WriteAt(uint64(i)*uint64(len(block)), block); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(block)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			off := uint64(i%region) * uint64(len(block))
			if err := h.WriteAt(off, block); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMultiRaft_HeartbeatScaling measures the MultiRaft win directly
// (Section 2.1.2): idle heartbeat wire messages per logical tick on a
// 3-node cluster as the group count triples twice. Coalescing holds the
// wire rate at O(node pairs) - the hb-msgs-per-tick metrics stay flat
// while beats-per-tick (the uncoalesced cost) grows 9x.
func BenchmarkMultiRaft_HeartbeatScaling(b *testing.B) {
	counts := []int{8, 24, 72}
	for i := 0; i < b.N; i++ {
		table, points, err := bench.RunHeartbeatScaling(counts, 300*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + table.Render())
		}
		first, last := points[0], points[len(points)-1]
		b.ReportMetric(first.BatchesPerTick, "hb-msgs/tick@8g")
		b.ReportMetric(last.BatchesPerTick, "hb-msgs/tick@72g")
		b.ReportMetric(last.BeatsPerTick, "beats/tick@72g")
		growth := 0.0
		if first.BatchesPerTick > 0 {
			growth = (last.BatchesPerTick - first.BatchesPerTick) / first.BatchesPerTick * 100
		}
		b.ReportMetric(growth, "hb-msg-growth-%")
	}
}

// BenchmarkAblation_SmallFileAggregation compares aggregated small-file
// writes (shared extents + punch-hole deletes, Section 2.2.3) against
// forcing every file into its own extent (threshold 0).
func BenchmarkAblation_SmallFileAggregation(b *testing.B) {
	for _, mode := range []struct {
		name string
		cfg  client.Config
	}{
		{"aggregated", client.Config{}},
		{"extent-per-file", client.Config{SmallFileThreshold: 1}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			f, err := bench.SetupCFS(bench.CFSOptions{Client: mode.cfg})
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			sys, err := f.NewClient()
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.MkdirAll("/imgs"); err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, 8*util.KB)
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h, err := sys.Create(fmt.Sprintf("/imgs/p%06d", i))
				if err != nil {
					b.Fatal(err)
				}
				if err := h.WriteAt(0, payload); err != nil {
					b.Fatal(err)
				}
				if err := h.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEndToEnd_CreateWriteReadRemove is the whole-stack sanity bench:
// one full file lifecycle per iteration on a live cluster.
func BenchmarkEndToEnd_CreateWriteReadRemove(b *testing.B) {
	nwf, err := bench.SetupCFS(bench.CFSOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer nwf.Close()
	sys, err := nwf.NewClient()
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.MkdirAll("/life"); err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 64*util.KB)
	buf := make([]byte, len(payload))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := fmt.Sprintf("/life/f%08d", i)
		h, err := sys.Create(p)
		if err != nil {
			b.Fatal(err)
		}
		if err := h.WriteAt(0, payload); err != nil {
			b.Fatal(err)
		}
		if err := h.ReadAt(0, buf); err != nil {
			b.Fatal(err)
		}
		if err := h.Close(); err != nil {
			b.Fatal(err)
		}
		if err := sys.Remove(p); err != nil {
			b.Fatal(err)
		}
	}
}
