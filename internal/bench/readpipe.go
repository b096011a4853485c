// The read-pipeline experiment: fio-style read throughput (the SeqRead /
// RandRead patterns of Figures 8-9) against the readahead window, on the
// same 3-replica in-memory cluster with emulated network latency. Every
// SeqRead row rides OpDataReadStream sessions with committed-clamped
// follower offload; the baseline is the window pinned at 1 - one request
// per round trip, bounded by block_size/RTT like a per-block Call - so
// readahead is expected to buy a multiple-x win on sequential scans as
// soon as the window covers the bandwidth-delay product. Random 4 KB reads
// have no contiguity to prefetch; core.File routes them over unary
// one-round-trip Calls whatever the window, so they get one row. Each row
// also records heap allocations per block - the streamed path reads into
// pooled chunk buffers recycled by the client.
package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"cfs/internal/client"
	"cfs/internal/cluster"
	"cfs/internal/util"
)

// ReadPipeNumbers carries the raw results for assertions, keyed by row
// label, plus "<label>-allocs" (allocs/op) and "<label>-kb" (alloc KB/op).
type ReadPipeNumbers map[string]float64

// RunReadPipeline measures read MB/s for a sweep of readahead windows
// starting at the window=1 baseline, the default window, and random
// reads. Every configuration reads the same file through a fresh client
// mount on its own cluster (identical topology, latency, and layout), so
// the only variable is the window.
func RunReadPipeline(s Scale) (*Table, ReadPipeNumbers, error) {
	total := 8 * util.MB
	if s.MaxProcs >= 64 {
		total = 32 * util.MB
	}
	nums := make(ReadPipeNumbers)
	table := &Table{
		Title: fmt.Sprintf("Read pipeline: fio read patterns, 3 replicas, %v emulated latency, %s file",
			s.Latency, sizeLabel(uint64(total))),
		Header: []string{"mode", "MB/s", "speedup", "allocs/op", "alloc KB/op"},
	}
	modes := []struct {
		label string
		rand  bool
		cfg   client.Config
	}{
		{"SeqRead window=1", false, client.Config{ReadWindow: 1}},
		{"SeqRead window=4", false, client.Config{ReadWindow: 4}},
		{"SeqRead window=8", false, client.Config{ReadWindow: 8}},
		{"SeqRead streamed(default)", false, client.Config{}},
		{"RandRead", true, client.Config{}},
	}
	for _, m := range modes {
		mbps, allocs, kb, err := measureReadThroughput(s, total, m.rand, m.cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", m.label, err)
		}
		nums[m.label] = mbps
		nums[m.label+"-allocs"] = allocs
		nums[m.label+"-kb"] = kb
	}
	for _, m := range modes {
		speedup := "-" // random reads have no window to compare against
		if base := nums["SeqRead window=1"]; !m.rand && base > 0 {
			speedup = fmt.Sprintf("%.2fx", nums[m.label]/base)
		}
		table.Rows = append(table.Rows, []string{
			m.label,
			fmt.Sprintf("%.1f", nums[m.label]),
			speedup,
			fmt.Sprintf("%.0f", nums[m.label+"-allocs"]),
			fmt.Sprintf("%.0f", nums[m.label+"-kb"]),
		})
	}
	return table, nums, nil
}

// measureReadThroughput lays a file out (unmeasured), warms the read path
// with one full pass (sessions dialed, leader caches filled, committed
// gossip landed - the steady state Figures 8-9 measure), then times a
// second pass and samples heap counters around it.
func measureReadThroughput(s Scale, total int, random bool, cfg client.Config) (mbps, allocsPerOp, kbPerOp float64, err error) {
	f, err := SetupCFS(CFSOptions{
		Options:        cluster.Options{Fabric: s.Transport},
		DataPartitions: 4,
		NetworkLatency: s.Latency,
		Client:         cfg,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	sys, err := f.NewClient()
	if err != nil {
		return 0, 0, 0, err
	}
	fh, err := sys.Create("/readpipe.bin")
	if err != nil {
		return 0, 0, 0, err
	}
	chunk := bytes.Repeat([]byte("r"), util.MB)
	for off := 0; off < total; off += len(chunk) {
		if err := fh.WriteAt(uint64(off), chunk); err != nil {
			return 0, 0, 0, err
		}
	}
	if err := fh.Close(); err != nil {
		return 0, 0, 0, err
	}
	rh, err := sys.Open("/readpipe.bin")
	if err != nil {
		return 0, 0, 0, err
	}
	defer rh.Close()
	block := 128 * util.KB
	buf := make([]byte, block)
	for off := 0; off < total; off += block { // warm pass, unmeasured
		if err := rh.ReadAt(uint64(off), buf); err != nil {
			return 0, 0, 0, err
		}
	}

	ops, read := 0, 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if random {
		rbuf := make([]byte, 4*util.KB)
		r := util.NewRand(0xF10)
		blocks := int64(total / len(rbuf))
		for i := 0; i < 256; i++ {
			off := uint64(r.Int63n(blocks)) * uint64(len(rbuf))
			if err := rh.ReadAt(off, rbuf); err != nil {
				return 0, 0, 0, err
			}
			ops++
			read += len(rbuf)
		}
	} else {
		for off := 0; off < total; off += block {
			if err := rh.ReadAt(uint64(off), buf); err != nil {
				return 0, 0, 0, err
			}
			ops++
			read += block
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	mbps = float64(read) / util.MB / elapsed.Seconds()
	allocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(ops)
	kbPerOp = float64(after.TotalAlloc-before.TotalAlloc) / float64(ops) / util.KB
	return mbps, allocsPerOp, kbPerOp, nil
}
