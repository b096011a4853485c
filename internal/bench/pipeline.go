// The write-pipeline experiment: sequential-append throughput against the
// in-flight window size, on the same 3-replica in-memory cluster with
// emulated network latency. Every row streams packets through
// OpDataWriteStream replication sessions; the baseline is the window
// pinned at 1 - one packet per round trip, Figure 4 run literally, i.e.
// stop-and-wait (the client has no other write path; the per-packet Call
// chain this row measured before PR 13 is recorded in EXPERIMENTS.md).
// Since stop-and-wait throughput is bounded by packet_size/(RTT x hops),
// the window is expected to buy a multiple-x win as soon as it covers the
// bandwidth-delay product.
package bench

import (
	"bytes"
	"fmt"
	"time"

	"cfs/internal/client"
	"cfs/internal/cluster"
	"cfs/internal/util"
)

// PipelineNumbers carries the raw throughputs for assertions, keyed by
// label.
type PipelineNumbers map[string]float64

// RunWritePipeline measures sequential-write MB/s for a sweep of window
// sizes starting at the window=1 stop-and-wait baseline. Every
// configuration writes the same total bytes through a fresh client mount
// on its own cluster (identical topology and latency), so the only
// variable is the window.
func RunWritePipeline(s Scale) (*Table, PipelineNumbers, error) {
	total := 8 * util.MB
	if s.MaxProcs >= 64 {
		total = 32 * util.MB
	}
	windows := []int{2, 4, 8, 16}
	nums := make(PipelineNumbers)
	table := &Table{
		Title:  fmt.Sprintf("Write pipeline: sequential append MB/s, 3 replicas, %v emulated latency, %s total", s.Latency, sizeLabel(uint64(total))),
		Header: []string{"mode", "MB/s", "speedup"},
	}

	baseline, err := measureWriteThroughput(s, total, client.Config{WriteWindow: 1})
	if err != nil {
		return nil, nil, fmt.Errorf("stop-and-wait baseline: %w", err)
	}
	nums["stop-and-wait"] = baseline
	nums["window=1"] = baseline // the same configuration under its sweep name
	table.Rows = append(table.Rows, []string{"stop-and-wait", fmt.Sprintf("%.1f", baseline), "1.00x"})

	for _, w := range windows {
		mbps, err := measureWriteThroughput(s, total, client.Config{WriteWindow: w})
		if err != nil {
			return nil, nil, fmt.Errorf("window %d: %w", w, err)
		}
		label := fmt.Sprintf("window=%d", w)
		nums[label] = mbps
		table.Rows = append(table.Rows, []string{
			label, fmt.Sprintf("%.1f", mbps), fmt.Sprintf("%.2fx", mbps/baseline),
		})
	}

	return table, nums, nil
}

func measureWriteThroughput(s Scale, total int, cfg client.Config) (float64, error) {
	f, err := SetupCFS(CFSOptions{
		Options:        cluster.Options{Fabric: s.Transport},
		DataPartitions: 4,
		NetworkLatency: s.Latency,
		Client:         cfg,
	})
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sys, err := f.NewClient()
	if err != nil {
		return 0, err
	}
	fh, err := sys.Create("/pipeline.bin")
	if err != nil {
		return 0, err
	}
	chunk := bytes.Repeat([]byte("w"), util.MB)
	start := time.Now()
	for off := 0; off < total; off += len(chunk) {
		if err := fh.WriteAt(uint64(off), chunk); err != nil {
			return 0, err
		}
	}
	// Close settles the in-flight window; it is part of the measured
	// interval so pipelined rows pay for their unacked tail.
	if err := fh.Close(); err != nil {
		return 0, err
	}
	elapsed := time.Since(start)
	return float64(total) / util.MB / elapsed.Seconds(), nil
}

func sizeLabel(n uint64) string {
	switch {
	case n >= util.GB:
		return fmt.Sprintf("%d GB", n/util.GB)
	case n >= util.MB:
		return fmt.Sprintf("%d MB", n/util.MB)
	default:
		return fmt.Sprintf("%d KB", n/util.KB)
	}
}
