// The small-file session experiment: files-per-second through
// DataClient.WriteSmallFile, which rides the per-partition pooled
// replication session, and how many stream dials the run paid. The pool's
// win is that dials stay constant instead of growing with the file count;
// the fresh-dial-per-file baseline it was measured against (2.44x, PR 3)
// left with the dedicated-session path and is recorded in EXPERIMENTS.md.
// The Memory transport charges every packet-stream dial one emulated
// handshake round trip; Dials() counts how many a run paid.
package bench

import (
	"fmt"
	"time"

	"cfs/internal/client"
	"cfs/internal/cluster"
	"cfs/internal/util"
)

// SmallFileNumbers carries the raw results for assertions: "pooled"
// (files/s) and "pooled-dials".
type SmallFileNumbers map[string]float64

// RunSmallFileSessions measures small-file write throughput and the
// stream dials it cost. Latency is floored at a TCP-style 2ms one-way
// delay: the pool's whole point is links where a handshake costs real
// time.
func RunSmallFileSessions(s Scale) (*Table, SmallFileNumbers, error) {
	if s.Latency < 2*time.Millisecond {
		s.Latency = 2 * time.Millisecond
	}
	files := 100
	if s.MaxProcs >= 64 {
		files = 400
	}
	payload := make([]byte, 4*util.KB)
	for i := range payload {
		payload[i] = byte(i)
	}
	f, err := SetupCFS(CFSOptions{
		Options:        cluster.Options{Fabric: s.Transport},
		DataPartitions: 2,
		NetworkLatency: s.Latency,
	})
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	c, err := client.Mount(f.c.Net(), f.c.MasterAddr(), "bench", client.Config{})
	if err != nil {
		return nil, nil, err
	}
	defer c.Close()
	start := time.Now()
	for i := 0; i < files; i++ {
		if _, err := c.Data.WriteSmallFile(0, payload); err != nil {
			return nil, nil, fmt.Errorf("file %d: %w", i, err)
		}
	}
	fps := float64(files) / time.Since(start).Seconds()
	dials := float64(f.StreamDials())
	table := &Table{
		Title:  fmt.Sprintf("Small-file sessions: %d x 4 KB files, 3 replicas, %v emulated latency (dials pay one handshake)", files, s.Latency),
		Header: []string{"mode", "files/s", "stream dials"},
		Rows:   [][]string{{"pooled", fmt.Sprintf("%.0f", fps), fmt.Sprintf("%.0f", dials)}},
	}
	return table, SmallFileNumbers{"pooled": fps, "pooled-dials": dials}, nil
}
