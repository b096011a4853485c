package bench

import (
	"testing"
	"time"

	"cfs/internal/util"
)

// tiny returns the smallest scale that still exercises every phase. The
// non-zero latency matters: the systems' comparative shapes come from RPC
// counts and queueing, which a zero-latency loopback would erase.
func tiny() Scale {
	return Scale{
		MaxClients:  2,
		MaxProcs:    8,
		Items:       8,
		FIOFileSize: 512 * util.KB,
		SmallFiles:  3,
		Latency:     100 * time.Microsecond,
		TreeDepth:   1,
		TreeFanout:  2,
	}
}

func TestMDTestRunsOnCFS(t *testing.T) {
	f, err := SetupCFS(CFSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, err := RunMDTest(f, MDTestParams{Clients: 2, ProcsPerClient: 2, ItemsPerProc: 4, TreeDepth: 1, TreeFanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range MDTestOps {
		if res[op] <= 0 {
			t.Fatalf("op %s IOPS = %v", op, res[op])
		}
	}
}

func TestMDTestRunsOnCeph(t *testing.T) {
	f, err := SetupCeph(CephOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, err := RunMDTest(f, MDTestParams{Clients: 2, ProcsPerClient: 2, ItemsPerProc: 4, TreeDepth: 1, TreeFanout: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range MDTestOps {
		if res[op] <= 0 {
			t.Fatalf("op %s IOPS = %v", op, res[op])
		}
	}
}

func TestFIORunsAllPatternsBothSystems(t *testing.T) {
	cfs, err := SetupCFS(CFSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cfs.Close()
	ceph, err := SetupCeph(CephOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ceph.Close()
	for _, factory := range []Factory{cfs, ceph} {
		for _, pattern := range IOPatterns {
			iops, err := RunFIO(factory, pattern, FIOParams{
				Clients: 1, ProcsPerClient: 2,
				FileSize: 512 * util.KB, OpsPerProc: 16,
			})
			if err != nil {
				t.Fatalf("%s %s: %v", factory.Name(), pattern, err)
			}
			if iops <= 0 {
				t.Fatalf("%s %s IOPS = %v", factory.Name(), pattern, iops)
			}
		}
	}
}

func TestSmallFilesBothSystems(t *testing.T) {
	cfs, err := SetupCFS(CFSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cfs.Close()
	ceph, err := SetupCeph(CephOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ceph.Close()
	for _, factory := range []Factory{cfs, ceph} {
		res, err := RunSmallFiles(factory, SmallFileParams{
			Clients: 2, ProcsPerClient: 2, FilesPerProc: 3, FileSize: 4 * util.KB,
		})
		if err != nil {
			t.Fatalf("%s: %v", factory.Name(), err)
		}
		for _, phase := range []SmallFileOp{SmallWrite, SmallRead, SmallRemoval} {
			if res[phase] <= 0 {
				t.Fatalf("%s %s IOPS = %v", factory.Name(), phase, res[phase])
			}
		}
	}
}

func TestTable3TinyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	table, nums, err := RunTable3(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != len(MDTestOps) {
		t.Fatalf("table has %d rows", len(table.Rows))
	}
	// Headline shape: at max concurrency CFS beats the baseline on
	// DirStat (batch inode get is a structural advantage at any scale).
	if nums.CFS[DirStat] <= nums.Ceph[DirStat] {
		t.Errorf("DirStat: CFS %.0f <= Ceph %.0f (expected CFS win)",
			nums.CFS[DirStat], nums.Ceph[DirStat])
	}
	t.Log("\n" + table.Render())
}

func TestScaleSweepBounds(t *testing.T) {
	got := scaleSweep([]int{1, 4, 16, 64}, 8)
	if len(got) != 3 || got[0] != 1 || got[1] != 4 || got[2] != 8 {
		t.Fatalf("scaleSweep = %v", got)
	}
	got = scaleSweep([]int{1, 2}, 2)
	if len(got) != 2 || got[1] != 2 {
		t.Fatalf("scaleSweep = %v", got)
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{
		Title:  "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"x", "1"}, {"longer", "2"}},
	}
	out := tb.Render()
	if out == "" || len(out) < 20 {
		t.Fatalf("render = %q", out)
	}
}

func TestQuickAndPaperScalesSane(t *testing.T) {
	for _, s := range []Scale{Quick(), Paper()} {
		if s.MaxClients <= 0 || s.MaxProcs <= 0 || s.Items <= 0 ||
			s.FIOFileSize == 0 || s.SmallFiles <= 0 || s.Latency < 0 {
			t.Fatalf("bad scale: %+v", s)
		}
	}
	if Paper().MaxClients < Quick().MaxClients {
		t.Fatal("paper scale smaller than quick")
	}
	_ = time.Microsecond
}

// TestWritePipelineSpeedup is the headline acceptance check: on the same
// 3-replica cluster, pipelined appends with window >= 4 must sustain at
// least 2x the stop-and-wait throughput (and the sweep must be monotone
// enough that the biggest windows are not slower than window=1).
func TestWritePipelineSpeedup(t *testing.T) {
	s := tiny()
	// Make the RTT decisively the bottleneck: at sub-millisecond latency,
	// CPU contention from test packages running in parallel can compress
	// the ratios toward the 2x bar; at 1ms the protocol dominates. The
	// race detector multiplies per-op CPU cost the same way, so it gets a
	// wider latency floor for the same reason.
	s.Latency = time.Millisecond
	if raceEnabled {
		s.Latency = 3 * time.Millisecond
	}
	_, nums, err := RunWritePipeline(s)
	if err != nil {
		t.Fatal(err)
	}
	base := nums["stop-and-wait"]
	if base <= 0 {
		t.Fatalf("baseline MB/s = %v", base)
	}
	for _, label := range []string{"window=4", "window=8", "window=16"} {
		if nums[label] < 2*base {
			t.Fatalf("%s = %.1f MB/s, want >= 2x stop-and-wait (%.1f)", label, nums[label], base)
		}
	}
	if nums["window=16"] < nums["window=1"] {
		t.Fatalf("window=16 (%.1f) slower than window=1 (%.1f)", nums["window=16"], nums["window=1"])
	}
}

// TestSmallFileSessionSpeedup is the session-pool acceptance check:
// small-file writes pay a constant number of stream dials (one session per
// partition leader plus its forward chains), not three per file. The
// throughput ratio against fresh-dial-per-file (2.44x) is historical: that
// path left with the dedicated session (EXPERIMENTS.md).
func TestSmallFileSessionSpeedup(t *testing.T) {
	s := tiny()
	// Matches RunSmallFileSessions' own TCP-style floor; anything lower
	// would be silently raised to it.
	s.Latency = 2 * time.Millisecond
	_, nums, err := RunSmallFileSessions(s)
	if err != nil {
		t.Fatal(err)
	}
	if nums["pooled"] <= 0 {
		t.Fatalf("pooled files/s = %v", nums["pooled"])
	}
	// 2 partitions x (1 client dial + 2 chain dials); 100 files unpooled
	// would pay 300.
	if nums["pooled-dials"] > 6 {
		t.Fatalf("100 small files paid %.0f stream dials - the pool is not reusing sessions", nums["pooled-dials"])
	}
}

// TestReadPipelineSpeedup is the read-path acceptance check, the twin of
// TestWritePipelineSpeedup: at the Memory transport's modeled propagation
// delay, streamed sequential reads with window 8 and the default window
// must sustain at least 2x the window=1 one-request-per-round-trip
// baseline, and the pooled chunk buffers must keep the per-block
// allocation volume a fraction of the block.
func TestReadPipelineSpeedup(t *testing.T) {
	s := tiny()
	// Same reasoning as the write test: at sub-millisecond latency CPU
	// contention compresses the ratios; at 1ms the protocol dominates.
	// The race detector multiplies per-op CPU cost, so it gets a wider
	// latency floor for the same reason.
	s.Latency = time.Millisecond
	if raceEnabled {
		s.Latency = 3 * time.Millisecond
	}
	_, nums, err := RunReadPipeline(s)
	if err != nil {
		t.Fatal(err)
	}
	base := nums["SeqRead window=1"]
	if base <= 0 {
		t.Fatalf("baseline MB/s = %v", base)
	}
	for _, label := range []string{"SeqRead window=8", "SeqRead streamed(default)"} {
		if nums[label] < 2*base {
			t.Fatalf("%s = %.1f MB/s, want >= 2x window=1 (%.1f)", label, nums[label], base)
		}
	}
	if nums["RandRead"] <= 0 {
		t.Fatalf("RandRead MB/s = %v", nums["RandRead"])
	}
	// Buffer reuse: a reply allocated per block would cost the full 128 KB
	// block each time; the streamed path reads into pooled chunks, so its
	// allocation volume per block must be a fraction of that.
	if streamed := nums["SeqRead window=8-kb"]; streamed > 64 {
		t.Fatalf("streamed read allocates %.0f KB per 128 KB block - chunk pooling is not engaging", streamed)
	}
}
