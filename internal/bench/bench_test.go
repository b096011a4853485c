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
