package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricValue is one reported number, in the shape the result line wants.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// namedValue is one row of the readers' table.
type namedValue struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
}

// The end-to-end metrics every workload reports. write_* and read_* are
// each workload's own write-side and read-side phase (workload.writePhase,
// workload.readPhase); README.md maps them to the paper's axes. The bounded
// tail latency is a p95: on the stream workloads the p99 of a MiB written
// sits in the tail of "first MiB of a file" and swings 25% between runs of
// the same code, the p95 swings 7%. The workloads whose ops each wait for a
// commit report their p99 too, under its own name.
const (
	mSetup    = "setup_s"
	mWriteOps = "write_ops_s"
	mReadOps  = "read_ops_s"
	mWriteP95 = "write_p95_ms"
)

const (
	setupsPerRun  = 5 // segments per run, each on a fresh cluster; setup_s is the median of their set-up times
	setupDeadline = 60 * time.Second
)

// runConfig says how to run one workload once.
type runConfig struct {
	wl      *workload
	seed    uint64
	seconds float64
	trace   bool
	sz      sizes
	setups  int
	dir     string // clusters are created below it
	outDir  string // traced runs write trace-<workload>.json here; "" skips it
	probes  probeBudget
	verbose bool // print every cycle's numbers to standard error
	// hardDeadline overrides 3 x a segment's share of seconds, and
	// afterSetup runs between a segment's set-up and its first cycle; the
	// deadline test uses both.
	hardDeadline time.Duration
	afterSetup   func(*cluster)
}

// runResult is everything one run measured.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	FirstErr  string                 `json:"first_error,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Named     []namedValue           `json:"named"`
	Cycles    int                    `json:"cycles"`
	OpHash    string                 `json:"op_hash"`
	Setups    []float64              `json:"setup_times_s"`
}

// planHash folds the op lists of the warm-up cycle and the first two timed
// cycles: same seed, same hash.
func planHash(wl *workload, seed uint64, sz sizes) string {
	h := newOpHash()
	h.addString(wl.name)
	for c := 0; c <= 2; c++ {
		wl.plan(seed, sz, c, h)
	}
	return fmt.Sprintf("%016x", h.h.Sum64())
}

// setUp boots a cluster, prepares the workload's files and runs one short
// untimed cycle. The warm-up is repeated (under fresh cycle numbers) while
// ops still fail, which absorbs the elections of a fresh cluster.
func setUp(cfg *runConfig, tr *tracer) (*runner, error) {
	cl, err := bootCluster(cfg.wl.fabric, cfg.dir, tr)
	if err != nil {
		return nil, err
	}
	r := &runner{cl: cl, seed: cfg.seed, sz: cfg.sz, data: newContent(cfg.seed), tr: tr,
		scale: warmScale, deadline: time.Now().Add(setupDeadline)}
	if err := cfg.wl.prepare(r); err != nil {
		cl.close()
		return nil, fmt.Errorf("prepare %s: %w", cfg.wl.name, err)
	}
	for attempt := 0; ; attempt++ {
		r.failed.Store(0)
		r.firstErr = nil
		cfg.wl.cycle(r, -attempt)
		if r.failed.Load() == 0 {
			break
		}
		if attempt == 9 || time.Now().After(r.deadline) {
			cl.close()
			return nil, fmt.Errorf("warm-up of %s keeps failing: %v", cfg.wl.name, r.firstErr)
		}
		// A partition whose group is still electing answers "not the
		// leader" for longer than the client retries.
		time.Sleep(time.Duration(attempt+1) * 50 * time.Millisecond)
	}
	r.attempted.Store(0)
	r.scale = 1
	return r, nil
}

// runOnce measures cfg.wl for cfg.seconds, split evenly over cfg.setups
// segments. Every segment boots its own cluster: a boot fixes things the
// workload cannot see and that move the numbers - which replica leads which
// Raft group, how the nodes' flush timers are phased against each other -
// so one run samples several boots instead of reporting one boot's luck.
// The time a segment's set-up takes is one sample of setup_s.
func runOnce(cfg runConfig) (*runResult, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	res := &runResult{Workload: cfg.wl.name, Seed: cfg.seed, Trace: cfg.trace,
		OpHash: planHash(cfg.wl, cfg.seed, cfg.sz)}
	perSegment := cfg.seconds / float64(cfg.setups)
	hard := cfg.hardDeadline
	if hard == 0 {
		hard = time.Duration(3 * perSegment * float64(time.Second))
	}
	want := 1
	if cfg.trace {
		want = 2 // a recorded and an unrecorded cycle on every cluster
	}
	var cycles []*cycleStats
	var firstErr error
	c := 0
	for seg := 0; seg < cfg.setups; seg++ {
		t0 := time.Now()
		r, err := setUp(&cfg, tr)
		if err != nil {
			return nil, err
		}
		res.Setups = append(res.Setups, time.Since(t0).Seconds())
		if cfg.afterSetup != nil {
			cfg.afterSetup(r.cl)
		}
		start := time.Now()
		r.deadline = start.Add(hard)
		// A segment takes another cycle while at least half a cycle's time
		// is left of its share, so that segments overshoot and undershoot
		// evenly and a run measures for cfg.seconds, not for that plus half
		// a cycle per segment.
		var lastCycle float64
		for n := 0; (perSegment-time.Since(start).Seconds() >= lastCycle/2 || n < want) && time.Now().Before(r.deadline); n++ {
			cycleStart := time.Now()
			c++
			r.cur = &cycleStats{phases: map[string]*phaseStats{}, traced: cfg.trace && c%2 == 1}
			if tr != nil {
				tr.on.Store(r.cur.traced)
			}
			r.cur.procBefore = readProc()
			cfg.wl.cycle(r, c)
			r.cur.procAfter = readProc()
			cycles = append(cycles, r.cur)
			lastCycle = time.Since(cycleStart).Seconds()
			if cfg.verbose {
				line := fmt.Sprintf("segment %d cycle %d (recorded %v):", seg, c, r.cur.traced)
				for _, nm := range cfg.wl.named {
					line += fmt.Sprintf(" %s=%.1f", nm.name, nm.agg(cycles[len(cycles)-1:], r.cur.traced, nm.phase))
				}
				logf("%s", line)
			}
		}
		if tr != nil {
			tr.on.Store(false)
		}
		r.cur = nil
		res.Attempted += r.attempted.Load()
		res.Failed += r.failed.Load()
		if firstErr == nil {
			firstErr = r.firstErr
		}
		if time.Now().After(r.deadline) {
			// A worker may be stuck inside a mount, and closing would wait
			// for it. The run ends here; exiting is what stops the cluster.
			break
		}
		r.cl.close()
	}

	res.Cycles = len(cycles)
	if cfg.verbose {
		all := pooledLats(cycles, false, cfg.wl.writePhase)
		logf("%s latency us: p50 %.0f p90 %.0f p95 %.0f p99 %.0f p99.9 %.0f max %.0f (%d samples)", cfg.wl.writePhase,
			percentile(all, .5), percentile(all, .9), percentile(all, .95), percentile(all, .99), percentile(all, .999), percentile(all, 1), len(all))
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if firstErr != nil {
		res.FirstErr = firstErr.Error()
	}
	if res.Attempted == 0 {
		res.Attempted = 1 // the contract wants at least 1; nothing ran, so it failed
		res.Failed = 1
	}

	for _, nm := range cfg.wl.named {
		res.Named = append(res.Named, namedValue{nm.name, nm.unit,
			nm.agg(cycles, false, nm.phase), len(pooledLats(cycles, false, nm.phase))})
	}
	res.Metrics = map[string]metricValue{}
	if !cfg.trace {
		res.Metrics[mSetup] = metricValue{median(res.Setups), "s"}
		res.Metrics[mWriteOps] = metricValue{midmean(series(cycles, false, cfg.wl.writePhase, opsPerSec)), "1/s"}
		res.Metrics[mReadOps] = metricValue{midmean(series(cycles, false, cfg.wl.readPhase, opsPerSec)), "1/s"}
		res.Metrics[mWriteP95] = metricValue{percentile(pooledLats(cycles, false, cfg.wl.writePhase), 0.95) / 1000, "ms"}
		return res, nil
	}
	tr.freeze()
	layerMetrics(res.Metrics, tr, cfg.wl, cycles)
	for _, nm := range res.Named {
		res.Metrics["e2e."+nm.Name] = metricValue{nm.Value, nm.Unit}
	}
	runProbes(res.Metrics, cfg.probes, cfg.dir)
	for _, d := range layerDecl {
		if _, ok := res.Metrics[d.name]; !ok {
			// Not every layer metric exists on every workload (meta_ops
			// moves no bytes, seq_stream creates no small file); the
			// contract wants the key anyway, and 0 is what was measured.
			res.Metrics[d.name] = metricValue{0, d.unit}
		}
	}
	if cfg.outDir != "" {
		if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
			return nil, err
		}
		if err := tr.writeSpans(filepath.Join(cfg.outDir, "trace-"+cfg.wl.name+".json")); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Process-level cost, read at cycle boundaries.

type procSnap struct {
	cpu        float64 // user+system seconds of the whole process
	mallocs    uint64
	allocBytes uint64
	gcPauseNS  uint64
}

func readProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return procSnap{cpu: tv(ru.Utime) + tv(ru.Stime), mallocs: ms.Mallocs,
		allocBytes: ms.TotalAlloc, gcPauseNS: ms.PauseTotalNs}
}

// peakRSSMiB reads the process's high-water resident set from /proc.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
