package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
)

// benchDecl is BENCHMARK.json: what this benchmark promises to report.
type benchDecl struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadDecl reads BENCHMARK.json from the working directory (the root of a
// checkout, where the command runs) or its parent (where `go test` runs).
func loadDecl() (*benchDecl, error) {
	var lastErr error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		b, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		d := &benchDecl{}
		if err := json.Unmarshal(b, d); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return d, nil
	}
	return nil, lastErr
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// namedBounds are the regression bounds of the workload-specific metric
// names (the issue's table); -compare applies them. The four generic
// end-to-end metrics take theirs from BENCHMARK.json.
var namedBounds = map[string]metricDecl{
	"create_ops_s":          {Better: "higher", Bound: 0.10},
	"stat_ops_s":            {Better: "higher", Bound: 0.10},
	"readdir_entries_s":     {Better: "higher", Bound: 0.10},
	"remove_ops_s":          {Better: "higher", Bound: 0.10},
	"create_p99_ms":         {Better: "lower", Bound: 0.15},
	"write_mb_s":            {Better: "higher", Bound: 0.10},
	"read_mb_s":             {Better: "higher", Bound: 0.10},
	"randread_iops":         {Better: "higher", Bound: 0.10},
	"randwrite_iops":        {Better: "higher", Bound: 0.10},
	"randwrite_p99_ms":      {Better: "lower", Bound: 0.15},
	"smallfile_write_ops_s": {Better: "higher", Bound: 0.10},
	"smallfile_read_ops_s":  {Better: "higher", Bound: 0.10},
}

func (d *benchDecl) declared(trace bool) []metricDecl {
	if trace {
		return d.PerLayer
	}
	return d.EndToEnd
}

// checkRun lists what is wrong with one run's output: failed ops, a
// declared metric that is missing or has another unit, a metric nobody
// declared, a malformed name.
func (d *benchDecl) checkRun(res *runResult) []string {
	var out []string
	if res.Failed > 0 {
		out = append(out, fmt.Sprintf("%s: %d of %d ops failed (%s)", res.Workload, res.Failed, res.Attempted, res.FirstErr))
	}
	want := map[string]metricDecl{}
	for _, m := range d.declared(res.Trace) {
		want[m.Name] = m
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("%s: declared metric %s is missing", res.Workload, m.Name))
		case got.Unit != m.Unit:
			out = append(out, fmt.Sprintf("%s: metric %s has unit %q, declared %q", res.Workload, m.Name, got.Unit, m.Unit))
		}
	}
	for name := range res.Metrics {
		if !nameRE.MatchString(name) {
			out = append(out, fmt.Sprintf("%s: metric name %q is malformed", res.Workload, name))
		}
		if _, ok := want[name]; !ok {
			out = append(out, fmt.Sprintf("%s: metric %s is not declared in BENCHMARK.json", res.Workload, name))
		}
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// Sets: every workload, one child process per run, so heap, GC pacing and
// peak RSS do not leak from one workload into the next.

type setConfig struct {
	seed    uint64
	seconds float64
	runs    int
	trace   bool
	probes  bool
	outDir  string
	dir     string
}

type setWorkload struct {
	Runs   []*runResult `json:"runs"`
	Traced *runResult   `json:"traced,omitempty"`
}

type setFile struct {
	Seed      uint64                  `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Workloads map[string]*setWorkload `json:"workloads"`
	Probes    map[string]metricValue  `json:"probes,omitempty"`
}

func runChild(cfg setConfig, wl string, seed uint64, trace bool) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp(cfg.dir, "result-*.json")
	if err != nil {
		return nil, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	t := "0"
	if trace {
		t = "1"
	}
	args := []string{"--workload", wl, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", t,
		"-dir", cfg.dir, "-result", tmp.Name()}
	if cfg.outDir != "" {
		args = append(args, "-outdir", cfg.outDir)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	if out, err := cmd.Output(); err != nil {
		os.Stderr.Write(out)
		return nil, fmt.Errorf("%s seed %d: %w", wl, seed, err)
	}
	b, err := os.ReadFile(tmp.Name())
	if err != nil {
		return nil, err
	}
	res := &runResult{}
	return res, json.Unmarshal(b, res)
}

func runSet(d *benchDecl, cfg setConfig) (*setFile, error) {
	set := &setFile{Seed: cfg.seed, Seconds: cfg.seconds, Workloads: map[string]*setWorkload{}}
	for _, wl := range workloads {
		sw := &setWorkload{}
		set.Workloads[wl.name] = sw
		for i := 0; i < cfg.runs; i++ {
			logf("%s: run %d of %d", wl.name, i+1, cfg.runs)
			res, err := runChild(cfg, wl.name, cfg.seed+uint64(i), false)
			if err != nil {
				return nil, err
			}
			sw.Runs = append(sw.Runs, res)
		}
		if cfg.trace {
			logf("%s: traced run", wl.name)
			res, err := runChild(cfg, wl.name, cfg.seed, true)
			if err != nil {
				return nil, err
			}
			sw.Traced = res
		}
	}
	if cfg.probes {
		logf("probes: %d x %v each", fullProbes.reps, fullProbes.each)
		set.Probes = map[string]metricValue{}
		runProbes(set.Probes, fullProbes, cfg.dir)
	}
	return set, nil
}

func (d *benchDecl) checkSet(set *setFile) []string {
	var out []string
	for _, wl := range d.Workloads {
		sw := set.Workloads[wl.Name]
		if sw == nil || len(sw.Runs) == 0 {
			out = append(out, fmt.Sprintf("%s: declared workload did not run", wl.Name))
			continue
		}
		for _, r := range sw.Runs {
			out = append(out, d.checkRun(r)...)
		}
		if sw.Traced != nil {
			out = append(out, d.checkRun(sw.Traced)...)
		}
	}
	for name := range set.Workloads {
		if !nameRE.MatchString(name) {
			out = append(out, fmt.Sprintf("workload name %q is malformed", name))
		}
	}
	return out
}

// values collects one metric over a workload's untraced runs. Named metrics
// (the readers' table) are found by name too.
func (sw *setWorkload) values(name string) (vals []float64, unit string) {
	for _, r := range sw.Runs {
		if m, ok := r.Metrics[name]; ok {
			vals, unit = append(vals, m.Value), m.Unit
			continue
		}
		for _, n := range r.Named {
			if n.Name == name {
				vals, unit = append(vals, n.Value), n.Unit
			}
		}
	}
	return vals, unit
}

// metricNames lists the untraced metrics of a workload: the declared
// end-to-end ones, then the workload's own names.
func (sw *setWorkload) metricNames(d *benchDecl) []string {
	var names []string
	for _, m := range d.EndToEnd {
		names = append(names, m.Name)
	}
	if len(sw.Runs) > 0 {
		for _, n := range sw.Runs[0].Named {
			names = append(names, n.Name)
		}
	}
	return names
}

// spread is the distance between the first and third quartile as a share
// of the median, with Python's statistics.quantiles(values, n=4) quartiles:
// the measure the pipeline accepts or rejects a benchmark by.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s)
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

func printSet(w io.Writer, d *benchDecl, set *setFile) {
	for _, wl := range workloads {
		sw := set.Workloads[wl.name]
		if sw == nil {
			continue
		}
		var attempted, failed int64
		for _, r := range sw.Runs {
			attempted += r.Attempted
			failed += r.Failed
		}
		fmt.Fprintf(w, "\n%s  (%d runs of %g s, seeds %d..%d)  attempted %d  failed %d  fail_ratio %.6f\n",
			wl.name, len(sw.Runs), set.Seconds, set.Seed, set.Seed+uint64(len(sw.Runs))-1,
			attempted, failed, float64(failed)/float64(max(attempted, 1)))
		fmt.Fprintf(w, "  %-26s %14s %-6s %8s %8s\n", "metric", "median", "unit", "spread", "samples")
		for _, name := range sw.metricNames(d) {
			vals, unit := sw.values(name)
			n := 0
			for _, nv := range sw.Runs[0].Named {
				if nv.Name == name {
					n = nv.Samples
				}
			}
			smp := "-"
			if n > 0 {
				smp = strconv.Itoa(n)
			}
			fmt.Fprintf(w, "  %-26s %14.3f %-6s %7.1f%% %8s\n", name, median(vals), unit, 100*spread(vals), smp)
		}
		if sw.Traced != nil {
			fmt.Fprintf(w, "  per layer (traced run, seed %d, %d cycles):\n", sw.Traced.Seed, sw.Traced.Cycles)
			for _, name := range sortedKeys(sw.Traced.Metrics) {
				if _, fromProbe := set.Probes[name]; fromProbe {
					continue
				}
				m := sw.Traced.Metrics[name]
				fmt.Fprintf(w, "    %-42s %14.4f %s\n", name, m.Value, m.Unit)
			}
		}
	}
	if len(set.Probes) > 0 {
		fmt.Fprintf(w, "\nprobes (median of %d x %v):\n", fullProbes.reps, fullProbes.each)
		for _, name := range sortedKeys(set.Probes) {
			m := set.Probes[name]
			fmt.Fprintf(w, "    %-42s %14.4f %s\n", name, m.Value, m.Unit)
		}
	}
}

func sortedKeys(m map[string]metricValue) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ---------------------------------------------------------------------------
// -compare

func readSet(path string) (*setFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	set := &setFile{}
	if err := json.Unmarshal(b, set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// verdict places b against a under a bound: "worse" when b's median is
// worse than a's by more than the bound, "unresolved" when either set's own
// spread is wider than the bound (the sets cannot resolve a change that
// small), "within" otherwise.
func verdict(a, b []float64, m metricDecl) string {
	if m.Bound == 0 {
		return "-"
	}
	ma, mb := median(a), median(b)
	worse := mb > ma*(1+m.Bound)
	if m.Better == "higher" {
		worse = mb < ma*(1-m.Bound)
	}
	switch {
	case spread(a) > m.Bound || spread(b) > m.Bound:
		return "unresolved"
	case worse:
		return "worse"
	}
	return "within"
}

// compareSets prints, per (workload, metric), both medians, their ratio
// with its base, the bound and the verdict. It reports whether any pair
// came out worse.
func compareSets(w io.Writer, d *benchDecl, pathA, pathB string) (bool, error) {
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	bounds := map[string]metricDecl{}
	for k, v := range namedBounds {
		bounds[k] = v
	}
	for _, m := range d.EndToEnd {
		bounds[m.Name] = m
	}
	anyWorse := false
	fmt.Fprintf(w, "a = %s, b = %s; ratio is b/a, spreads are IQR/median of each set's own runs\n", pathA, pathB)
	fmt.Fprintf(w, "%-15s %-24s %-6s %12s %7s %12s %7s %7s %6s  %s\n",
		"workload", "metric", "unit", "median a", "spr a", "median b", "spr b", "b/a", "bound", "verdict")
	for _, wl := range workloads {
		sa, sb := a.Workloads[wl.name], b.Workloads[wl.name]
		if sa == nil || sb == nil {
			continue
		}
		for _, name := range sa.metricNames(d) {
			va, unit := sa.values(name)
			vb, _ := sb.values(name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			m := bounds[name]
			v := verdict(va, vb, m)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(w, "%-15s %-24s %-6s %12.3f %6.1f%% %12.3f %6.1f%% %7.3f %6.2f  %s\n",
				wl.name, name, unit, median(va), 100*spread(va), median(vb), 100*spread(vb),
				median(vb)/median(va), m.Bound, v)
		}
		if sa.Traced != nil && sb.Traced != nil {
			for _, name := range sortedKeys(sa.Traced.Metrics) {
				ma, mb := sa.Traced.Metrics[name], sb.Traced.Metrics[name]
				if ma.Value == 0 && mb.Value == 0 {
					continue
				}
				ratio := 0.0
				if ma.Value != 0 {
					ratio = mb.Value / ma.Value
				}
				fmt.Fprintf(w, "%-15s %-42s %-6s %12.3f %12.3f %7.3f  (one traced run each, no bound)\n",
					wl.name, name, ma.Unit, ma.Value, mb.Value, ratio)
			}
		}
	}
	return anyWorse, nil
}
