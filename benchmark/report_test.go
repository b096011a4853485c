package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func goodRun(d *benchDecl, trace bool) *runResult {
	res := &runResult{Workload: "meta_ops", Trace: trace, Correct: true, Attempted: 10,
		Metrics: map[string]metricValue{}}
	for _, m := range d.declared(trace) {
		res.Metrics[m.Name] = metricValue{1, m.Unit}
	}
	return res
}

// TestCheckRun: -check's conditions, one at a time.
func TestCheckRun(t *testing.T) {
	d, err := loadDecl()
	if err != nil {
		t.Fatal(err)
	}
	for _, trace := range []bool{false, true} {
		if p := d.checkRun(goodRun(d, trace)); len(p) != 0 {
			t.Errorf("clean run (trace=%v) has problems: %v", trace, p)
		}
	}
	cases := map[string]func(*runResult){
		"ops failed":          func(r *runResult) { r.Failed = 1 },
		"is missing":          func(r *runResult) { delete(r.Metrics, mWriteOps) },
		"has unit":            func(r *runResult) { r.Metrics[mSetup] = metricValue{1, "ms"} },
		"is malformed":        func(r *runResult) { r.Metrics["bad name!"] = metricValue{1, "s"} },
		"is not declared in":  func(r *runResult) { r.Metrics["extra_metric"] = metricValue{1, "s"} },
		"metric name \"\" is": func(r *runResult) { r.Metrics[""] = metricValue{1, "s"} },
	}
	for want, breakIt := range cases {
		r := goodRun(d, false)
		breakIt(r)
		p := strings.Join(d.checkRun(r), "\n")
		if !strings.Contains(p, want) {
			t.Errorf("want a problem containing %q, got %q", want, p)
		}
	}
	set := &setFile{Workloads: map[string]*setWorkload{}}
	if p := d.checkSet(set); len(p) != len(d.Workloads) {
		t.Errorf("empty set: %d problems, want one per declared workload", len(p))
	}
}

// TestSpreadMatchesPython pins spread() to statistics.quantiles(v, n=4):
// for 1..10 Python gives quartiles 2.75 and 8.25, median 5.5.
func TestSpreadMatchesPython(t *testing.T) {
	v := []float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread = %v, want %v", got, want)
	}
	// [10, 20, 40]: quartiles 10 and 40 (clamped), median 20.
	if got, want := spread([]float64{40, 10, 20}), 1.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread = %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	higher := metricDecl{Better: "higher", Bound: 0.10}
	lower := metricDecl{Better: "lower", Bound: 0.10}
	steady := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c} }
	noisy := func(c float64) []float64 { return []float64{c * 0.7, c, c * 1.3, c * 0.8, c * 1.2} }
	for _, tc := range []struct {
		a, b []float64
		m    metricDecl
		want string
	}{
		{steady(100), steady(95), higher, "within"},
		{steady(100), steady(85), higher, "worse"},
		{steady(100), steady(120), higher, "within"},
		{steady(100), steady(105), lower, "within"},
		{steady(100), steady(115), lower, "worse"},
		{noisy(100), steady(85), higher, "unresolved"},
		{steady(100), noisy(85), higher, "unresolved"},
		{steady(100), steady(50), metricDecl{}, "-"},
	} {
		if got := verdict(tc.a, tc.b, tc.m); got != tc.want {
			t.Errorf("verdict(%v, %v, %+v) = %s, want %s", tc.a, tc.b, tc.m, got, tc.want)
		}
	}
}

// TestCompareSets writes two small set files and reads the table back.
func TestCompareSets(t *testing.T) {
	d, err := loadDecl()
	if err != nil {
		t.Fatal(err)
	}
	mk := func(writeOps float64) string {
		set := &setFile{Seed: 1, Seconds: 1, Workloads: map[string]*setWorkload{}}
		sw := &setWorkload{}
		for i := 0; i < 5; i++ {
			r := goodRun(d, false)
			r.Metrics[mWriteOps] = metricValue{writeOps * (1 + 0.001*float64(i)), "1/s"}
			sw.Runs = append(sw.Runs, r)
		}
		set.Workloads["meta_ops"] = sw
		b, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(t.TempDir(), "set.json")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	var out bytes.Buffer
	worse, err := compareSets(&out, d, mk(100), mk(70))
	if err != nil {
		t.Fatal(err)
	}
	if !worse || !strings.Contains(out.String(), "worse") || !strings.Contains(out.String(), "0.700") {
		t.Fatalf("30%% drop not reported as worse:\n%s", out.String())
	}
	out.Reset()
	if worse, _ := compareSets(&out, d, mk(100), mk(97)); worse {
		t.Fatalf("3%% drop reported as worse:\n%s", out.String())
	}
}

func TestMidmean(t *testing.T) {
	// 8 values: the middle half is exactly the 3rd..6th.
	if got := midmean([]float64{100, 1, 2, 3, 4, 5, 6, -50}); math.Abs(got-3.5) > 1e-12 {
		t.Fatalf("midmean = %v, want 3.5", got)
	}
	// 5 values: lo=1.25, hi=3.75 -> 0.75*s[1] + s[2] + 0.75*s[3] over 2.5.
	if got, want := midmean([]float64{1, 2, 3, 4, 100}), (0.75*2+3+0.75*4)/2.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("midmean = %v, want %v", got, want)
	}
	if got := midmean([]float64{7}); got != 7 {
		t.Fatalf("midmean of one value = %v", got)
	}
}
