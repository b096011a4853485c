// Command benchmark is the one benchmark of this repository: five named
// workloads against an in-process CFS cluster booted the way cfs-server
// boots it, end-to-end metrics from an untraced run, per-layer metrics from
// a traced run and from direct probes. README.md has the definitions.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one run, result line last
//	benchmark [-runs N] [-trace 1] [-probes] [-o set.json]    a set: every workload, one child process each
//	benchmark -compare a.json b.json                          two sets, metric by metric
//	benchmark -check ...                                      exit 1 on failed ops, missing metrics, bad names
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// defaultSeed is the seed of the numbers in README.md; BENCHMARK.json's
// run_seconds is the default of --seconds.
const (
	defaultSeed    = 1
	defaultSeconds = 15
)

func main() {
	var (
		wlName  = flag.String("workload", "", "run this one workload in this process and print its result line")
		seed    = flag.Uint64("seed", defaultSeed, "seed of every generated input")
		seconds = flag.Float64("seconds", defaultSeconds, "how long one run measures")
		trace   = flag.Int("trace", 0, "1: traced run, reports the per-layer metrics; 0: untraced, the end-to-end metrics")
		probes  = flag.Bool("probes", false, "run the layer probes at full length (1 s x 5 each) and print them")
		check   = flag.Bool("check", false, "exit 1 if any op failed, a declared metric is missing or a name is malformed")
		compare = flag.Bool("compare", false, "compare two set files: -compare a.json b.json")
		runs    = flag.Int("runs", 1, "set mode: runs per workload, each with the next seed")
		outFile = flag.String("o", "", "set mode: write the set here, for -compare")
		outDir  = flag.String("outdir", "", "traced runs write trace-<workload>.json here (default: no span file)")
		dir     = flag.String("dir", "", "where clusters keep their files (default: $TMPDIR)")
		verbose = flag.Bool("v", false, "print every cycle's numbers to standard error")
		result  = flag.String("result", "", "also write the run's full result as JSON here (set mode uses it for its children)")
	)
	flag.Parse()
	if *dir == "" {
		*dir = os.TempDir()
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatal(err)
	}
	decl, err := loadDecl()
	if err != nil {
		fatal(err)
	}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare a.json b.json"))
		}
		if worse, err := compareSets(os.Stdout, decl, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		} else if worse && *check {
			os.Exit(1)
		}

	case *wlName != "":
		wl := findWorkload(*wlName)
		if wl == nil {
			fatal(fmt.Errorf("unknown workload %q", *wlName))
		}
		cfg := runConfig{wl: wl, seed: *seed, seconds: *seconds, trace: *trace != 0, sz: fullSizes,
			setups: setupsPerRun, dir: *dir, outDir: *outDir, verbose: *verbose}
		if cfg.trace {
			cfg.probes = quickProbes
			if *probes {
				cfg.probes = fullProbes
			}
		}
		res, err := runOnce(cfg)
		if err != nil {
			fatal(err)
		}
		printRun(os.Stdout, res)
		if *result != "" {
			b, err := json.Marshal(res)
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*result, b, 0o644); err != nil {
				fatal(err)
			}
		}
		problems := decl.checkRun(res)
		for _, p := range problems {
			logf("check: %s", p)
		}
		// The result line is the last line of standard output.
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int64                  `json:"attempted"`
			Failed    int64                  `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if *check && len(problems) > 0 {
			os.Exit(1)
		}

	default:
		set, err := runSet(decl, setConfig{seed: *seed, seconds: *seconds, runs: *runs,
			trace: *trace != 0, probes: *probes, outDir: *outDir, dir: *dir})
		if err != nil {
			fatal(err)
		}
		printSet(os.Stdout, decl, set)
		if *outFile != "" {
			b, err := json.MarshalIndent(set, "", " ")
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*outFile, append(b, '\n'), 0o644); err != nil {
				fatal(err)
			}
		}
		if problems := decl.checkSet(set); len(problems) > 0 {
			for _, p := range problems {
				logf("check: %s", p)
			}
			if *check {
				os.Exit(1)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// printRun prints the readers' view of one run: the workload's own metric
// names with their sample counts, then every contract metric.
func printRun(w *os.File, res *runResult) {
	mode := "untraced"
	if res.Trace {
		mode = "traced (odd cycles recorded)"
	}
	fmt.Fprintf(w, "workload %s  seed %d  %s  cycles %d  op_hash %s\n", res.Workload, res.Seed, mode, res.Cycles, res.OpHash)
	fmt.Fprintf(w, "set-up times %.3f s  attempted %d  failed %d  fail_ratio %.6f\n",
		res.Setups, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
	if res.FirstErr != "" {
		fmt.Fprintf(w, "first error: %s\n", res.FirstErr)
	}
	for _, n := range res.Named {
		fmt.Fprintf(w, "  %-26s %14.3f %-6s (%d samples, unrecorded cycles)\n", n.Name, n.Value, n.Unit, n.Samples)
	}
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-42s %14.4f %s\n", name, m.Value, m.Unit)
	}
}
