// Command cfs-bench regenerates the tables and figures of the paper's
// evaluation section (Table 3, Figures 6-10) on an in-process cluster and
// prints them as text tables.
//
// Usage:
//
//	cfs-bench [-scale quick|paper] [-transport memory|tcp] [table3|fig6|fig7|fig8|fig9|fig10|heartbeat|reconfig|all]
//
// -transport applies to the reconfig experiment: "memory" (default) runs
// the cluster on the in-process network with emulated latency, "tcp" on
// real loopback sockets.
//
// reconfig measures time-to-full-redundancy after a replica kill: the
// master detaching the corpse, placing a replacement on a spare node, the
// leader refilling it, and the Raft configuration re-converging with the
// partition record (DESIGN.md Section 5.5).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"cfs/internal/bench"
)

func main() {
	scaleName := flag.String("scale", "quick", "experiment scale: quick or paper")
	transportName := flag.String("transport", "memory", "cluster transport for reconfig: memory or tcp")
	flag.Parse()

	var scale bench.Scale
	switch *scaleName {
	case "quick":
		scale = bench.Quick()
	case "paper":
		scale = bench.Paper()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want quick or paper)\n", *scaleName)
		os.Exit(2)
	}
	switch *transportName {
	case "memory", "tcp":
		scale.Transport = *transportName
	default:
		fmt.Fprintf(os.Stderr, "unknown transport %q (want memory or tcp)\n", *transportName)
		os.Exit(2)
	}

	which := "all"
	if flag.NArg() > 0 {
		which = flag.Arg(0)
	}

	type experiment struct {
		name string
		run  func(bench.Scale) (*bench.Table, error)
	}
	experiments := []experiment{
		{"table3", func(s bench.Scale) (*bench.Table, error) { t, _, err := bench.RunTable3(s); return t, err }},
		{"fig6", func(s bench.Scale) (*bench.Table, error) { t, _, err := bench.RunFig6(s); return t, err }},
		{"fig7", func(s bench.Scale) (*bench.Table, error) { t, _, err := bench.RunFig7(s); return t, err }},
		{"fig8", func(s bench.Scale) (*bench.Table, error) { t, _, err := bench.RunFig8(s); return t, err }},
		{"fig9", func(s bench.Scale) (*bench.Table, error) { t, _, err := bench.RunFig9(s); return t, err }},
		{"fig10", func(s bench.Scale) (*bench.Table, error) { t, _, err := bench.RunFig10(s); return t, err }},
		{"heartbeat", func(s bench.Scale) (*bench.Table, error) {
			counts := []int{8, 24, 72}
			if s.MaxProcs >= 64 { // paper scale: push further
				counts = []int{8, 24, 72, 216}
			}
			t, _, err := bench.RunHeartbeatScaling(counts, 500*time.Millisecond)
			return t, err
		}},
		{"reconfig", func(s bench.Scale) (*bench.Table, error) {
			t, _, err := bench.RunReconfig(s)
			return t, err
		}},
	}

	ran := 0
	for _, e := range experiments {
		if which != "all" && which != e.name {
			continue
		}
		ran++
		start := time.Now()
		table, err := e.run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println(table.Render())
		fmt.Printf("(%s completed in %v)\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", which)
		os.Exit(2)
	}
}
