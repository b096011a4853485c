package main

import (
	"sort"
	"testing"
	"time"
)

func tinyConfig(t *testing.T, wl *workload, trace bool) runConfig {
	// The hard deadline is generous: under the race detector a tiny cycle
	// takes seconds, and only TestHardDeadline wants it to strike.
	return runConfig{wl: wl, seed: 7, seconds: 0.02, trace: trace, sz: tinySizes, setups: 1, dir: t.TempDir(),
		hardDeadline: 30 * time.Second}
}

// TestSmokeEveryWorkload runs every workload for a few tiny cycles, untraced
// and traced, and checks the output against BENCHMARK.json: every declared
// (workload, metric) pair is there exactly once (a map cannot hold it
// twice) with its declared unit, nothing undeclared is there, and no op
// failed.
func TestSmokeEveryWorkload(t *testing.T) {
	decl, err := loadDecl()
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	for _, dw := range decl.Workloads {
		wl := findWorkload(dw.Name)
		if wl == nil {
			t.Fatalf("BENCHMARK.json declares unknown workload %q", dw.Name)
		}
		if dw.Why != wl.why {
			t.Errorf("%s: BENCHMARK.json's why differs from the benchmark's", dw.Name)
		}
		for _, trace := range []bool{false, true} {
			res, err := runOnce(tinyConfig(t, wl, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
			}
			for _, p := range decl.checkRun(res) {
				t.Errorf("trace=%v: %s", trace, p)
			}
			if !trace {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v; the contract wants it never 0", wl.name, name, m.Value)
					}
				}
				continue
			}
			// Streams must still be streams under the wrapper: the session
			// pools, the datanode's follower chains and MultiRaft's peer
			// lanes each find their interface through it.
			need := map[string][]string{
				"seq_stream_lat": {"client.write_ack_us", "client.read_first_chunk_us", "datanode.repl_hop_us"},
				"seq_stream":     {"client.write_ack_us", "datanode.repl_hop_us", "transport.wire_bytes_per_user_byte"},
				"meta_ops":       {"raft.batch_msgs", "meta.handle_us.mutate", "client.meta_rpcs_per_create", "core.self_us.create"},
				"rand_rw":        {"raft.batch_msgs", "datanode.handle_us.overwrite", "datanode.handle_us.read", "core.self_us.randwrite"},
				"small_files":    {"datanode.handle_us.smallfile", "client.data_rpcs_per_smallfile_write", "storage.disk_bytes_per_user_byte"},
			}
			for _, name := range need[wl.name] {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s: traced run reports %s = %v, want > 0", wl.name, name, res.Metrics[name].Value)
				}
			}
		}
	}
}

// TestDeclMatchesTables pins BENCHMARK.json to the tables in the code.
func TestDeclMatchesTables(t *testing.T) {
	decl, err := loadDecl()
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, m := range decl.PerLayer {
		got = append(got, m.Name+" "+m.Unit+" "+m.Better)
	}
	for _, d := range layerDecl {
		want = append(want, d.name+" "+d.unit+" "+d.better)
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("per_layer has %d metrics, layerDecl %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("per_layer %q != layerDecl %q", got[i], want[i])
		}
	}
	e2e := map[string]bool{}
	for _, m := range decl.EndToEnd {
		e2e[m.Name] = true
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, name := range []string{mSetup, mWriteOps, mReadOps, mWriteP95} {
		if !e2e[name] {
			t.Errorf("end_to_end lacks %s", name)
		}
	}
	if len(e2e) != 4 {
		t.Errorf("end_to_end has %d metrics, the benchmark reports 4", len(e2e))
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d != default of --seconds %d", decl.RunSeconds, defaultSeconds)
	}
	for _, d := range layerDecl {
		if !nameRE.MatchString(d.name) {
			t.Errorf("malformed metric name %q", d.name)
		}
	}
}

// TestSeededGeneration: the same seed gives the same op list, another seed
// another one (for the workloads whose ops depend on the seed at all; the
// streams' only seeded input is file content).
func TestSeededGeneration(t *testing.T) {
	for _, wl := range workloads {
		a, b := planHash(wl, 42, fullSizes), planHash(wl, 42, fullSizes)
		if a != b {
			t.Errorf("%s: same seed, different op lists (%s, %s)", wl.name, a, b)
		}
		if c := planHash(wl, 43, fullSizes); c == a && wl.cycle != nil &&
			wl != seqStream && wl != seqStreamLat {
			t.Errorf("%s: seeds 42 and 43 give the same op list", wl.name)
		}
	}
	c1, c2 := newContent(42), newContent(42)
	buf1, buf2 := make([]byte, 3*pageSize), make([]byte, 3*pageSize)
	c1.fill(buf1, 9, 8*pageSize, 3)
	c2.fill(buf2, 9, 8*pageSize, 3)
	if string(buf1) != string(buf2) {
		t.Error("same seed, different content")
	}
	if !c1.verify(buf1, 9, 8*pageSize, 3) {
		t.Error("content does not verify against itself")
	}
	for _, wrong := range []func() bool{
		func() bool { return c1.verify(buf1, 8, 8*pageSize, 3) },             // another file
		func() bool { return c1.verify(buf1, 9, 9*pageSize, 3) },             // another offset
		func() bool { return c1.verify(buf1, 9, 8*pageSize, 2) },             // a stale version
		func() bool { return newContent(43).verify(buf1, 9, 8*pageSize, 3) }, // another seed
	} {
		if wrong() {
			t.Error("verification accepted wrong content")
		}
	}
}

// TestHardDeadline freezes the fabric under a running workload: frames to
// the datanodes stall without any error, which is what a half-open peer
// looks like. The run must come back by itself, soon after its hard
// deadline, with the stuck ops counted as failed - not hang.
func TestHardDeadline(t *testing.T) {
	cfg := tinyConfig(t, seqStreamLat, false)
	cfg.seconds = 0.3
	cfg.hardDeadline = 700 * time.Millisecond
	var frozenCluster *cluster
	cfg.afterSetup = func(cl *cluster) {
		frozenCluster = cl
		for _, addr := range cl.dataAddrs {
			cl.mem.Freeze(addr)
		}
	}
	type outcome struct {
		res *runResult
		err error
	}
	done := make(chan outcome, 1)
	t0 := time.Now()
	go func() {
		res, err := runOnce(cfg)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.res.Failed == 0 || o.res.Correct {
			t.Fatalf("frozen fabric: failed=%d correct=%v, want failures", o.res.Failed, o.res.Correct)
		}
		if o.res.Failed > o.res.Attempted {
			t.Fatalf("failed %d > attempted %d", o.res.Failed, o.res.Attempted)
		}
		t.Logf("came back after %v with %d of %d ops failed: %s", time.Since(t0), o.res.Failed, o.res.Attempted, o.res.FirstErr)
	case <-time.After(8 * time.Second):
		t.Fatal("run hangs on a frozen fabric")
	}
	// Heal, so the abandoned worker finishes and the cluster can be closed
	// instead of idling under the tests that follow.
	for _, addr := range frozenCluster.dataAddrs {
		frozenCluster.mem.Heal(addr)
	}
	closed := make(chan struct{})
	go func() {
		frozenCluster.close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Log("the healed cluster did not close within 10 s; leaving it to process exit")
	}
}
