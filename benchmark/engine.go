package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// phaseStats is what one timed phase of one cycle measured.
type phaseStats struct {
	wall  time.Duration // barrier to barrier
	ops   int           // ops that completed and verified
	units float64       // extra work unit of the phase (directory entries)
	bytes int64         // user bytes moved by ops that completed
	lats  []float64     // per-op latency in microseconds, both workers
}

// cycleStats maps phase name to its stats for one cycle.
type cycleStats struct {
	traced bool // the tracer recorded during this cycle
	phases map[string]*phaseStats
	// procBefore/procAfter bracket the cycle; diskRatio is disk bytes per
	// live user byte, sampled by recorded cycles after their write phase.
	procBefore, procAfter procSnap
	diskRatio             float64
}

// runner drives one workload against one cluster with exactly numWorkers
// closed-loop workers. A phase starts both workers together and ends when
// both are done, so a phase is only ever "writes beside writes" or "reads
// beside reads".
//
// Phases are time-boxed wherever the work allows it: each worker issues ops
// from its own seeded sequence until the phase's time is up. With a fixed
// amount of work per worker the phase would end with the slower worker
// running alone, and how unevenly the cluster serves two clients - which
// varies from cycle to cycle - would decide the number.
type runner struct {
	cl    *cluster
	seed  uint64
	sz    sizes
	data  *content
	tr    *tracer // nil on untraced runs
	scale float64 // phase durations are multiplied by it; < 1 in the warm-up

	deadline  time.Time // hard stop: a worker still busy then is abandoned
	attempted atomic.Int64
	failed    atomic.Int64
	errMu     sync.Mutex
	firstErr  error

	cur   *cycleStats
	state any // the workload's own state (open files, versions)
}

func (r *runner) fail(err error) {
	r.failed.Add(1)
	r.errMu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.errMu.Unlock()
}

// phaseWorker is one worker's handle inside a phase.
type phaseWorker struct {
	r      *runner
	w      int
	kind   string
	kindID uint8     // kind as the tracer interned it; traced runs only
	until  time.Time // end of a time-boxed phase; zero for fixed work
	begun  bool      // running has been asked once
	ops    int
	units  float64
	bytes  int64
	lats   []float64
	root   bool // a group span is open; ops inside it open no root of their own
}

// expired reports whether the hard deadline has passed. Workers check it
// before every op, so a run whose cluster stopped answering ends instead of
// hanging.
func (pw *phaseWorker) expired() bool { return time.Now().After(pw.r.deadline) }

// running reports whether a time-boxed phase still has time left. The first
// call of a phase says yes whatever the clock says, so every worker issues
// at least one op per phase even on a box so slow (the race detector) that
// getting there used up the time.
func (pw *phaseWorker) running() bool {
	now := time.Now()
	if !pw.begun {
		pw.begun = true
		return now.Before(pw.r.deadline)
	}
	return now.Before(pw.until) && now.Before(pw.r.deadline)
}

// op times fn as one operation of the phase's kind. n is the user bytes it
// moves. fn returns an error for an op that failed or returned wrong data.
// op reports false once the hard deadline has passed, without running fn.
func (pw *phaseWorker) op(n int, fn func() error) bool {
	if pw.expired() {
		return false
	}
	pw.r.attempted.Add(1)
	tr := pw.r.tr
	if tr != nil && !pw.root {
		tr.beginRoot(pw.w, pw.kindID)
	}
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	if tr != nil && !pw.root {
		tr.endRoot(pw.w)
	}
	if err != nil {
		pw.r.fail(fmt.Errorf("%s: %w", pw.kind, err))
		return true
	}
	pw.ops++
	pw.bytes += int64(n)
	pw.lats = append(pw.lats, float64(d)/float64(time.Microsecond))
	return true
}

// group runs fn under one root span, for streamed I/O where the unit the
// trace should explain is the whole file, not one 128 KiB call.
func (pw *phaseWorker) group(fn func()) {
	if tr := pw.r.tr; tr != nil {
		tr.beginRoot(pw.w, pw.kindID)
		pw.root = true
		defer func() {
			pw.root = false
			tr.endRoot(pw.w)
		}()
	}
	fn()
}

// untimed runs fn as a counted and verified op that feeds no latency or
// throughput sample (file open/close around a timed stream, cleanup).
func (pw *phaseWorker) untimed(what string, fn func() error) bool {
	if pw.expired() {
		return false
	}
	pw.r.attempted.Add(1)
	if err := fn(); err != nil {
		pw.r.fail(fmt.Errorf("%s: %s: %w", pw.kind, what, err))
		return false
	}
	return true
}

// phase runs fn once per worker, side by side, and records the phase under
// name in the current cycle. A positive box time-boxes it (scaled by
// r.scale): fn loops while pw.running(). With box zero fn does a fixed
// amount of work.
func (r *runner) phase(name string, box time.Duration, fn func(pw *phaseWorker)) {
	r.runPhase(name, box, false, fn)
}

// serialPhase is phase with the workers taking turns instead of running
// side by side: one closed-loop client at a time, each with its own box.
func (r *runner) serialPhase(name string, box time.Duration, fn func(pw *phaseWorker)) {
	r.runPhase(name, box, true, fn)
}

func (r *runner) runPhase(name string, box time.Duration, serial bool, fn func(pw *phaseWorker)) {
	if time.Now().After(r.deadline) {
		return // the run is over; an earlier phase already counted what was stuck
	}
	var kindID uint8
	if r.tr != nil {
		kindID = r.tr.setPhase(name)
	}
	box = time.Duration(float64(box) * r.scale)
	pws := make([]*phaseWorker, numWorkers)
	done := make(chan struct{}, numWorkers)
	// serial: turns[w] is closed when it is worker w's turn; worker 0 first.
	turns := make([]chan struct{}, numWorkers+1)
	for w := range turns {
		turns[w] = make(chan struct{})
		if !serial || w == 0 {
			close(turns[w])
		}
	}
	t0 := time.Now()
	for w := range pws {
		pws[w] = &phaseWorker{r: r, w: w, kind: name, kindID: kindID}
		go func(pw *phaseWorker) {
			<-turns[pw.w]
			if box > 0 {
				pw.until = time.Now().Add(box)
			}
			fn(pw)
			if serial {
				close(turns[pw.w+1])
			}
			done <- struct{}{}
		}(pws[w])
	}
	finished := 0
	timeout := time.NewTimer(time.Until(r.deadline) + 200*time.Millisecond)
	defer timeout.Stop()
wait:
	for finished < numWorkers {
		select {
		case <-done:
			finished++
		case <-timeout.C:
			break wait
		}
	}
	wall := time.Since(t0)
	if r.tr != nil {
		r.tr.setPhase("")
	}
	if stuck := numWorkers - finished; stuck > 0 {
		// A worker is inside a call that never returned. It is abandoned
		// (the process exits after reporting, which is what stops it), its
		// op counts as failed, and its stats are not read: it may still be
		// writing them.
		r.failed.Add(int64(stuck))
		r.errMu.Lock()
		if r.firstErr == nil {
			r.firstErr = fmt.Errorf("%s: %d worker(s) still inside an op at the hard deadline", name, stuck)
		}
		r.errMu.Unlock()
		return
	}
	ps := &phaseStats{wall: wall}
	for _, pw := range pws {
		ps.ops += pw.ops
		ps.units += pw.units
		ps.bytes += pw.bytes
		ps.lats = append(ps.lats, pw.lats...)
	}
	if r.cur != nil {
		r.cur.phases[name] = ps
	}
}

// noteDisk samples storage amplification: the space the extent stores
// occupy over the user bytes that are live right now. Recorded cycles only,
// so untraced runs do nothing between phases.
func (r *runner) noteDisk(liveBytes int64) {
	if r.cur != nil && r.cur.traced && liveBytes > 0 {
		r.cur.diskRatio = float64(r.cl.diskBytes()) / float64(liveBytes)
	}
}

// retry runs fn until it succeeds or the budget runs out. Only set-up uses
// it: a fresh cluster's first ops race partition elections.
func retry(budget time.Duration, fn func() error) error {
	stop := time.Now().Add(budget)
	for {
		err := fn()
		if err == nil || time.Now().After(stop) {
			return err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// ---------------------------------------------------------------------------
// Statistics.

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// midmean is the interquartile mean: the mean of the middle half of v, the
// lowest and highest quarters dropped (weights at the edges make it exact
// for any length). It is how per-cycle rates become one number. Cycles are
// not one population - which boot a cycle ran on shifts its level - and the
// median of such a mixture jumps between the levels from run to run, where
// a mean moves smoothly; dropping the outer quarters still keeps the odd
// stalled cycle out.
func midmean(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	lo, hi := float64(n)/4, float64(n)*3/4
	var sum float64
	for i, x := range s {
		// Weight of [i, i+1) inside [lo, hi).
		a, b := float64(i), float64(i+1)
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			sum += x * (b - a)
		}
	}
	return sum / (hi - lo)
}

// percentile returns the q-quantile (0..1) of v by nearest rank.
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// series collects, over the cycles that match traced, one number per cycle
// for a phase.
func series(cycles []*cycleStats, traced bool, phase string, f func(*phaseStats) float64) []float64 {
	var out []float64
	for _, c := range cycles {
		if c.traced != traced {
			continue
		}
		if ps := c.phases[phase]; ps != nil && ps.wall > 0 {
			out = append(out, f(ps))
		}
	}
	return out
}

func opsPerSec(ps *phaseStats) float64   { return float64(ps.ops) / ps.wall.Seconds() }
func unitsPerSec(ps *phaseStats) float64 { return ps.units / ps.wall.Seconds() }
func mibPerSec(ps *phaseStats) float64   { return float64(ps.bytes) / (1 << 20) / ps.wall.Seconds() }

// pooledP99ms is the 99th percentile, in milliseconds, over every latency
// sample a phase took in the matching cycles. A cycle is too short to hold
// the >= 1000 samples a p99 needs (ten beyond it); a whole run is not.
func pooledP99ms(cycles []*cycleStats, traced bool, phase string) float64 {
	return percentile(pooledLats(cycles, traced, phase), 0.99) / 1000
}

// pooledLats gathers a phase's latency samples, in microseconds, over the
// cycles that match traced.
func pooledLats(cycles []*cycleStats, traced bool, phase string) []float64 {
	var all []float64
	for _, c := range cycles {
		if ps := c.phases[phase]; c.traced == traced && ps != nil {
			all = append(all, ps.lats...)
		}
	}
	return all
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
