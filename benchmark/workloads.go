package main

import (
	"fmt"
	"io"
	"time"

	"cfs/internal/core"
)

// sizes are the per-cycle work constants: how long each time-boxed phase
// lasts and how big the files are. fullSizes is what every reported number
// uses; tinySizes exists so the smoke test can run every workload in
// seconds.
type sizes struct {
	metaCreate, metaStat, metaReaddir time.Duration // meta_ops phase boxes
	seqFileMiB, latFileMiB            int           // a streamed file is closed at this size and the next begun
	seqWrite, seqRead                 time.Duration // seq_stream and seq_stream_lat phase boxes
	randFileMiB                       int           // rand_rw file size per worker, written in set-up
	randRead, randWrite               time.Duration // rand_rw boxes; the write box is per worker, they take turns
	randReread                        int           // re-reads of just-overwritten blocks per worker per cycle
	smallWrite, smallRead             time.Duration // small_files phase boxes
}

var fullSizes = sizes{
	metaCreate: 500 * time.Millisecond, metaStat: 300 * time.Millisecond, metaReaddir: 100 * time.Millisecond,
	seqFileMiB: 64, latFileMiB: 16,
	seqWrite: 600 * time.Millisecond, seqRead: 400 * time.Millisecond,
	randFileMiB: 64,
	randRead:    400 * time.Millisecond, randWrite: 250 * time.Millisecond,
	randReread: 50,
	smallWrite: 500 * time.Millisecond, smallRead: 400 * time.Millisecond,
}

var tinySizes = sizes{
	metaCreate: 30 * time.Millisecond, metaStat: 10 * time.Millisecond, metaReaddir: 5 * time.Millisecond,
	seqFileMiB: 1, latFileMiB: 1,
	seqWrite: 30 * time.Millisecond, seqRead: 10 * time.Millisecond,
	randFileMiB: 1,
	randRead:    10 * time.Millisecond, randWrite: 30 * time.Millisecond,
	randReread: 4,
	smallWrite: 40 * time.Millisecond, smallRead: 10 * time.Millisecond,
}

const (
	metaDirs  = 4
	blockSize = 128 << 10 // size of one streamed Write or ReadAt call: the client's packet size
	// seqOpBytes is one op of the stream workloads: 1 MiB of user data,
	// moved in eight blockSize calls. A single pipelined Write either
	// returns at once or waits for the window, so its latency says little;
	// a MiB is long enough to mean something and makes ops/s read as MiB/s.
	seqOpBytes = 1 << 20
	randBlock  = 4 << 10
	// overwriteSettle is the pause between rand_rw's overwrites and the
	// reads that verify them: 25 Raft flush ticks.
	overwriteSettle = 50 * time.Millisecond
	// warmScale shortens the phases of the untimed warm-up cycle.
	warmScale = 0.3
	// planOps is how many ops of each seeded sequence the op-list hash
	// covers; phases are time-boxed, so a sequence has no natural end.
	planOps = 64
)

var smallFileSizes = [...]int{1 << 10, 4 << 10, 16 << 10, 64 << 10}

// workload is one named input set. Names are fixed: later issues cite them.
type workload struct {
	name   string
	fabric fabricKind
	why    string
	// writePhase and readPhase name the phases behind the generic
	// write_ops_s / write_p95_ms and read_ops_s metrics.
	writePhase, readPhase string
	// named lists the issue's workload-specific metric names, each derived
	// from one phase; printed for readers, and reported under e2e.* by the
	// traced run.
	named []namedMetric
	// prepare runs once per set-up, after mounting (directories, files the
	// cycles reuse). cycle runs one cycle. plan folds the head of cycle c's
	// op sequences into h without touching the cluster.
	prepare func(r *runner) error
	cycle   func(r *runner, c int)
	plan    func(seed uint64, sz sizes, c int, h *opHash)
}

type namedMetric struct {
	name  string
	unit  string
	phase string
	// agg folds the phase's stats over the cycles that match traced into
	// the reported number.
	agg func(cycles []*cycleStats, traced bool, phase string) float64
}

// rateOf reports the interquartile mean over cycles of a per-cycle rate.
func rateOf(f func(*phaseStats) float64) func([]*cycleStats, bool, string) float64 {
	return func(cycles []*cycleStats, traced bool, phase string) float64 {
		return midmean(series(cycles, traced, phase, f))
	}
}

var workloads = []*workload{metaOps, seqStream, seqStreamLat, randRW, smallFilesWL}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func other(w int) int { return (w + 1) % numWorkers }

// evictOrphans sends the evict each unlink queued on the mount (paper Fig.
// 3c's last step). The product defers it to unmount; remove phases flush it
// before their clock stops, so a remove is charged its whole cost, cycles
// leave nothing behind and tearing a cluster down stays O(1).
func evictOrphans(fs *core.FileSystem) { fs.Client().Meta.EvictOrphans() }

// coldRounds runs round after round until the phase's time is up, each on a
// fresh mount of worker pw.w, so that every round starts with an empty
// client cache and the metanode, not the cache, answers. (The issue reads
// files "through the other worker's mount" for the same reason; a fresh
// mount makes every file cold, not only the other worker's, which lets a
// short-lived file population feed a phase long enough to time.)
func coldRounds(pw *phaseWorker, round func(fs *core.FileSystem)) {
	for pw.running() {
		fs, err := pw.r.cl.mount(pw.w)
		if err != nil {
			pw.r.attempted.Add(1)
			pw.r.fail(fmt.Errorf("%s: fresh mount: %w", pw.kind, err))
			return
		}
		round(fs)
		fs.Unmount()
	}
}

// ---------------------------------------------------------------------------
// meta_ops

type metaState struct {
	created [numWorkers]int // files each worker created in the current cycle
}

var metaOps = &workload{
	name:   "meta_ops",
	fabric: fabricTCP,
	why: "paper Table 3: create/stat/readdir/remove of empty files; client, unary transport, " +
		"metanode, Raft and btree do all the work and the data plane is idle",
	writePhase: "create",
	readPhase:  "stat",
	named: []namedMetric{
		{"create_ops_s", "1/s", "create", rateOf(opsPerSec)},
		{"stat_ops_s", "1/s", "stat", rateOf(opsPerSec)},
		{"readdir_entries_s", "1/s", "readdir", rateOf(unitsPerSec)},
		{"remove_ops_s", "1/s", "remove", rateOf(opsPerSec)},
		{"create_p99_ms", "ms", "create", pooledP99ms},
	},
	prepare: func(r *runner) error {
		r.state = &metaState{}
		for w := 0; w < numWorkers; w++ {
			for d := 0; d < metaDirs; d++ {
				if err := retry(10*time.Second, func() error { return r.cl.mounts[w].MkdirAll(metaDir(w, d)) }); err != nil {
					return err
				}
			}
		}
		return nil
	},
	plan: func(seed uint64, sz sizes, c int, h *opHash) {
		for w := 0; w < numWorkers; w++ {
			for _, i := range metaStatOrder(seed, w, c, planOps) {
				h.addString(metaPath(w, c, i))
			}
		}
	},
	cycle: func(r *runner, c int) {
		st := r.state.(*metaState)
		r.phase("create", r.sz.metaCreate, func(pw *phaseWorker) {
			fs := r.cl.mounts[pw.w]
			n := 0
			for pw.running() {
				p := metaPath(pw.w, c, n)
				n++
				pw.op(0, func() error {
					f, err := fs.Create(p)
					if err != nil {
						return err
					}
					return f.Close()
				})
			}
			st.created[pw.w] = n
		})
		r.phase("stat", r.sz.metaStat, func(pw *phaseWorker) {
			coldRounds(pw, func(fs *core.FileSystem) {
				for w := 0; w < numWorkers; w++ {
					for _, i := range metaStatOrder(r.seed, w, c, st.created[w]) {
						if !pw.running() {
							return
						}
						p := metaPath(w, c, i)
						pw.op(0, func() error {
							info, err := fs.Stat(p)
							if err != nil {
								return err
							}
							if info.Size != 0 || info.IsDir {
								return fmt.Errorf("stat %s: size %d dir %v", p, info.Size, info.IsDir)
							}
							return nil
						})
					}
				}
			})
		})
		r.phase("readdir", r.sz.metaReaddir, func(pw *phaseWorker) {
			coldRounds(pw, func(fs *core.FileSystem) {
				for w := 0; w < numWorkers; w++ {
					for d := 0; d < metaDirs; d++ {
						if !pw.running() {
							return
						}
						dir := metaDir(w, d)
						want := (st.created[w] - d + metaDirs - 1) / metaDirs
						pw.op(0, func() error {
							ents, err := fs.ReadDirPlus(dir)
							if err != nil {
								return err
							}
							if len(ents) != want {
								return fmt.Errorf("readdir %s: %d entries, want %d", dir, len(ents), want)
							}
							pw.units += float64(len(ents))
							return nil
						})
					}
				}
			})
		})
		r.phase("remove", 0, func(pw *phaseWorker) {
			fs := r.cl.mounts[pw.w]
			for i := 0; i < st.created[pw.w]; i++ {
				p := metaPath(pw.w, c, i)
				if !pw.op(0, func() error { return fs.Remove(p) }) {
					return
				}
			}
			evictOrphans(fs)
		})
	},
}

func metaDir(w, d int) string { return fmt.Sprintf("/meta/w%d/d%d", w, d) }

func metaPath(w, c, i int) string {
	return fmt.Sprintf("%s/c%d-f%d", metaDir(w, i%metaDirs), c, i)
}

// metaStatOrder is a seeded shuffle of the first n file indices of worker w
// in cycle c.
func metaStatOrder(seed uint64, w, c, n int) []int {
	rg := newRNG(seed, 1, uint64(w), uint64(c))
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := len(order) - 1; i > 0; i-- {
		j := rg.intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// ---------------------------------------------------------------------------
// seq_stream and seq_stream_lat share one generator.

var seqNamed = []namedMetric{
	{"write_mb_s", "MiB/s", "write", rateOf(mibPerSec)},
	{"read_mb_s", "MiB/s", "read", rateOf(mibPerSec)},
}

var seqStream = &workload{
	name:   "seq_stream",
	fabric: fabricTCP,
	why: "paper Fig. 8 sequential: 64 MiB files in 128 KiB calls; proto framing, TCP streams, session pools, " +
		"datanode stream loops and storage append do the work, metadata and data-partition Raft are idle",
	writePhase: "write",
	readPhase:  "read",
	named:      seqNamed,
	prepare:    seqPrepare,
	plan:       func(seed uint64, sz sizes, c int, h *opHash) { seqPlan(sz.seqFileMiB, c, h) },
	cycle:      func(r *runner, c int) { seqCycle(r, c, r.sz.seqFileMiB) },
}

var seqStreamLat = &workload{
	name:   "seq_stream_lat",
	fabric: fabricMem,
	why: "bypass twin of seq_stream: 16 MiB files on the Memory fabric at 1 ms one-way, so window control and " +
		"pipelining decide the result and per-byte CPU cost barely matters",
	writePhase: "write",
	readPhase:  "read",
	named:      seqNamed,
	prepare:    seqPrepare,
	plan:       func(seed uint64, sz sizes, c int, h *opHash) { seqPlan(sz.latFileMiB, c, h) },
	cycle:      func(r *runner, c int) { seqCycle(r, c, r.sz.latFileMiB) },
}

// seqState remembers what each worker wrote in the current cycle: how many
// MiB each of its files holds.
type seqState struct {
	files [numWorkers][]int
}

func seqPrepare(r *runner) error {
	r.state = &seqState{}
	return retry(10*time.Second, func() error { return r.cl.mounts[0].MkdirAll("/seq") })
}

func seqPath(w, c, k int) string   { return fmt.Sprintf("/seq/w%d-c%d-%d", w, c, k) }
func seqFileID(w, c, k int) uint64 { return 1<<40 | uint64(c&0xffff)<<16 | uint64(k)<<8 | uint64(w) }

func seqPlan(fileMiB, c int, h *opHash) {
	for w := 0; w < numWorkers; w++ {
		for k := 0; k < 2; k++ {
			h.addString(seqPath(w, c, k))
			h.add(seqFileID(w, c, k), uint64(fileMiB))
		}
	}
}

func seqCycle(r *runner, c int, fileMiB int) {
	st := r.state.(*seqState)
	r.phase("write", r.sz.seqWrite, func(pw *phaseWorker) {
		fs := r.cl.mounts[pw.w]
		buf := make([]byte, blockSize)
		st.files[pw.w] = st.files[pw.w][:0]
		for k := 0; pw.running(); k++ {
			id := seqFileID(pw.w, c, k)
			mib := 0
			pw.group(func() {
				var f *core.File
				if !pw.untimed("create", func() (err error) {
					f, err = fs.Create(seqPath(pw.w, c, k))
					return err
				}) {
					return
				}
				for ; mib < fileMiB && pw.running(); mib++ {
					pw.op(seqOpBytes, func() error {
						for b := 0; b < seqOpBytes/blockSize; b++ {
							r.data.fill(buf, id, uint64(mib)*seqOpBytes+uint64(b)*blockSize, 0)
							if _, err := f.Write(buf); err != nil {
								return err
							}
						}
						return nil
					})
				}
				// Close drains the window: every replica has acked every
				// byte before the phase clock stops.
				pw.untimed("close", f.Close)
			})
			st.files[pw.w] = append(st.files[pw.w], mib)
		}
	})
	var live int64
	for _, files := range st.files {
		for _, mib := range files {
			live += int64(mib) * seqOpBytes
		}
	}
	r.noteDisk(live)
	// Reads are served from the OS page cache: the bytes were just written.
	// A worker that reaches the end of what it wrote starts over.
	r.phase("read", r.sz.seqRead, func(pw *phaseWorker) {
		fs := r.cl.mounts[pw.w]
		buf := make([]byte, blockSize)
		for pw.running() && len(st.files[pw.w]) > 0 {
			for k, mibs := range st.files[pw.w] {
				if !pw.running() {
					return
				}
				id := seqFileID(pw.w, c, k)
				pw.group(func() {
					var f *core.File
					if !pw.untimed("open", func() (err error) {
						f, err = fs.Open(seqPath(pw.w, c, k))
						if err == nil && f.Size() != uint64(mibs)*seqOpBytes {
							err = fmt.Errorf("size %d, want %d", f.Size(), mibs*seqOpBytes)
						}
						return err
					}) {
						return
					}
					for mib := 0; mib < mibs && pw.running(); mib++ {
						pw.op(seqOpBytes, func() error {
							for b := 0; b < seqOpBytes/blockSize; b++ {
								off := uint64(mib)*seqOpBytes + uint64(b)*blockSize
								if _, err := f.ReadAt(buf, int64(off)); err != nil && err != io.EOF {
									return err
								}
								if !r.data.verify(buf, id, off, 0) {
									return fmt.Errorf("%s at %d: wrong bytes", f.Path(), off)
								}
							}
							return nil
						})
					}
					pw.untimed("close", f.Close)
				})
			}
		}
	})
	// Removing reclaims the extents asynchronously, which bounds disk use.
	r.phase("remove", 0, func(pw *phaseWorker) {
		fs := r.cl.mounts[pw.w]
		for k := range st.files[pw.w] {
			if !pw.op(0, func() error { return fs.Remove(seqPath(pw.w, c, k)) }) {
				return
			}
		}
		evictOrphans(fs)
	})
}

// ---------------------------------------------------------------------------
// rand_rw

type randState struct {
	files    [numWorkers]*core.File
	versions [numWorkers][]uint32 // per 4 KiB block
}

// verUnknown marks a block whose last overwrite failed: it holds either that
// version or the one before, and reads accept both.
const verUnknown = 1 << 31

// randBlocks is worker w's seeded block sequence for one phase of cycle c.
func randBlocks(seed uint64, sz sizes, w, c, phase int) func() uint32 {
	rg := newRNG(seed, 2, uint64(w), uint64(c), uint64(phase))
	nblocks := sz.randFileMiB << 20 / randBlock
	return func() uint32 { return uint32(rg.intn(nblocks)) }
}

func randPath(w int) string   { return fmt.Sprintf("/rand/w%d", w) }
func randFileID(w int) uint64 { return 2<<40 | uint64(w) }

var randRW = &workload{
	name:   "rand_rw",
	fabric: fabricTCP,
	why: "paper Fig. 9: 4 KiB random reads and in-place overwrites; the unary read path and the Raft overwrite " +
		"path (multiraft, raft, overwrite fence) use the datanode the other way round from seq_stream",
	writePhase: "randwrite",
	readPhase:  "randread",
	named: []namedMetric{
		{"randread_iops", "1/s", "randread", rateOf(opsPerSec)},
		{"randwrite_iops", "1/s", "randwrite", rateOf(opsPerSec)},
		{"randwrite_p99_ms", "ms", "randwrite", pooledP99ms},
	},
	prepare: func(r *runner) error {
		if err := retry(10*time.Second, func() error { return r.cl.mounts[0].MkdirAll("/rand") }); err != nil {
			return err
		}
		st := &randState{}
		r.state = st
		errs := make(chan error, numWorkers)
		for w := 0; w < numWorkers; w++ {
			go func(w int) {
				errs <- func() error {
					var f *core.File
					err := retry(10*time.Second, func() (err error) {
						f, err = r.cl.mounts[w].Create(randPath(w))
						return err
					})
					if err != nil {
						return err
					}
					buf := make([]byte, blockSize)
					for off := 0; off < r.sz.randFileMiB<<20; off += blockSize {
						r.data.fill(buf, randFileID(w), uint64(off), 0)
						if _, err := f.Write(buf); err != nil {
							return err
						}
					}
					// Fsync settles the window and publishes the extent
					// keys; the handle stays open for the cycles.
					if err := retry(10*time.Second, f.Fsync); err != nil {
						return err
					}
					st.files[w] = f
					st.versions[w] = make([]uint32, r.sz.randFileMiB<<20/randBlock)
					return nil
				}()
			}(w)
		}
		for w := 0; w < numWorkers; w++ {
			if err := <-errs; err != nil {
				return err
			}
		}
		return nil
	},
	plan: func(seed uint64, sz sizes, c int, h *opHash) {
		for w := 0; w < numWorkers; w++ {
			for phase := 0; phase < 2; phase++ {
				next := randBlocks(seed, sz, w, c, phase)
				for i := 0; i < planOps; i++ {
					h.add(uint64(next()))
				}
			}
		}
	},
	cycle: func(r *runner, c int) {
		st := r.state.(*randState)
		read := func(pw *phaseWorker, buf []byte, b uint32) {
			f, ver, id := st.files[pw.w], st.versions[pw.w], randFileID(pw.w)
			off := uint64(b) * randBlock
			pw.op(randBlock, func() error {
				if _, err := f.ReadAt(buf, int64(off)); err != nil && err != io.EOF {
					return err
				}
				v := ver[b] &^ verUnknown
				if !r.data.verify(buf, id, off, v) &&
					!(ver[b]&verUnknown != 0 && r.data.verify(buf, id, off, v-1)) {
					return fmt.Errorf("block %d of %s: wrong bytes (want version %d)", b, f.Path(), v)
				}
				return nil
			})
		}
		r.phase("randread", r.sz.randRead, func(pw *phaseWorker) {
			next := randBlocks(r.seed, r.sz, pw.w, c, 0)
			buf := make([]byte, randBlock)
			for pw.running() {
				read(pw, buf, next())
			}
		})
		// One overwriter at a time: at this commit two clients overwriting
		// concurrently make the data partitions' Raft groups lose their
		// leaders over and over (README.md, "What the benchmark found"), and
		// overwrites then fail. The workers take turns so that no op fails
		// and the number is steady.
		var written [numWorkers][]uint32
		r.serialPhase("randwrite", r.sz.randWrite, func(pw *phaseWorker) {
			f, ver, id := st.files[pw.w], st.versions[pw.w], randFileID(pw.w)
			next := randBlocks(r.seed, r.sz, pw.w, c, 1)
			buf := make([]byte, randBlock)
			for pw.running() {
				b := next()
				off := uint64(b) * randBlock
				v := ver[b]&^verUnknown + 1
				r.data.fill(buf, id, off, v)
				failed := r.failed.Load()
				pw.op(randBlock, func() error {
					_, err := f.WriteAt(buf, int64(off))
					return err
				})
				if r.failed.Load() != failed {
					// A failed overwrite may or may not have been applied.
					v |= verUnknown
				}
				ver[b] = v
				written[pw.w] = append(written[pw.w], b)
			}
		})
		r.noteDisk(int64(numWorkers) * int64(r.sz.randFileMiB) << 20)
		// At this commit an overwrite the client has been told is done can
		// still be missing, for a few milliseconds, from a replica that
		// serves reads (README.md, "What the benchmark found"): about one
		// re-read in 3000 issued straight after the write phase returned
		// the old block. The pause lets every replica apply, so that what
		// the re-reads check is "no overwrite is lost or served stale once
		// the system has settled", which holds.
		time.Sleep(overwriteSettle)
		// Verification only: a read offload that serves a stale overwrite
		// shows here as failed ops.
		r.phase("reread", 0, func(pw *phaseWorker) {
			rg := newRNG(r.seed, 4, uint64(pw.w), uint64(c))
			buf := make([]byte, randBlock)
			for i := 0; i < r.sz.randReread && len(written[pw.w]) > 0 && !pw.expired(); i++ {
				read(pw, buf, written[pw.w][rg.intn(len(written[pw.w]))])
			}
		})
	},
}

// ---------------------------------------------------------------------------
// small_files

func smallPath(w, c, i int) string { return fmt.Sprintf("/small/w%d/c%d-f%d", w, c, i) }
func smallFileID(w, c, i int) uint64 {
	return 3<<40 | uint64(c&0xffff)<<24 | uint64(i)<<4 | uint64(w)
}

// smallSizes is worker w's seeded sequence of file sizes in cycle c.
func smallSizes(seed uint64, w, c int) func() int {
	rg := newRNG(seed, 3, uint64(w), uint64(c))
	return func() int { return smallFileSizes[rg.intn(len(smallFileSizes))] }
}

type smallState struct {
	sizes [numWorkers][]int // sizes of the files each worker wrote this cycle
}

var smallFilesWL = &workload{
	name:   "small_files",
	fabric: fabricTCP,
	why: "paper Fig. 10: 1-64 KiB files written create-write-close, read whole by the other client, removed; " +
		"meta and data cost the same order per op here, and remove carries data reclamation",
	writePhase: "smallfile_write",
	readPhase:  "smallfile_read",
	named: []namedMetric{
		{"smallfile_write_ops_s", "1/s", "smallfile_write", rateOf(opsPerSec)},
		{"smallfile_read_ops_s", "1/s", "smallfile_read", rateOf(opsPerSec)},
		{"remove_ops_s", "1/s", "remove", rateOf(opsPerSec)},
	},
	prepare: func(r *runner) error {
		r.state = &smallState{}
		for w := 0; w < numWorkers; w++ {
			dir := fmt.Sprintf("/small/w%d", w)
			if err := retry(10*time.Second, func() error { return r.cl.mounts[w].MkdirAll(dir) }); err != nil {
				return err
			}
		}
		return nil
	},
	plan: func(seed uint64, sz sizes, c int, h *opHash) {
		for w := 0; w < numWorkers; w++ {
			next := smallSizes(seed, w, c)
			for i := 0; i < planOps; i++ {
				h.addString(smallPath(w, c, i))
				h.add(uint64(next()))
			}
		}
	},
	cycle: func(r *runner, c int) {
		st := r.state.(*smallState)
		biggest := smallFileSizes[len(smallFileSizes)-1]
		r.phase("smallfile_write", r.sz.smallWrite, func(pw *phaseWorker) {
			fs := r.cl.mounts[pw.w]
			next := smallSizes(r.seed, pw.w, c)
			buf := make([]byte, biggest)
			st.sizes[pw.w] = st.sizes[pw.w][:0]
			for i := 0; pw.running(); i++ {
				size := next()
				p := buf[:size]
				r.data.fill(p, smallFileID(pw.w, c, i), 0, 0)
				pw.op(size, func() error {
					f, err := fs.Create(smallPath(pw.w, c, i))
					if err != nil {
						return err
					}
					if _, err := f.Write(p); err != nil {
						f.Close()
						return err
					}
					return f.Close()
				})
				st.sizes[pw.w] = append(st.sizes[pw.w], size)
			}
		})
		var live int64
		for _, l := range st.sizes {
			for _, size := range l {
				live += int64(size)
			}
		}
		r.noteDisk(live)
		// Each worker reads the files the OTHER worker wrote, again and
		// again until the time is up: the client caches no file data, so
		// every read goes to a datanode.
		r.phase("smallfile_read", r.sz.smallRead, func(pw *phaseWorker) {
			fs := r.cl.mounts[pw.w]
			o := other(pw.w)
			buf := make([]byte, biggest)
			for pw.running() && len(st.sizes[o]) > 0 {
				for i, size := range st.sizes[o] {
					if !pw.running() {
						return
					}
					p := buf[:size]
					pw.op(size, func() error {
						f, err := fs.Open(smallPath(o, c, i))
						if err != nil {
							return err
						}
						defer f.Close()
						if f.Size() != uint64(size) {
							return fmt.Errorf("%s: size %d, want %d", f.Path(), f.Size(), size)
						}
						if _, err := f.ReadAt(p, 0); err != nil && err != io.EOF {
							return err
						}
						if !r.data.verify(p, smallFileID(o, c, i), 0, 0) {
							return fmt.Errorf("%s: wrong bytes", f.Path())
						}
						return nil
					})
				}
			}
		})
		r.phase("remove", 0, func(pw *phaseWorker) {
			fs := r.cl.mounts[pw.w]
			for i := range st.sizes[pw.w] {
				p := smallPath(pw.w, c, i)
				if !pw.op(0, func() error { return fs.Remove(p) }) {
					return
				}
			}
			evictOrphans(fs)
		})
	},
}
