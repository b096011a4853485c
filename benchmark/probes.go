package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cfs/internal/btree"
	"cfs/internal/kvstore"
	"cfs/internal/proto"
	"cfs/internal/raftstore"
	"cfs/internal/storage"
	"cfs/internal/transport"
)

// Probes call one layer's public functions directly, with the input shapes
// the workloads use (128 KiB and 4 KiB payloads, 100k-item trees, a 3-node
// Raft group on the zero-latency Memory fabric beside a 1-node baseline).
// They say what a layer costs on its own, so a change in an end-to-end
// number can be set against the layer that was supposed to cause it.

// probeBudget is how long one measurement of one probe runs, and how many
// measurements its reported median is taken over. The zero value skips the
// probes.
type probeBudget struct {
	each time.Duration
	reps int
}

var (
	// quickProbes keeps a traced run of the driver short; fullProbes is
	// what `-probes` uses and what README.md's numbers come from.
	quickProbes = probeBudget{each: 50 * time.Millisecond, reps: 3}
	fullProbes  = probeBudget{each: time.Second, reps: 5}
)

var probeDecl = []layerDef{
	{"raft.commit_us_1node", "us", "lower"},
	{"raft.commit_us_3node", "us", "lower"},
	{"raft.commits_per_s_c2", "1/s", "higher"},
	{"raft.commits_per_s_c16", "1/s", "higher"},
	{"transport.tcp_call_rtt_us", "us", "lower"},
	{"transport.mem_call_rtt_us", "us", "lower"},
	{"transport.tcp_stream_mb_s", "MiB/s", "higher"},
	{"transport.tcp_stream_allocs_per_frame", "count", "lower"},
	{"proto.encode_ns_128k", "ns", "lower"},
	{"proto.decode_ns_128k", "ns", "lower"},
	{"proto.encode_ns_4k", "ns", "lower"},
	{"proto.decode_ns_4k", "ns", "lower"},
	{"proto.allocs_per_packet", "count", "lower"},
	{"storage.append_128k_us", "us", "lower"},
	{"storage.readinto_128k_us", "us", "lower"},
	{"storage.readinto_4k_us", "us", "lower"},
	{"storage.writeat_4k_us", "us", "lower"},
	{"storage.smallfile_append_4k_us", "us", "lower"},
	{"storage.punch_us", "us", "lower"},
	{"btree.insert_ns", "ns", "lower"},
	{"btree.get_ns", "ns", "lower"},
	{"btree.delete_ns", "ns", "lower"},
	{"kvstore.put_us", "us", "lower"},
}

// prober runs measurements and files their medians under declared names.
type prober struct {
	out    map[string]metricValue
	budget probeBudget
}

// loop calls fn until the budget's duration has passed and returns the mean
// time per call in nanoseconds.
func (p *prober) loop(fn func()) float64 {
	n := 0
	t0 := time.Now()
	for time.Since(t0) < p.budget.each {
		for i := 0; i < 16; i++ {
			fn()
		}
		n += 16
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// report files the median of reps measurements of m under name.
func (p *prober) report(name string, m func() float64) {
	vals := make([]float64, p.budget.reps)
	for i := range vals {
		vals[i] = m()
	}
	setLayer(p.out, name, median(vals))
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runProbes runs every probe and adds its metric to out. Probes that fail
// to set up are logged and left out; the caller fills missing keys with 0.
func runProbes(out map[string]metricValue, budget probeBudget, dir string) {
	if budget.reps == 0 {
		return
	}
	p := &prober{out: out, budget: budget}
	tmp, err := os.MkdirTemp(dir, "probes-")
	if err != nil {
		logf("probes: %v", err)
		return
	}
	defer os.RemoveAll(tmp)
	for _, probe := range []func(*prober, string) error{
		probeProto, probeBtree, probeKV, probeStorage, probeTransport, probeRaft,
	} {
		if err := probe(p, tmp); err != nil {
			logf("probe: %v", err)
		}
	}
}

func probeProto(p *prober, _ string) error {
	for _, c := range []struct {
		size int
		tag  string
	}{{128 << 10, "128k"}, {4 << 10, "4k"}} {
		pkt := proto.NewPacket(proto.OpDataAppend, 1, 2, 3, make([]byte, c.size))
		pkt.Followers = []string{"127.0.0.1:17310", "127.0.0.1:17311"}
		var wire bytes.Buffer
		if _, err := pkt.WriteTo(&wire); err != nil {
			return err
		}
		frame := wire.Bytes()
		var hdr []byte
		p.report("proto.encode_ns_"+c.tag, func() float64 {
			return p.loop(func() {
				// The send path frames a packet as header + payload
				// iovecs; the payload itself is never copied.
				hdr, _ = pkt.AppendHeader(hdr[:0])
			})
		})
		rd := bytes.NewReader(frame)
		var in proto.Packet
		decode := func() {
			rd.Reset(frame)
			if _, err := in.ReadFromPooled(rd); err == nil {
				in.Release()
			}
		}
		p.report("proto.decode_ns_"+c.tag, func() float64 { return p.loop(decode) })
		if c.size == 128<<10 {
			p.report("proto.allocs_per_packet", func() float64 {
				const n = 2000
				before := mallocs()
				for i := 0; i < n; i++ {
					hdr, _ = pkt.AppendHeader(hdr[:0])
					decode()
				}
				return float64(mallocs()-before) / n
			})
		}
	}
	return nil
}

type u64Item uint64

func (a u64Item) Less(b btree.Item) bool { return a < b.(u64Item) }

func probeBtree(p *prober, _ string) error {
	const n = 100_000
	t := btree.New()
	rg := newRNG(7)
	keys := make([]u64Item, n)
	for i := range keys {
		keys[i] = u64Item(rg.next())
		t.ReplaceOrInsert(keys[i])
	}
	i := 0
	p.report("btree.get_ns", func() float64 {
		return p.loop(func() { t.Get(keys[i%n]); i++ })
	})
	// Insert and delete keep the tree at 100k items: every inserted key is
	// deleted again by the other half of the pair, and each half is timed
	// on its own.
	fresh := make([]u64Item, 1<<16)
	for j := range fresh {
		fresh[j] = u64Item(rg.next())
	}
	pair := func(timeInsert bool) float64 {
		var spent time.Duration
		ops := 0
		for t0 := time.Now(); time.Since(t0) < p.budget.each; {
			a := time.Now()
			for _, k := range fresh {
				t.ReplaceOrInsert(k)
			}
			b := time.Now()
			for _, k := range fresh {
				t.Delete(k)
			}
			c := time.Now()
			if timeInsert {
				spent += b.Sub(a)
			} else {
				spent += c.Sub(b)
			}
			ops += len(fresh)
		}
		return float64(spent.Nanoseconds()) / float64(ops)
	}
	p.report("btree.insert_ns", func() float64 { return pair(true) })
	p.report("btree.delete_ns", func() float64 { return pair(false) })
	return nil
}

func probeKV(p *prober, dir string) error {
	s, err := kvstore.Open(filepath.Join(dir, "kv"), kvstore.Options{})
	if err != nil {
		return err
	}
	defer s.Close()
	val := make([]byte, 64)
	i := 0
	p.report("kvstore.put_us", func() float64 {
		return p.loop(func() {
			_ = s.Put(fmt.Sprintf("key-%d", i%4096), val) // the WAL only appends; an error would show as a fast loop
			i++
		}) / 1e3
	})
	return nil
}

func probeStorage(p *prober, dir string) error {
	s, err := storage.Open(filepath.Join(dir, "extents"), storage.Options{})
	if err != nil {
		return err
	}
	defer s.Close()
	big := make([]byte, 128<<10)
	small := make([]byte, 4<<10)
	perExtent := int(storage.DefaultExtentSize) / len(big)

	// One full extent to read and overwrite.
	full := s.NextID()
	if err := s.Create(full); err != nil {
		return err
	}
	for i := 0; i < perExtent; i++ {
		if _, err := s.Append(full, big); err != nil {
			return err
		}
	}

	// Appends fill an extent and then move to a fresh one, deleting the
	// old, so the probe's disk use stays one extent.
	cur, filled := uint64(0), perExtent
	var aerr error
	p.report("storage.append_128k_us", func() float64 {
		return p.loop(func() {
			if filled == perExtent {
				if cur != 0 {
					_ = s.Delete(cur) // best effort: only bounds disk use
				}
				cur = s.NextID()
				if err := s.Create(cur); err != nil {
					aerr = err
				}
				filled = 0
			}
			if _, err := s.Append(cur, big); err != nil {
				aerr = err
			}
			filled++
		}) / 1e3
	})
	if aerr != nil {
		return fmt.Errorf("storage append: %w", aerr)
	}
	rg := newRNG(11)
	p.report("storage.readinto_128k_us", func() float64 {
		return p.loop(func() {
			_ = s.ReadInto(full, uint64(rg.intn(perExtent))*uint64(len(big)), big)
		}) / 1e3
	})
	pages := int(storage.DefaultExtentSize) / len(small)
	p.report("storage.readinto_4k_us", func() float64 {
		return p.loop(func() {
			_ = s.ReadInto(full, uint64(rg.intn(pages))*uint64(len(small)), small)
		}) / 1e3
	})
	p.report("storage.writeat_4k_us", func() float64 {
		return p.loop(func() {
			_ = s.WriteAt(full, uint64(rg.intn(pages))*uint64(len(small)), small)
		}) / 1e3
	})
	// Small files: append 4 KiB files into the aggregated extent, then
	// punch them out again; each half is timed on its own.
	type placed struct{ id, off uint64 }
	half := func(timeAppend bool) float64 {
		var spent time.Duration
		ops := 0
		batch := make([]placed, 0, 512)
		for t0 := time.Now(); time.Since(t0) < p.budget.each; {
			batch = batch[:0]
			a := time.Now()
			for i := 0; i < cap(batch); i++ {
				id, off, err := s.AppendSmallFile(small)
				if err != nil {
					aerr = err
					return 0
				}
				batch = append(batch, placed{id, off})
			}
			b := time.Now()
			for _, pl := range batch {
				if err := s.PunchHole(pl.id, pl.off, uint64(len(small))); err != nil {
					aerr = err
					return 0
				}
			}
			c := time.Now()
			if timeAppend {
				spent += b.Sub(a)
			} else {
				spent += c.Sub(b)
			}
			ops += len(batch)
		}
		return float64(spent.Microseconds()) / float64(ops)
	}
	p.report("storage.smallfile_append_4k_us", func() float64 { return half(true) })
	p.report("storage.punch_us", func() float64 { return half(false) })
	if aerr != nil {
		return fmt.Errorf("storage small files: %w", aerr)
	}
	return nil
}

func probeTransport(p *prober, _ string) error {
	echo := func(op uint8, req any) (any, error) { return &proto.Packet{}, nil }
	rtt := func(nw transport.Network, addr string) float64 {
		req := &proto.Packet{Op: proto.OpDataRead}
		var resp proto.Packet
		return p.loop(func() { _ = nw.Call(addr, uint8(proto.OpDataRead), req, &resp) }) / 1e3
	}
	mem := transport.NewMemory()
	mln, err := mem.Listen("probe", echo)
	if err != nil {
		return err
	}
	defer mln.Close()
	p.report("transport.mem_call_rtt_us", func() float64 { return rtt(mem, "probe") })

	addrs, err := allocAddrs(1)
	if err != nil {
		return err
	}
	srv, cli := transport.NewTCP(), transport.NewTCP()
	ln, err := srv.Listen(addrs[0], echo)
	if err != nil {
		return err
	}
	defer ln.Close()
	p.report("transport.tcp_call_rtt_us", func() float64 { return rtt(cli, addrs[0]) })

	// A write session's shape: 128 KiB frames one way (the client's
	// packet size), an empty ack per frame the other way, the sender never
	// waiting for an ack before the next frame.
	if err := srv.ListenStream(addrs[0], func(op uint8, s transport.PacketStream) {
		for {
			pkt, err := s.Recv()
			if err != nil {
				return
			}
			id := pkt.ReqID
			pkt.Release()
			if s.Send(&proto.Packet{Op: proto.OpDataAppend, ReqID: id}) != nil {
				return
			}
		}
	}); err != nil {
		return err
	}
	st, err := cli.DialStream(addrs[0], uint8(proto.OpDataWriteStream))
	if err != nil {
		return err
	}
	defer st.Close()
	payload := make([]byte, 128<<10)
	stream := func(frames int) error {
		acks := make(chan error, 1)
		go func() {
			for i := 0; i < frames; i++ {
				ack, err := st.Recv()
				if err != nil {
					acks <- err
					return
				}
				ack.Release()
			}
			acks <- nil
		}()
		for i := 0; i < frames; i++ {
			if err := st.Send(&proto.Packet{Op: proto.OpDataAppend, ReqID: uint64(i), Data: payload}); err != nil {
				return err
			}
		}
		return <-acks
	}
	var serr error
	p.report("transport.tcp_stream_mb_s", func() float64 {
		frames := 0
		t0 := time.Now()
		for time.Since(t0) < p.budget.each {
			if err := stream(64); err != nil {
				serr = err
				return 0
			}
			frames += 64
		}
		return float64(frames) * float64(len(payload)) / (1 << 20) / time.Since(t0).Seconds()
	})
	p.report("transport.tcp_stream_allocs_per_frame", func() float64 {
		const n = 512
		before := mallocs()
		if err := stream(n); err != nil {
			serr = err
		}
		return float64(mallocs()-before) / n
	})
	return serr
}

type nopSM struct{}

func (nopSM) Apply(uint64, []byte) (any, error) { return nil, nil }
func (nopSM) Snapshot() ([]byte, error)         { return nil, nil }
func (nopSM) Restore([]byte) error              { return nil }

// raftGroup starts an n-node Raft group on a fresh zero-latency Memory
// fabric with the product's default flush and tick, and returns a propose
// function bound to the leader.
func raftGroup(n int) (propose func([]byte) error, stop func(), err error) {
	mem := transport.NewMemory()
	peers := make([]string, n)
	for i := range peers {
		peers[i] = fmt.Sprintf("r%d", i)
	}
	var stores []*raftstore.Store
	stop = func() {
		for _, s := range stores {
			s.Close()
		}
	}
	for _, addr := range peers {
		s := raftstore.New(addr, mem, raftstore.Config{})
		stores = append(stores, s)
		if _, err := mem.Listen(addr, s.Handler()); err != nil {
			stop()
			return nil, nil, err
		}
	}
	for _, s := range stores {
		if _, err := s.CreateGroup(1, peers, nopSM{}); err != nil {
			stop()
			return nil, nil, err
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, s := range stores {
			if g := s.Group(1); g.IsLeader() {
				return func(b []byte) error { _, err := g.Propose(b); return err }, stop, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	return nil, nil, fmt.Errorf("raft probe: no leader among %d nodes", n)
}

func probeRaft(p *prober, _ string) error {
	entry := make([]byte, 64)
	for _, c := range []struct {
		nodes int
		name  string
	}{{1, "raft.commit_us_1node"}, {3, "raft.commit_us_3node"}} {
		propose, stop, err := raftGroup(c.nodes)
		if err != nil {
			return err
		}
		p.report(c.name, func() float64 {
			var lats []float64
			for t0 := time.Now(); time.Since(t0) < p.budget.each; {
				a := time.Now()
				if propose(entry) == nil {
					lats = append(lats, float64(time.Since(a).Nanoseconds())/1e3)
				}
			}
			return median(lats)
		})
		if c.nodes == 3 {
			for _, conc := range []struct {
				n    int
				name string
			}{{2, "raft.commits_per_s_c2"}, {16, "raft.commits_per_s_c16"}} {
				p.report(conc.name, func() float64 {
					var wg sync.WaitGroup
					var mu sync.Mutex
					done := 0
					t0 := time.Now()
					for i := 0; i < conc.n; i++ {
						wg.Add(1)
						go func() {
							defer wg.Done()
							n := 0
							for time.Since(t0) < p.budget.each {
								if propose(entry) == nil {
									n++
								}
							}
							mu.Lock()
							done += n
							mu.Unlock()
						}()
					}
					wg.Wait()
					return float64(done) / time.Since(t0).Seconds()
				})
			}
		}
		stop()
	}
	return nil
}
