package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// nodeRole says which layer of the deployment an endpoint belongs to.
type nodeRole uint8

const (
	roleClient nodeRole = iota
	roleMaster
	roleMeta
	roleData
)

func (r nodeRole) String() string {
	return [...]string{"client", "master", "meta", "data"}[r]
}

// spanKind says at which boundary a span was taken.
type spanKind uint8

const (
	spanRoot   spanKind = iota // one timed core call (or one whole streamed file)
	spanCall                   // a unary Call as its caller saw it
	spanFrame                  // a stream frame, send to matching ack / first chunk
	spanHandle                 // a Handler run, or a stream frame received to answered
	spanRaft                   // one MultiRaft batch handed to the wire
	spanDial                   // a DialStream
)

func (k spanKind) String() string {
	return [...]string{"root", "call", "frame", "handle", "raft", "dial"}[k]
}

// span is one record of the trace. Client-side spans carry parent, the
// index in the same shard of the root span that was open on that mount
// when they started (-1 for none). Server-side spans carry only the phase:
// telling which request caused which handler run needs request ids that
// cross the wire, which the product does not stamp yet.
type span struct {
	start, end int64 // ns since the tracer was created
	parent     int32
	bytes      int32 // payload bytes (packets) or raft entry bytes
	aux        int32 // spanRaft: messages in the batch; frames: 1 if a small-file frame
	kind       spanKind
	op         uint8    // proto.Op of the call or frame; 0 for roots
	peer       nodeRole // role of the other end (calls, frames, dials)
	name       uint8    // spanRoot: index into tracer.names
	phase      uint8    // index into tracer.names of the running phase
	fail       bool
	leader     bool // spanHandle on a datanode: it led the partition
}

// shard holds the spans one endpoint recorded. One per tracenet, so
// endpoints never contend.
type shard struct {
	label  string
	role   nodeRole
	mu     sync.Mutex
	frozen bool // analysis has begun; late spans are dropped
	spans  []span
}

// add appends sp and returns its index, or -1 once the shard is frozen.
func (s *shard) add(sp span) int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen {
		return -1
	}
	s.spans = append(s.spans, sp)
	return int32(len(s.spans) - 1)
}

// tracer collects spans in memory for one traced run. Recording is switched
// per cycle: the traced run alternates recorded and unrecorded cycles, and
// the ratio of their throughputs is the tracing overhead.
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	phase atomic.Uint32 // index into names; 0 is "no phase"
	roots [numWorkers]atomic.Int32
	// clients[w] is the shard of worker w's mount; set while booting,
	// before any worker runs.
	clients [numWorkers]*shard
	wire    [256]atomic.Int64 // bytes handed to the wire, by phase index
	roles   sync.Map          // address -> nodeRole
	leader  sync.Map          // data partition id (uint64) -> leader address

	mu     sync.Mutex
	names  []string
	byName map[string]uint8
	shards []*shard
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), byName: map[string]uint8{}}
	t.intern("") // index 0
	for w := range t.roots {
		t.roots[w].Store(-1)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) intern(name string) uint8 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.byName[name]; ok {
		return i
	}
	i := uint8(len(t.names))
	t.names = append(t.names, name)
	t.byName[name] = i
	return i
}

func (t *tracer) newShard(label string, role nodeRole) *shard {
	s := &shard{label: label, role: role}
	t.mu.Lock()
	t.shards = append(t.shards, s)
	t.mu.Unlock()
	return s
}

// setPhase names the running phase ("" for none) and returns the name's
// index, which is also what the phase's root spans are named by.
func (t *tracer) setPhase(name string) uint8 {
	id := t.intern(name)
	t.phase.Store(uint32(id))
	return id
}

func (t *tracer) roleOf(addr string) nodeRole {
	if r, ok := t.roles.Load(addr); ok {
		return r.(nodeRole)
	}
	return roleClient
}

// beginRoot opens the root span of worker w's next core call; kind is the
// interned name of the phase's op.
func (t *tracer) beginRoot(w int, kind uint8) {
	if !t.on.Load() {
		return
	}
	sh := t.clients[w]
	if sh == nil {
		return
	}
	i := sh.add(span{start: t.now(), parent: -1, kind: spanRoot,
		name: kind, phase: uint8(t.phase.Load())})
	t.roots[w].Store(i)
}

func (t *tracer) endRoot(w int) {
	i := t.roots[w].Swap(-1)
	if i < 0 {
		return
	}
	sh := t.clients[w]
	now := t.now()
	sh.mu.Lock()
	if !sh.frozen {
		sh.spans[i].end = now
	}
	sh.mu.Unlock()
}

// freeze ends recording for good. A call that began while the tracer was on
// may return after the run (a Raft batch in flight when its node stops);
// its span is dropped, so that analysis reads shards nobody writes.
func (t *tracer) freeze() {
	t.on.Store(false)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sh := range t.shards {
		sh.mu.Lock()
		sh.frozen = true
		sh.mu.Unlock()
	}
}

// writeSpans dumps every span as one JSON array, one object per line. The
// tracer must be frozen.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "[")
	first := true
	for _, sh := range t.shards {
		for i := range sh.spans {
			sp := &sh.spans[i]
			if !first {
				fmt.Fprintln(w, ",")
			}
			first = false
			fmt.Fprintf(w, `{"node":%q,"id":%d,"kind":%q,"name":%q,"phase":%q,"op":%d,"peer":%q,`+
				`"parent":%d,"start_ns":%d,"end_ns":%d,"bytes":%d,"aux":%d,"fail":%t}`,
				sh.label, i, sp.kind.String(), t.names[sp.name], t.names[sp.phase], sp.op, sp.peer.String(),
				sp.parent, sp.start, sp.end, sp.bytes, sp.aux, sp.fail)
		}
	}
	fmt.Fprintln(w, "\n]")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---------------------------------------------------------------------------
// Analysis helpers.

// selfTimes returns, for every finished root span named kind, its duration
// minus the union of the intervals its child spans cover, in microseconds:
// the time spent in core and client code rather than waiting on the wire.
func (t *tracer) selfTimes(kind string) []float64 {
	id, ok := t.byName[kind]
	if !ok {
		return nil
	}
	var out []float64
	for _, sh := range t.shards {
		if sh.role != roleClient {
			continue
		}
		children := map[int32][][2]int64{}
		for i := range sh.spans {
			sp := &sh.spans[i]
			if sp.kind != spanRoot && sp.parent >= 0 && sp.end > sp.start {
				children[sp.parent] = append(children[sp.parent], [2]int64{sp.start, sp.end})
			}
		}
		for i := range sh.spans {
			root := &sh.spans[i]
			if root.kind != spanRoot || root.name != id || root.end <= root.start {
				continue
			}
			out = append(out, float64(root.end-root.start-covered(children[int32(i)], root.start, root.end))/1e3)
		}
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, end int64 = 0, lo
	for _, iv := range ivs {
		s, e := iv[0], iv[1]
		if s < end {
			s = end
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			end = e
		}
	}
	return total
}

// each calls f for every span of every shard.
func (t *tracer) each(f func(sh *shard, sp *span)) {
	for _, sh := range t.shards {
		for i := range sh.spans {
			f(sh, &sh.spans[i])
		}
	}
}

func durUS(sp *span) float64 { return float64(sp.end-sp.start) / 1e3 }
