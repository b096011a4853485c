package client

import (
	"errors"
	"fmt"

	"cfs/internal/proto"
	"cfs/internal/util"
)

// ExtentReader streams extent reads through pooled read sessions
// (OpDataReadStream) with a sliding readahead window - the read-side twin
// of ExtentWriter.
//
// ReadAt serves one extent range. When consecutive calls continue a
// sequential run (same extent, next offset - the fio SeqRead shape), the
// reader keeps up to depth read requests in flight AHEAD of the caller,
// bounded by the contiguous extent span the caller declares known, so the
// per-block propagation delay is paid once per window instead of once per
// block. Fetched-but-unconsumed chunks are retained across ReadAt calls
// (the cross-call readahead buffer); callers must Invalidate on writes
// and overwrites for read-your-writes. The depth covers the session's
// least round trip (streamDepth), capped at util.DefaultReadWindow.
//
// Replica choice is committed-clamped follower offload: the reader
// round-robins runs across the partition's followers and falls back
// replica by replica - ending at the leader - when one is unreachable,
// hung (the session watchdog converts that into an error), or refuses the
// range because its gossiped committed offset still trails it (the
// Section 2.2.5 clamp) or its overwrite fence is raised (each request
// carries the overwrite version this client was acked for the extent). A
// stale-epoch reject retires the session, re-pulls the view, and retries
// against the reconfigured partition.
//
// An ExtentReader is not safe for concurrent use; core.File serializes
// access under its own mutex.
type ExtentReader struct {
	d   *DataClient
	win int // readahead cap, requests (util.DefaultReadWindow)

	// cur is the run the caller is reading. next is the prefetched
	// continuation (cross-extent readahead): once cur's frontier hits its
	// limit, spare window slots prefetch the hinted next extent, and the
	// run is adopted wholesale when the caller's scan rolls onto it - the
	// readahead window straddles the extent boundary instead of draining
	// and refilling cold.
	cur, next run
	seq       bool // a continuation was observed; prefetch ahead
}

// run is one sequential run over one extent: where it reads from, the
// replica serving it and the requests it has in flight. The zero run
// requests nothing (its frontier is at its limit).
type run struct {
	pid     uint64
	extent  uint64
	epoch   uint64
	sess    *session
	cands   []string // replica attempt order for this run; leader last
	candIdx int

	reqs    []*readReq // issued requests in extent-offset order
	headOff uint64     // bytes of reqs[0] already consumed
	pos     uint64     // next extent offset the caller will receive
	front   uint64     // prefetch frontier
	limit   uint64     // contiguous known end; never request past it
}

// NewExtentReader returns a streaming reader over the client's pooled
// read sessions. Callers keep one per file for cross-call readahead.
func (d *DataClient) NewExtentReader() *ExtentReader {
	return &ExtentReader{d: d, win: util.DefaultReadWindow}
}

// at reports whether the run continues at extent offset off of ek.
func (u *run) at(ek proto.ExtentKey, off uint64) bool {
	return u.pid == ek.PartitionID && u.extent == ek.ExtentID && u.pos == off
}

// ReadAt fills p from [extentOff, extentOff+len(p)) of the extent ek names.
// known is the end of the contiguous byte span the caller knows exists in
// that extent (from its extent keys); the reader prefetches toward it on
// sequential runs but never requests past it. Returns the bytes read; on
// error the prefix read so far is valid.
func (r *ExtentReader) ReadAt(ek proto.ExtentKey, extentOff uint64, p []byte, known uint64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	end := extentOff + uint64(len(p))
	if known < end {
		known = end
	}
	read := 0
	stales := 0
	for read < len(p) {
		at := extentOff + uint64(read)
		if !r.cur.at(ek, at) {
			r.cur.drop() // the old run's leftovers (normally already drained)
			if r.next.sess != nil && r.next.at(ek, at) {
				// The scan rolled onto the prefetched continuation: the
				// sequential run and its in-flight prefetch survive.
				r.cur, r.next = r.next, run{}
			} else {
				// A new run; its candidate order is picked at bind, so
				// every run round-robins across followers.
				r.cur = run{pid: ek.PartitionID, extent: ek.ExtentID, pos: at, front: at}
				r.seq = false
			}
		}
		if known > r.cur.limit {
			r.cur.limit = known
		}
		err := r.bind(&r.cur)
		if err == nil {
			err = r.fill(end)
		}
		if err == nil {
			var n int
			n, err = r.cur.consume(p[read:])
			read += n
			if err == nil {
				continue
			}
		}
		// One replica's attempt failed: drop the run's requests (their
		// session is dead or their replica refused) and decide what the
		// retry targets.
		r.cur.drop()
		if errors.Is(err, util.ErrStale) {
			// The view moved (epoch bump, session retirement): re-pull it
			// and rebuild the candidate order against the fresh epoch.
			stales++
			if stales > r.d.cfg.MaxRetries {
				return read, err
			}
			_ = r.d.refresh()
			r.cur.cands, r.cur.candIdx = nil, 0
			continue
		}
		r.cur.candIdx++
		if r.cur.cands != nil && r.cur.candIdx < len(r.cur.cands) {
			continue // fall back to the next replica (the leader is last)
		}
		return read, err
	}
	// The next contiguous ReadAt continues this run; prefetch ahead of it.
	r.seq = true
	return len(p), nil
}

// bind binds u to a pooled read session on its current candidate
// replica, resolving the partition's epoch from the view.
func (r *ExtentReader) bind(u *run) error {
	if u.sess != nil && u.sess.Err() == nil {
		return nil
	}
	dp, err := r.d.partitionInfo(u.pid)
	if err != nil {
		return err
	}
	u.epoch = dp.ReplicaEpoch
	if u.cands == nil {
		u.cands, u.candIdx = r.d.offloadOrder(dp), 0
	}
	// Refusal horizons: skip candidates a fresh clamp note says still
	// trail the run's next packet - they would just refuse it again. The
	// last candidate (the leader) always serves committed bytes and is
	// never skipped.
	need := u.pos + uint64(r.d.cfg.PacketSize)
	if u.limit > 0 && need > u.limit {
		need = u.limit
	}
	for u.candIdx < len(u.cands)-1 &&
		r.d.readPool.clampedBelow(u.cands[u.candIdx], u.pid, u.extent, need) {
		u.candIdx++
	}
	if u.candIdx >= len(u.cands) {
		return fmt.Errorf("client: read dp %d: no replica left to try: %w", u.pid, util.ErrNoAvailableNode)
	}
	s, err := r.d.readPool.session(u.cands[u.candIdx], dp.ReplicaEpoch)
	if err != nil {
		return err
	}
	u.sess = s
	return nil
}

// fill tops the in-flight window up: at least through needEnd, and on a
// sequential run up to a full window ahead of the consumer, clamped at
// the known-contiguous limit. Once the current run is fully requested,
// leftover window slots prefetch the next run - best-effort by design:
// any failure just drops the hint and the extent roll re-fetches through
// a new (cold) run.
func (r *ExtentReader) fill(needEnd uint64) error {
	depth := streamDepth(r.win, r.cur.sess.RTT())
	target := needEnd
	if r.seq {
		if ahead := r.cur.pos + uint64(depth)*uint64(r.d.cfg.PacketSize); ahead > target {
			target = ahead
		}
	}
	if target > r.cur.limit {
		target = r.cur.limit
	}
	// Sequential runs issue full packets clamped only at the known limit
	// (over-fetching ahead of the consumer is the point of readahead); a
	// run not yet known to be sequential fetches exactly the caller's
	// range, so a one-off streamed read never over-reads the replica.
	bound := r.cur.limit
	if !r.seq {
		bound = target
	}
	if err := r.issue(&r.cur, target, bound, depth); err != nil {
		return err
	}
	if r.seq && r.cur.front >= r.cur.limit && r.next.front < r.next.limit {
		// The two runs together keep at most depth requests in flight.
		if r.bind(&r.next) != nil || r.issue(&r.next, r.next.limit, r.next.limit, depth-len(r.cur.reqs)) != nil {
			r.ClearNextHint()
		}
	}
	return nil
}

// issue sends u's requests from its frontier toward target, one packet
// each clamped at bound, while u has fewer than slots in flight.
func (r *ExtentReader) issue(u *run, target, bound uint64, slots int) error {
	packet := uint64(r.d.cfg.PacketSize)
	for u.front < target && len(u.reqs) < slots {
		span := util.MinU64(packet, bound-u.front)
		req, err := r.d.readPool.read(u.sess, u.pid, u.extent, u.front, uint32(span), u.epoch,
			r.d.ackedVersion(u.pid, u.extent))
		if err != nil {
			return err
		}
		u.reqs = append(u.reqs, req)
		u.front += span
	}
	return nil
}

// SetNextHint tells the reader where the file continues once the current
// extent's known span is exhausted: nek's extent, starting at extent
// offset start, contiguously known through known. core.File re-derives
// the hint from its extent keys after each streamed read.
func (r *ExtentReader) SetNextHint(nek proto.ExtentKey, start, known uint64) {
	if r.next.at(nek, start) {
		if known > r.next.limit {
			r.next.limit = known // the continuation grew; prefetch further
		}
		return
	}
	r.next.drop()
	r.next = run{pid: nek.PartitionID, extent: nek.ExtentID, pos: start, front: start, limit: known}
}

// ClearNextHint drops the continuation hint (no next extent is known).
func (r *ExtentReader) ClearNextHint() {
	r.next.drop()
	r.next = run{}
}

// consume copies bytes from the run's head request into p, blocking until
// it completes (the session's reply deadline bounds the wait).
func (u *run) consume(p []byte) (int, error) {
	if len(u.reqs) == 0 {
		return 0, fmt.Errorf("client: read dp %d: empty readahead window: %w", u.pid, util.ErrInvalidArgument)
	}
	req := u.reqs[0]
	<-req.done
	if req.err != nil {
		return 0, req.err
	}
	n := 0
	skip := u.headOff
	for _, c := range req.chunks {
		if skip >= uint64(len(c)) {
			skip -= uint64(len(c))
			continue
		}
		m := copy(p[n:], c[skip:])
		n += m
		skip = 0
		if n == len(p) {
			break
		}
	}
	u.headOff += uint64(n)
	u.pos += uint64(n)
	if u.headOff >= uint64(req.length) {
		u.reqs = u.reqs[1:]
		u.headOff = 0
		recycleChunks(req) // fully consumed; hand the buffers back
	}
	return n, nil
}

// drop abandons the run's requests, releasing retained chunks (session-
// side recycling handles the in-flight ones), and unbinds its session:
// the run resumes from its position on the next bind.
func (u *run) drop() {
	for _, req := range u.reqs {
		req.abandon()
	}
	u.reqs, u.headOff, u.front, u.sess = nil, 0, u.pos, nil
}

// Invalidate discards the readahead state (buffered and in-flight chunks
// alike). core.File calls it on every write and overwrite so a later read
// observes the new bytes, not a stale prefetch (read-your-writes).
func (r *ExtentReader) Invalidate() {
	r.cur.drop()
	r.ClearNextHint()
	r.cur, r.seq = run{}, false
}

// Close releases the reader's buffers. Pooled sessions stay open for
// other readers and idle-retire on their own.
func (r *ExtentReader) Close() { r.Invalidate() }
