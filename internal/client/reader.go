package client

import (
	"errors"
	"fmt"
	"time"

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
// least round trip (readDepth), capped at Config.ReadWindow.
//
// Replica choice is committed-clamped follower offload: the reader
// round-robins runs across the partition's followers and falls back
// replica by replica - ending at the leader - when one is unreachable,
// hung (the session watchdog converts that into an error), or refuses the
// range because its gossiped committed offset still trails it (the
// Section 2.2.5 clamp). A stale-epoch reject retires the session, re-pulls
// the view, and retries against the reconfigured partition.
//
// An ExtentReader is not safe for concurrent use; core.File serializes
// access under its own mutex.
type ExtentReader struct {
	d   *DataClient
	win int // readahead cap, requests (Config.ReadWindow)

	// Current sequential run.
	pid     uint64
	extent  uint64
	epoch   uint64
	sess    *session
	cands   []string // replica attempt order for this run; leader last
	candIdx int

	reqs     []*readReq // issued requests in extent-offset order
	headOff  uint64     // bytes of reqs[0] already consumed
	consumed uint64     // next extent offset the caller will receive
	nextOff  uint64     // prefetch frontier
	limit    uint64     // contiguous known end; never request past it
	seqRun   bool       // a continuation was observed; prefetch ahead

	// Next-run prefetch (cross-extent readahead): once the current
	// extent's frontier hits its limit, spare window slots prefetch the
	// hinted continuation extent, and the run is promoted wholesale when
	// the caller's scan rolls onto it - the readahead window straddles
	// the extent boundary instead of draining and refilling cold.
	nextEK      proto.ExtentKey
	nextStart   uint64 // first extent offset of the continuation run
	nextKnown   uint64 // contiguous known end within the next extent
	nextValid   bool
	nextSess    *session
	nextEpoch   uint64
	nextCands   []string
	nextCandIdx int
	nextReqs    []*readReq
	nextFront   uint64 // prefetch frontier within the next extent
}

// packetTime is how long one 128 KiB packet takes at the highest rate one
// read stream should sustain: 50 us is 2.5 GiB/s, above what a stream
// reaches on TCP loopback. A window deeper than the round trip divided by
// packetTime cannot raise the rate; it only buffers received chunks,
// which on loopback pushed the copy-out into cold memory (EXPERIMENTS.md
// "Readahead depth follows the least round trip").
const packetTime = 50 * time.Microsecond

// readFloor is the least readahead depth, whatever the round trip: four
// requests keep the data node's reply queue (readaheadFrames, 4 frames)
// full, so its store reads overlap its socket writes. On loopback, fixed
// windows of 4 and 8 both read about 1.35x faster than 32.
const readFloor = 4

// readDepth is how many requests a sequential run keeps in flight over a
// session whose least round trip is rtt: enough packets to cover the
// round trip at packetTime each, at least readFloor, at most win. The
// least round trip, not a recent one, because every later sample also
// counts the queue the window itself builds: a depth sized from those
// would feed its own growth.
func readDepth(win int, rtt time.Duration) int {
	n := int((rtt + packetTime - 1) / packetTime)
	return min(win, max(readFloor, n))
}

// NewExtentReader returns a streaming reader over the client's pooled
// read sessions. Callers keep one per file for cross-call readahead.
func (d *DataClient) NewExtentReader() *ExtentReader {
	return &ExtentReader{d: d, win: d.cfg.ReadWindow}
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
		cur := extentOff + uint64(read)
		if r.pid != ek.PartitionID || r.extent != ek.ExtentID || r.consumed != cur {
			if !r.promoteNext(ek, cur) {
				r.beginRun(ek, cur)
			}
		}
		if known > r.limit {
			r.limit = known
		}
		err := r.ensureSession()
		if err == nil {
			err = r.fill(end)
		}
		if err == nil {
			var n int
			n, err = r.consume(p[read:])
			read += n
			if err == nil {
				continue
			}
		}
		// One replica's attempt failed: drop the run's buffers (their
		// session is dead or their replica refused) and decide what the
		// retry targets.
		r.dropBuffers()
		r.nextOff = r.consumed
		r.sess = nil
		if errors.Is(err, util.ErrStale) {
			// The view moved (epoch bump, session retirement): re-pull it
			// and rebuild the candidate order against the fresh epoch.
			stales++
			if stales > r.d.cfg.MaxRetries {
				return read, err
			}
			r.d.refreshView()
			r.cands, r.candIdx = nil, 0
			continue
		}
		r.candIdx++
		if r.cands != nil && r.candIdx < len(r.cands) {
			continue // fall back to the next replica (the leader is last)
		}
		return read, err
	}
	// The next contiguous ReadAt continues this run; prefetch ahead of it.
	r.seqRun = true
	return len(p), nil
}

// beginRun resets the reader onto a new (extent, offset) position. The
// replica candidate order is re-picked lazily so every run round-robins
// across followers.
func (r *ExtentReader) beginRun(ek proto.ExtentKey, off uint64) {
	r.dropBuffers()
	r.pid, r.extent = ek.PartitionID, ek.ExtentID
	r.consumed, r.nextOff = off, off
	r.limit = 0
	r.seqRun = false
	r.sess = nil
	r.cands, r.candIdx = nil, 0
}

// ensureSession binds the run to a pooled read session on the current
// candidate replica, resolving the partition's epoch from the view.
func (r *ExtentReader) ensureSession() error {
	if r.sess != nil && r.sess.healthy() {
		return nil
	}
	dp, err := r.d.partitionInfo(r.pid)
	if err != nil {
		return err
	}
	r.epoch = dp.ReplicaEpoch
	if r.cands == nil {
		r.cands = r.d.offloadOrder(dp, r.extent)
		r.candIdx = 0
	}
	// Refusal horizons: skip candidates a fresh clamp note says still
	// trail the run's next packet - they would just refuse it again. The
	// last candidate (the leader) always serves committed bytes and is
	// never skipped.
	need := r.consumed + uint64(r.d.cfg.PacketSize)
	if r.limit > 0 && need > r.limit {
		need = r.limit
	}
	for r.candIdx < len(r.cands)-1 &&
		r.d.readPool.clampedBelow(r.cands[r.candIdx], r.pid, r.extent, need) {
		r.candIdx++
	}
	if r.candIdx >= len(r.cands) {
		return fmt.Errorf("client: read dp %d: no replica left to try: %w", r.pid, util.ErrNoAvailableNode)
	}
	s, err := r.d.readPool.session(r.cands[r.candIdx], dp.ReplicaEpoch)
	if err != nil {
		return err
	}
	r.sess = s
	return nil
}

// fill tops the in-flight window up: at least through needEnd, and on a
// sequential run up to a full window ahead of the consumer, clamped at
// the known-contiguous limit.
func (r *ExtentReader) fill(needEnd uint64) error {
	packet := uint64(r.d.cfg.PacketSize)
	depth := readDepth(r.win, r.sess.rtt())
	target := needEnd
	if r.seqRun {
		if ahead := r.consumed + uint64(depth)*packet; ahead > target {
			target = ahead
		}
	}
	if target > r.limit {
		target = r.limit
	}
	// Sequential runs issue full packets clamped only at the known limit
	// (over-fetching ahead of the consumer is the point of readahead); a
	// run not yet known to be sequential fetches exactly the caller's
	// range, so a one-off streamed read never over-reads the replica.
	bound := r.limit
	if !r.seqRun {
		bound = target
	}
	for r.nextOff < target && len(r.reqs) < depth {
		span := util.MinU64(packet, bound-r.nextOff)
		req, err := r.d.readPool.read(r.sess, r.pid, r.extent, r.nextOff, uint32(span), r.epoch)
		if err != nil {
			return err
		}
		r.reqs = append(r.reqs, req)
		r.nextOff += span
	}
	// Current extent fully requested: spend leftover window slots on the
	// hinted continuation extent.
	if r.seqRun && r.nextValid && r.nextOff >= r.limit {
		r.fillNext(depth)
	}
	return nil
}

// fillNext prefetches the hinted next-extent run into spare window slots,
// the two runs together keeping at most depth requests in flight.
// Best-effort by design: any failure just drops the hint and the extent
// roll re-fetches through the normal (cold) path.
func (r *ExtentReader) fillNext(depth int) {
	if r.nextFront >= r.nextKnown {
		return
	}
	if r.nextSess == nil || !r.nextSess.healthy() {
		if !r.bindNextSession() {
			r.dropNext()
			return
		}
	}
	packet := uint64(r.d.cfg.PacketSize)
	for r.nextFront < r.nextKnown && len(r.reqs)+len(r.nextReqs) < depth {
		span := util.MinU64(packet, r.nextKnown-r.nextFront)
		req, err := r.d.readPool.read(r.nextSess, r.nextEK.PartitionID, r.nextEK.ExtentID,
			r.nextFront, uint32(span), r.nextEpoch)
		if err != nil {
			r.dropNext()
			return
		}
		r.nextReqs = append(r.nextReqs, req)
		r.nextFront += span
	}
}

// bindNextSession resolves the continuation extent's partition and binds
// a session on its first non-trailing offload candidate.
func (r *ExtentReader) bindNextSession() bool {
	dp, err := r.d.partitionInfo(r.nextEK.PartitionID)
	if err != nil {
		return false
	}
	r.nextEpoch = dp.ReplicaEpoch
	if r.nextCands == nil {
		r.nextCands = r.d.offloadOrder(dp, r.nextEK.ExtentID)
		r.nextCandIdx = 0
	}
	need := r.nextStart + uint64(r.d.cfg.PacketSize)
	if need > r.nextKnown {
		need = r.nextKnown
	}
	for r.nextCandIdx < len(r.nextCands)-1 &&
		r.d.readPool.clampedBelow(r.nextCands[r.nextCandIdx], r.nextEK.PartitionID, r.nextEK.ExtentID, need) {
		r.nextCandIdx++
	}
	if r.nextCandIdx >= len(r.nextCands) {
		return false
	}
	s, err := r.d.readPool.session(r.nextCands[r.nextCandIdx], dp.ReplicaEpoch)
	if err != nil {
		return false
	}
	r.nextSess = s
	return true
}

// promoteNext adopts the prefetched continuation run when the caller's
// scan rolls onto exactly where it begins: the sequential run and any
// in-flight prefetch survive the extent boundary.
func (r *ExtentReader) promoteNext(ek proto.ExtentKey, off uint64) bool {
	if !r.nextValid || r.nextSess == nil ||
		ek.PartitionID != r.nextEK.PartitionID || ek.ExtentID != r.nextEK.ExtentID ||
		off != r.nextStart {
		return false
	}
	wasSeq := r.seqRun
	r.dropBuffers() // the old extent's leftovers (normally already drained)
	r.pid, r.extent = ek.PartitionID, ek.ExtentID
	r.epoch = r.nextEpoch
	r.sess = r.nextSess
	r.cands, r.candIdx = r.nextCands, r.nextCandIdx
	r.reqs = r.nextReqs
	r.headOff = 0
	r.consumed = off
	r.nextOff = r.nextFront
	r.limit = r.nextKnown
	r.seqRun = wasSeq
	r.nextReqs = nil
	r.nextSess = nil
	r.nextValid = false
	r.nextCands, r.nextCandIdx = nil, 0
	return true
}

// SetNextHint tells the reader where the file continues once the current
// extent's known span is exhausted: nek's extent, starting at extent
// offset start, contiguously known through known. core.File re-derives
// the hint from its extent keys after each streamed read.
func (r *ExtentReader) SetNextHint(nek proto.ExtentKey, start, known uint64) {
	if r.nextValid && nek.PartitionID == r.nextEK.PartitionID &&
		nek.ExtentID == r.nextEK.ExtentID && start == r.nextStart {
		if known > r.nextKnown {
			r.nextKnown = known // the continuation grew; prefetch further
		}
		return
	}
	r.dropNext()
	r.nextEK = nek
	r.nextStart, r.nextFront, r.nextKnown = start, start, known
	r.nextValid = true
}

// ClearNextHint drops the continuation hint (no next extent is known).
func (r *ExtentReader) ClearNextHint() { r.dropNext() }

// dropNext abandons the next-run prefetch state.
func (r *ExtentReader) dropNext() {
	for _, req := range r.nextReqs {
		req.abandon()
	}
	r.nextReqs = nil
	r.nextSess = nil
	r.nextValid = false
	r.nextCands, r.nextCandIdx = nil, 0
}

// consume copies bytes from the window head into p, blocking until the
// head request completes (the session's reply deadline bounds the wait).
func (r *ExtentReader) consume(p []byte) (int, error) {
	if len(r.reqs) == 0 {
		return 0, fmt.Errorf("client: read dp %d: empty readahead window: %w", r.pid, util.ErrInvalidArgument)
	}
	req := r.reqs[0]
	<-req.done
	if req.err != nil {
		return 0, req.err
	}
	n := 0
	skip := r.headOff
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
	r.headOff += uint64(n)
	r.consumed += uint64(n)
	if r.headOff >= uint64(req.length) {
		r.reqs = r.reqs[1:]
		r.headOff = 0
		recycleChunks(req) // fully consumed; hand the buffers back
	}
	return n, nil
}

// dropBuffers abandons every outstanding request and releases retained
// chunks (session-side recycling handles the in-flight ones).
func (r *ExtentReader) dropBuffers() {
	for _, req := range r.reqs {
		req.abandon()
	}
	r.reqs = nil
	r.headOff = 0
}

// Invalidate discards the readahead state (buffered and in-flight chunks
// alike). core.File calls it on every write and overwrite so a later read
// observes the new bytes, not a stale prefetch (read-your-writes).
func (r *ExtentReader) Invalidate() {
	r.dropBuffers()
	r.dropNext()
	r.pid, r.extent = 0, 0
	r.consumed, r.nextOff, r.limit = 0, 0, 0
	r.seqRun = false
	r.sess = nil
	r.cands, r.candIdx = nil, 0
}

// Close releases the reader's buffers. Pooled sessions stay open for
// other readers and idle-retire on their own.
func (r *ExtentReader) Close() { r.Invalidate() }
