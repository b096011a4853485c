package client

import (
	"fmt"
	"sync"
	"time"

	"cfs/internal/proto"
	"cfs/internal/util"
)

// ExtentWriter streams sequential writes to one extent through a pooled
// replication session (OpDataWriteStream) with a sliding in-flight window:
// the paper's one sequential-write protocol (Section 2.2.4, Figure 4).
//
// Write slices data into packets and pushes them without waiting for acks;
// the session's dispatcher routes the in-order acks back - each one meaning
// the packet is stored on every replica - and the writer turns them into
// extent keys. Errors propagate in order: the first failed sequence poisons
// the writer, and Drain reports every later packet as uncommitted (returned
// as PendingWrite so the caller can replay them on a fresh extent). A
// session-fatal failure (transport error, ack deadline, server abort)
// poisons every writer sharing the session; the pool redials for the next
// one.
//
// The window is adaptive by default: a windowed-minimum ack round trip
// (BBR-style, favoring samples taken at low window occupancy so the
// writer's own queueing does not inflate the estimate) over the
// EWMA-smoothed spacing between consecutive acks estimates the
// bandwidth-delay product in packets, and the window tracks it between 1
// and MaxWriteWindow - a high-latency path grows the window to keep the
// pipe full, a fast local one shrinks it to bound
// buffered-but-uncommitted bytes. Config.WriteWindow is the starting point
// (and the fixed size when DisableAdaptiveWindow pins it for ablations;
// pinned at 1 the writer is stop-and-wait over the stream); a fresh writer
// seeds its controller from the session's last estimate, so an extent roll
// does not relearn the BDP.
//
// An ExtentWriter is not safe for concurrent use; core.File serializes
// access under its own mutex.
type ExtentWriter struct {
	d    *DataClient
	dp   proto.DataPartitionInfo
	sess *session

	mu      sync.Mutex
	cond    *sync.Cond
	win     winController
	pending []*streamPkt
	keys    []proto.ExtentKey // committed since the last Drain, seq order
	err     error             // first writer error; sticky
	extent  uint64
}

// streamPkt is one packet the writer has accepted but not yet seen acked.
type streamPkt struct {
	w       *ExtentWriter
	fileOff uint64
	data    []byte
	crc     uint32 // payload CRC, computed once at enqueue
	create  bool
	sentAt  time.Time // stamped by the session; feeds the RTT estimate
	// qdepth is how many packets this writer already had in flight when
	// the packet was registered: samples sent into a near-empty window
	// carry almost no self-induced queueing delay, so they qualify for
	// the controller's min-RTT filter.
	qdepth int
}

// PendingWrite is an accepted-but-uncommitted chunk surfaced by Drain
// after a session failure, ready to be replayed on another partition.
type PendingWrite struct {
	FileOffset uint64
	Data       []byte
}

// winController sizes the in-flight window from observed ack behavior: a
// windowed-minimum ack round trip over EWMA-smoothed inter-ack spacing is
// the bandwidth-delay product in packets, and the window walks one step
// per ack toward it (step-wise so one outlier ack cannot halve the
// window).
//
// The min filter is the fix for self-congestion: an EWMA of ALL samples
// includes the queueing delay the writer itself induces, so a saturating
// writer's smoothed RTT tracks cur*gap and the target ratchets to the
// MaxWriteWindow cap instead of the true BDP - maximizing the
// accepted-but-uncommitted bytes an abort must replay. BBR's answer,
// adopted here: estimate propagation delay as the minimum over a sliding
// window of samples, trusting primarily those taken at LOW window
// occupancy (little of the writer's own queue ahead of them), and let the
// minimum expire so a genuine path change is relearned.
type winController struct {
	cur      int
	max      int
	adaptive bool

	sgap    float64 // smoothed gap between consecutive acks, seconds
	minRTT  float64 // windowed-min round trip, seconds; 0 = unknown
	minAge  int     // acks since minRTT was (re)set
	lastAck time.Time
	busy    bool // last ack left frames in flight (gap is a service gap)
}

const ewmaAlpha = 0.125 // the classic SRTT weight

// minRTTWindow bounds the age of the min-RTT estimate in acks; past it the
// next qualifying sample restarts the minimum so route or load changes are
// not pinned to an ancient best case.
const minRTTWindow = 256

// lowOccupancy reports whether a packet entered a window shallow enough
// (at most a quarter full, or empty) for its round trip to approximate the
// true propagation delay.
func (w *winController) lowOccupancy(qdepth int) bool {
	return qdepth == 0 || qdepth*4 <= w.cur
}

func (w *winController) observe(rtt time.Duration, now time.Time, stillBusy bool, qdepth int) {
	if !w.adaptive {
		return
	}
	w.noteRTT(rtt, qdepth)
	if w.busy && !w.lastAck.IsZero() {
		// Only gaps between acks of a continuously busy window measure the
		// pipe's service rate; idle stretches would inflate them.
		w.noteGap(now.Sub(w.lastAck).Seconds())
	}
	w.lastAck, w.busy = now, stillBusy
	w.step()
}

// observeRead is the reader-side observation. Request COMPLETIONS cannot
// feed the gap estimate the way write acks do: the reader issues requests
// as the consumer drains them, so completion spacing measures the
// consumer's clock, not the pipe's - at small windows the gap degenerates
// to the RTT, the BDP target to 1, and window=1 is an absorbing state
// (one in-flight request produces no busy gaps to relearn from). The
// producer-clocked signal reads DO have is the spacing of chunk frames
// INSIDE one request - the server streams them back to back, so their
// arrival gap is the pipe's per-chunk service time - scaled by the
// request's chunk count to a per-request service gap.
func (w *winController) observeRead(rtt time.Duration, serviceGap time.Duration, qdepth int) {
	if !w.adaptive {
		return
	}
	w.noteRTT(rtt, qdepth)
	w.noteGap(serviceGap.Seconds())
	w.step()
}

// noteRTT folds one round-trip sample into the windowed-min estimate.
func (w *winController) noteRTT(rtt time.Duration, qdepth int) {
	r := rtt.Seconds()
	w.minAge++
	switch {
	case w.minRTT == 0:
		w.minRTT, w.minAge = r, 0
	case r < w.minRTT:
		w.minRTT, w.minAge = r, 0
	case w.minAge > minRTTWindow && w.lowOccupancy(qdepth):
		// Expiry: restart from a fresh low-occupancy sample only, so a
		// saturating writer cannot launder its queueing delay into the
		// propagation estimate just by aging the minimum out.
		w.minRTT, w.minAge = r, 0
	}
}

// noteGap folds one service-gap sample into the EWMA (non-positive
// samples carry no information and are dropped).
func (w *winController) noteGap(g float64) {
	if g <= 0 {
		return
	}
	if w.sgap == 0 {
		w.sgap = g
	} else {
		w.sgap += ewmaAlpha * (g - w.sgap)
	}
}

// step walks the window one unit toward the current BDP target.
func (w *winController) step() {
	if w.sgap <= 0 {
		return
	}
	target := int(w.minRTT/w.sgap) + 1 // BDP in packets, rounded up
	if target > w.max {
		target = w.max
	}
	switch {
	case target > w.cur:
		w.cur++
	case target < w.cur && w.cur > 1:
		w.cur--
	}
}

// estimate snapshots the controller state worth carrying to a successor
// writer on the same session (cross-extent adaptive state).
func (w *winController) estimate() winEstimate {
	return winEstimate{cur: w.cur, minRTT: w.minRTT, sgap: w.sgap}
}

// seed primes a fresh controller from a predecessor's estimate, clamped to
// this writer's cap.
func (w *winController) seed(e winEstimate) {
	if !w.adaptive || e.cur <= 0 {
		return
	}
	w.cur = e.cur
	if w.cur > w.max {
		w.cur = w.max
	}
	if w.cur < 1 {
		w.cur = 1
	}
	w.minRTT = e.minRTT
	w.sgap = e.sgap
}

// NewExtentWriter binds a writer to dp's pooled replication session (one
// pinned stream per partition leader, shared by every writer) and creates
// a fresh extent through it - the create hop rides the stream, not a
// separate Call fan-out, and on a warm session not even a dial.
func (d *DataClient) NewExtentWriter(dp proto.DataPartitionInfo) (*ExtentWriter, error) {
	w, err := d.newStreamWriter(dp, d.cfg.WriteWindow, !d.cfg.DisableAdaptiveWindow)
	if err != nil {
		return nil, err
	}
	if err := w.createExtent(); err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

func (d *DataClient) newStreamWriter(dp proto.DataPartitionInfo, window int, adaptive bool) (*ExtentWriter, error) {
	if window < 1 {
		window = 1
	}
	max := d.cfg.MaxWriteWindow
	if max < window {
		max = window
	}
	sess, err := d.writeSession(dp)
	if err != nil {
		return nil, err
	}
	w := &ExtentWriter{
		d: d, dp: dp, sess: sess,
		win: winController{cur: window, max: max, adaptive: adaptive},
	}
	// Cross-extent adaptive state: the session remembers the last writer's
	// converged estimate, so an extent roll starts at the learned BDP
	// instead of relearning from the start window.
	w.win.seed(sess.windowHint())
	w.cond = sync.NewCond(&w.mu)
	return w, nil
}

// Partition returns the data partition the writer is bound to.
func (w *ExtentWriter) Partition() proto.DataPartitionInfo { return w.dp }

// createExtent sends the create hop and waits for its ack (one round trip
// per extent; appends then stream against the assigned id).
func (w *ExtentWriter) createExtent() error {
	sp := &streamPkt{w: w, create: true}
	w.register(sp)
	if err := w.send(sp, func(seq uint64) *proto.Packet {
		return &proto.Packet{
			Op:          proto.OpDataCreateExtent,
			ReqID:       seq,
			PartitionID: w.dp.PartitionID,
			Epoch:       w.dp.ReplicaEpoch,
		}
	}); err != nil {
		return err
	}
	_, _, err := w.Drain()
	if err != nil {
		return fmt.Errorf("client: create extent on dp %d: %w", w.dp.PartitionID, err)
	}
	return nil
}

// register appends p to the writer's window FIFO. Callers must send the
// matching packet before registering the next one.
func (w *ExtentWriter) register(sp *streamPkt) {
	w.mu.Lock()
	sp.qdepth = len(w.pending) // occupancy at entry, for the min-RTT filter
	w.pending = append(w.pending, sp)
	w.mu.Unlock()
}

// send pushes sp's frame through the session, which stamps the send time
// the RTT estimate is taken from.
func (w *ExtentWriter) send(sp *streamPkt, build func(seq uint64) *proto.Packet) error {
	err := w.sess.send(sp, func(seq uint64, now time.Time) *proto.Packet {
		sp.sentAt = now
		return build(seq)
	})
	if err != nil {
		w.fail(err)
	}
	return err
}

// Write queues data for appending at fileOff, blocking only while the
// in-flight window is full. The returned count is bytes ACCEPTED into the
// window, not yet committed; commit (or failure) is observed via Drain.
// The data is copied, so the caller may reuse the buffer immediately.
func (w *ExtentWriter) Write(fileOff uint64, data []byte) (int, error) {
	written := 0
	packet := w.d.cfg.PacketSize
	for written < len(data) {
		if err := w.waitWindow(); err != nil {
			return written, err
		}
		end := util.Min(written+packet, len(data))
		chunk := append([]byte(nil), data[written:end]...)
		sp := &streamPkt{w: w, fileOff: fileOff + uint64(written), data: chunk, crc: util.CRC(chunk)}
		w.register(sp)
		// The chunk counts as accepted from registration on: even if the
		// send below fails, sp sits in the window and Drain surfaces it
		// as a PendingWrite for replay - reporting it unwritten too would
		// make the caller send the same range twice.
		written = end
		if err := w.send(sp, func(seq uint64) *proto.Packet {
			return &proto.Packet{
				Op:          proto.OpDataAppend,
				ReqID:       seq,
				PartitionID: w.dp.PartitionID,
				ExtentID:    w.extentID(),
				FileOffset:  sp.fileOff,
				Epoch:       w.dp.ReplicaEpoch,
				CRC:         sp.crc,
				Data:        chunk,
			}
		}); err != nil {
			return written, err
		}
	}
	return written, nil
}

// WriteSmall queues one whole small file (ExtentID 0 selects the leader's
// aggregated-extent path, Section 2.2.3).
func (w *ExtentWriter) WriteSmall(fileOff uint64, data []byte) error {
	if err := w.waitWindow(); err != nil {
		return err
	}
	chunk := append([]byte(nil), data...)
	sp := &streamPkt{w: w, fileOff: fileOff, data: chunk, crc: util.CRC(chunk)}
	w.register(sp)
	return w.send(sp, func(seq uint64) *proto.Packet {
		return &proto.Packet{
			Op:          proto.OpDataAppend,
			ReqID:       seq,
			PartitionID: w.dp.PartitionID,
			FileOffset:  fileOff,
			Epoch:       w.dp.ReplicaEpoch,
			CRC:         sp.crc,
			Data:        chunk,
		}
	})
}

func (w *ExtentWriter) waitWindow() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.err == nil && len(w.pending) >= w.win.cur {
		w.cond.Wait()
	}
	return w.err
}

func (w *ExtentWriter) extentID() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.extent
}

// Window returns the writer's current in-flight window size (adaptive
// sizing makes this a moving target; ablations read it).
func (w *ExtentWriter) Window() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.win.cur
}

// Idle reports whether a flush would be a no-op: nothing in flight, no
// committed keys waiting to be collected, no failure to surface.
func (w *ExtentWriter) Idle() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.pending) == 0 && len(w.keys) == 0 && w.err == nil
}

// Drain blocks until every accepted packet is acked or the session fails.
// It returns the extent keys committed since the last Drain (in order) and,
// on failure, the uncommitted chunks for replay. The error is sticky: a
// failed writer stays failed and should be Closed. The session's ack
// deadline bounds the wait - a hung replica surfaces here as an error plus
// the pending tail, never as an indefinite block.
func (w *ExtentWriter) Drain() ([]proto.ExtentKey, []PendingWrite, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.err == nil && len(w.pending) > 0 {
		w.cond.Wait()
	}
	keys := w.keys
	w.keys = nil
	if w.err == nil {
		return keys, nil, nil
	}
	var pend []PendingWrite
	for _, sp := range w.pending {
		if !sp.create {
			pend = append(pend, PendingWrite{FileOffset: sp.fileOff, Data: sp.data})
		}
	}
	w.pending = nil
	return keys, pend, w.err
}

// Close detaches the writer from its session, which stays open for the
// next writer and inherits this one's adaptive-window estimate. Callers
// that care about in-flight data must Drain first.
func (w *ExtentWriter) Close() error {
	w.mu.Lock()
	est := w.win.estimate()
	adaptive := w.win.adaptive
	w.mu.Unlock()
	if adaptive {
		w.sess.noteWindow(est)
	}
	w.fail(fmt.Errorf("client: writer closed: %w", util.ErrClosed))
	return nil
}

func (w *ExtentWriter) fail(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.cond.Broadcast()
	w.mu.Unlock()
}

// handleAck consumes one in-order ack routed by the session. The server
// acks a writer's frames strictly in its send order, so each ack matches
// the window head; an error ack poisons the writer and leaves the rest of
// the window as uncommitted.
func (w *ExtentWriter) handleAck(sp *streamPkt, ack *proto.Packet, now time.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return // poisoned; Drain already owns the pending tail
	}
	if len(w.pending) == 0 || w.pending[0] != sp {
		// A protocol-order violation means the session state cannot be
		// trusted; wrap it retriably so the pending tail is replayed on a
		// fresh session rather than hard-failing the caller's write.
		w.err = fmt.Errorf("client: dp %d: ack for seq %d out of order: %w", w.dp.PartitionID, ack.ReqID, util.ErrTimeout)
		w.cond.Broadcast()
		return
	}
	if ack.ResultCode == proto.ResultErrStaleEpoch {
		// The partition reconfigured (leader failover, replica change):
		// retriable staleness, not a write refusal - the caller refreshes
		// the view, re-dials the current leader, and replays the tail.
		w.err = fmt.Errorf("client: append to dp %d: %s: %w", w.dp.PartitionID, ack.Data, util.ErrStale)
		w.cond.Broadcast()
		return
	}
	if ack.ResultCode == proto.ResultErrAborted {
		// Session abort (a SIBLING writer's replica failure can trigger
		// it): the packet never committed, and the contract is replay,
		// not refusal - same timeout class as a session that died under
		// us, so every caller's retriable-replay path applies.
		w.err = fmt.Errorf("client: append to dp %d: %s: %w", w.dp.PartitionID, ack.Data, util.ErrTimeout)
		w.cond.Broadcast()
		return
	}
	if ack.ResultCode != proto.ResultOK {
		// A data-node reject (extent full, read-only, CRC) means "roll to
		// another partition/extent" upstream.
		w.err = fmt.Errorf("client: append to dp %d: %s: %w", w.dp.PartitionID, ack.Data, util.ErrReadOnly)
		w.cond.Broadcast()
		return
	}
	w.pending = w.pending[1:]
	if sp.create {
		w.extent = ack.ExtentID
	} else {
		w.keys = append(w.keys, proto.ExtentKey{
			PartitionID:  w.dp.PartitionID,
			ExtentID:     ack.ExtentID,
			ExtentOffset: ack.ExtentOffset,
			FileOffset:   sp.fileOff,
			Size:         uint32(len(sp.data)),
			CRC:          sp.crc, // computed once at enqueue; no re-scan per ack
		})
		w.win.observe(now.Sub(sp.sentAt), now, len(w.pending) > 0, sp.qdepth)
	}
	w.cond.Broadcast()
}
