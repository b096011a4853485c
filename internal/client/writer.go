package client

import (
	"fmt"
	"sync"

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
// The depth - how many accepted-but-unacked packets a writer keeps - covers
// the session's least round trip (streamDepth, the rule the reader's
// readahead follows): on a fast path it is the floor, so packets do not
// queue at the leader and make each ack later. It is capped at
// util.DefaultWriteWindow, which bounds the bytes an abort must replay;
// WriteSmallFile pins it at 1, stop-and-wait over the stream.
//
// An ExtentWriter is not safe for concurrent use; core.File serializes
// access under its own mutex.
type ExtentWriter struct {
	d    *DataClient
	dp   proto.DataPartitionInfo
	sess *session

	mu      sync.Mutex
	cond    *sync.Cond
	win     int // in-flight cap, packets (util.DefaultWriteWindow)
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
	// pooled marks data as a util.GetChunk buffer, returned to the pool
	// once every replica has acked it.
	pooled bool
}

// PendingWrite is an accepted-but-uncommitted chunk surfaced by Drain
// after a session failure, ready to be replayed on another partition.
type PendingWrite struct {
	FileOffset uint64
	Data       []byte
}

// NewExtentWriter binds a writer to dp's pooled replication session (one
// pinned stream per partition leader, shared by every writer) and creates
// a fresh extent through it - the create hop rides the stream, not a
// separate Call fan-out, and on a warm session not even a dial.
func (d *DataClient) NewExtentWriter(dp proto.DataPartitionInfo) (*ExtentWriter, error) {
	var w *ExtentWriter
	err := d.whileBusy(func() (err error) {
		if w, err = d.newStreamWriter(dp, util.DefaultWriteWindow); err != nil {
			return err
		}
		if err = w.createExtent(); err != nil {
			w.Close()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return w, nil
}

func (d *DataClient) newStreamWriter(dp proto.DataPartitionInfo, window int) (*ExtentWriter, error) {
	sess, err := d.writeSession(dp)
	if err != nil {
		return nil, err
	}
	w := &ExtentWriter{d: d, dp: dp, sess: sess, win: window}
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
	if err := w.send(sp, &proto.Packet{
		Op:          proto.OpDataCreateExtent,
		PartitionID: w.dp.PartitionID,
		Epoch:       w.dp.ReplicaEpoch,
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
	w.pending = append(w.pending, sp)
	w.mu.Unlock()
}

// send pushes sp's frame through the session.
func (w *ExtentWriter) send(sp *streamPkt, pkt *proto.Packet) error {
	err := w.sess.Send(sp, pkt)
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
		chunk := util.GetChunk(end - written)
		copy(chunk, data[written:end])
		sp := &streamPkt{w: w, fileOff: fileOff + uint64(written), data: chunk, crc: util.CRC(chunk), pooled: true}
		w.register(sp)
		// The chunk counts as accepted from registration on: even if the
		// send below fails, sp sits in the window and Drain surfaces it
		// as a PendingWrite for replay - reporting it unwritten too would
		// make the caller send the same range twice.
		written = end
		if err := w.send(sp, &proto.Packet{
			Op:          proto.OpDataAppend,
			PartitionID: w.dp.PartitionID,
			ExtentID:    w.extentID(),
			FileOffset:  sp.fileOff,
			Epoch:       w.dp.ReplicaEpoch,
			CRC:         sp.crc,
			Data:        chunk,
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
	return w.send(sp, &proto.Packet{
		Op:          proto.OpDataAppend,
		PartitionID: w.dp.PartitionID,
		FileOffset:  fileOff,
		Epoch:       w.dp.ReplicaEpoch,
		CRC:         sp.crc,
		Data:        chunk,
	})
}

// waitWindow blocks while the writer has its depth in flight.
func (w *ExtentWriter) waitWindow() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.err == nil && len(w.pending) >= streamDepth(w.win, w.sess.RTT()) {
		w.cond.Wait()
	}
	return w.err
}

func (w *ExtentWriter) extentID() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.extent
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
// next writer. Callers that care about in-flight data must Drain first.
func (w *ExtentWriter) Close() error {
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
func (w *ExtentWriter) handleAck(sp *streamPkt, ack *proto.Packet) {
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
	if ack.ResultCode == proto.ResultErrAgain {
		// The leader refused to bind the session: a recovery pass holds
		// the partition. Retriable after a pause (whileBusy), and no
		// reason to give up on the partition.
		w.err = fmt.Errorf("client: append to dp %d: %s: %w", w.dp.PartitionID, ack.Data, util.ErrBusy)
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
		if sp.pooled {
			// Only an all-replica ack ends the chunk's use: until then a
			// failure hands it to the caller as a PendingWrite to replay
			// (and then to the GC), as every hop holds its own copy.
			util.PutChunk(sp.data)
			sp.data = nil
		}
	}
	w.cond.Broadcast()
}
