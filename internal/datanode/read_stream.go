package datanode

import (
	"fmt"
	"sync"
	"time"

	"cfs/internal/proto"
	"cfs/internal/transport"
	"cfs/internal/util"
)

// This file implements the server half of the pipelined read path: a read
// session (OpDataReadStream), the read-side twin of the write session in
// stream.go.
//
// A client opens one read session per (replica, epoch) and pushes
// OpDataRead request frames without waiting for replies; the session
// serves them strictly in arrival order, each as one or more CRC-framed
// chunk responses (the request's FileOffset is the byte count wanted, a
// chunk's FileOffset is the bytes remaining after it). Because requests
// overlap in flight, a sequential scan pays the propagation delay once
// per window instead of once per block - Figure 4's pipelining argument
// applied to reads.
//
// Any replica serves the stream: every request passes Partition.admitRead,
// the fence list the unary handleRead shares, which clamps it at the
// extent's locally known all-replica committed offset (the Section 2.2.5
// invariant). That is what makes follower read offload safe - a follower
// holding a replicated-but-uncommitted tail refuses it and the client
// falls back to another replica. Error containment is per-request: a clamp refusal, an unknown
// extent, or a stale client epoch fails only that request's reply; the
// session and later requests are unaffected. The session dies only with
// its transport - or with its client: a watchdog closes sessions whose
// client has been silent past the idle timeout (clients ping idle
// sessions, so silence means the client is gone, exactly like the write
// session's rule).
//
// Read sessions are deliberately SEPARATE from write sessions: a large
// scan streams its chunks over its own transport stream, so it can never
// head-of-line-block the write session's acks (the ROADMAP session-
// fairness item, solved for reads).

// maxStreamReadLen bounds one read request so a corrupt length cannot make
// the session buffer an absurd range.
const maxStreamReadLen = 8 * util.MB

// readaheadFrames is the depth of the session's reply queue, in frames.
// The producer (store reads) runs ahead of the sender (wire writes) by up
// to this many chunk frames, so disk latency and wire latency overlap:
// while chunk k is being written to the socket, chunks k+1..k+4 are
// already read and CRC-stamped. 4 x 128 KB = 512 KB of server-side
// readahead per session, and because requests are served from a single
// FIFO the window rolls across extent boundaries for free - the client's
// next-extent requests pipeline behind the current extent's tail chunks.
const readaheadFrames = 4

type readSession struct {
	d  *DataNode
	cs transport.PacketStream

	mu         sync.Mutex
	lastClient time.Time // last frame received from the client
	closed     bool

	reqc  chan *proto.Packet // recv loop -> producer (request FIFO)
	sendc chan *proto.Packet // producer -> sender (readahead window)

	stopc chan struct{}
	wg    sync.WaitGroup
}

func newReadSession(d *DataNode, cs transport.PacketStream) *readSession {
	return &readSession{
		d: d, cs: cs, lastClient: time.Now(),
		reqc:  make(chan *proto.Packet, 32),
		sendc: make(chan *proto.Packet, readaheadFrames),
		stopc: make(chan struct{}),
	}
}

// run receives request frames and feeds the producer. Three goroutines
// form a pipeline - recv -> produce (store reads) -> send (wire writes) -
// each stage strictly FIFO, so replies leave in request order by
// construction while store and wire latencies overlap.
//
// Teardown is a cascade with no circular wait: the transport dying (or
// the watchdog closing it) errors Recv, closing reqc ends the producer,
// closing sendc ends the sender; a sender wedged against a half-open
// client is unblocked by the same watchdog Close, after which its
// remaining Sends fail fast (Send releases each frame's payload either
// way, so drained frames cannot leak pool buffers).
func (s *readSession) run() {
	s.wg.Add(3)
	go s.runWatchdog()
	go s.runProducer()
	go s.runSender()
	for {
		pkt, err := s.cs.Recv()
		if err != nil {
			break
		}
		s.mu.Lock()
		s.lastClient = time.Now()
		s.mu.Unlock()
		s.reqc <- pkt
	}
	close(s.reqc)
	close(s.stopc)
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.wg.Wait()
	s.cs.Close()
}

// runProducer serves queued requests in order, pushing reply frames into
// the bounded readahead window.
func (s *readSession) runProducer() {
	defer s.wg.Done()
	defer close(s.sendc)
	for pkt := range s.reqc {
		s.serve(pkt)
		pkt.Release() // requests carry no payload today; releasing is future-proof
	}
}

// runSender writes reply frames to the wire in FIFO order. Send consumes
// each frame's payload reference, success or failure, so no extra
// bookkeeping is needed here.
func (s *readSession) runSender() {
	defer s.wg.Done()
	for pkt := range s.sendc {
		_ = s.cs.Send(pkt)
	}
}

// runWatchdog reaps sessions whose client went silent: a live client pings
// at least every keepalive interval even while idle, so a frame gap of
// idleTimeout means the client is gone and holding the stream (and this
// goroutine) open would leak both. Closing our end also unblocks a serve
// loop wedged in Send against a half-open client.
func (s *readSession) runWatchdog() {
	defer s.wg.Done()
	tick := s.d.keepalive / 2
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.stopc:
			return
		case <-t.C:
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		dead := time.Since(s.lastClient) > s.d.idleTimeout
		s.mu.Unlock()
		if dead {
			s.cs.Close()
			return
		}
	}
}

// serve answers one request frame. Replies are best-effort: a Send failure
// means the transport is dead and the serve loop's next Recv ends the
// session.
func (s *readSession) serve(pkt *proto.Packet) {
	switch pkt.Op {
	case proto.OpDataPing:
		// Keepalive: prove the session (not just the kernel socket) is
		// alive. Acked in order like every other request.
		s.send(&proto.Packet{Op: proto.OpDataPing, ResultCode: proto.ResultOK, ReqID: pkt.ReqID})
		return
	case proto.OpDataRead:
	default:
		s.sendErr(pkt, proto.ResultErrArg, fmt.Sprintf("op %s not allowed on a read stream", pkt.Op))
		return
	}
	p := s.d.Partition(pkt.PartitionID)
	if p == nil {
		s.sendErr(pkt, proto.ResultErrArg, fmt.Sprintf("unknown partition %d", pkt.PartitionID))
		return
	}
	length := pkt.FileOffset // requested byte count rides the FileOffset slot
	if length > maxStreamReadLen {
		s.sendErr(pkt, proto.ResultErrArg, fmt.Sprintf("read of %d bytes exceeds the %d stream limit", length, maxStreamReadLen))
		return
	}
	off := pkt.ExtentOffset
	// Per-request error containment: a refusal fails only this reply.
	if refusal := p.admitRead(pkt, off, length); refusal != nil {
		s.send(refusal)
		return
	}
	if length == 0 {
		s.send(&proto.Packet{
			Op: proto.OpDataRead, ResultCode: proto.ResultOK, ReqID: pkt.ReqID,
			PartitionID: pkt.PartitionID, ExtentID: pkt.ExtentID, ExtentOffset: off,
		})
		return
	}
	remaining := length
	for remaining > 0 {
		n := util.MinU64(remaining, util.DefaultPacketSize)
		// Pooled chunk buffer, filled in place (no store-side allocation);
		// ownership transfers to the frame - the consumer recycles it.
		buf := util.GetChunk(int(n))
		if err := p.store.ReadInto(pkt.ExtentID, off, buf); err != nil {
			util.PutChunk(buf)
			s.sendErr(pkt, proto.ResultErrIO, err.Error())
			return
		}
		remaining -= n
		frame := &proto.Packet{
			Op:           proto.OpDataRead,
			ResultCode:   proto.ResultOK,
			ReqID:        pkt.ReqID,
			PartitionID:  pkt.PartitionID,
			ExtentID:     pkt.ExtentID,
			ExtentOffset: off,
			FileOffset:   remaining, // zero marks the request's final chunk
			CRC:          util.CRC(buf),
			Data:         buf,
		}
		frame.MarkPooled() // the frame owns buf; Send (or the receiver) releases it
		s.send(frame)
		off += n
	}
}

// send queues one reply frame behind the readahead window; blocking here
// is wire backpressure, which is what paces the producer's store reads.
func (s *readSession) send(pkt *proto.Packet) { s.sendc <- pkt }

func (s *readSession) sendErr(req *proto.Packet, code uint8, msg string) {
	s.send(req.ErrResponse(code, msg))
}
