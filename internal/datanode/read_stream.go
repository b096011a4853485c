package datanode

import (
	"fmt"
	"os"

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
// falls back to another replica. Error containment is per-request: a
// clamp refusal, an unknown extent, or a stale client epoch fails only
// that request's reply; the session and later requests are unaffected.
// The session dies only with its transport - or with its client: the
// receive loop both stream servers share (serveStream) closes a session
// whose client has been silent past the idle timeout (clients ping idle
// sessions, so silence means the client is gone).
//
// Read sessions are deliberately SEPARATE from write sessions: a large
// scan streams its chunks over its own transport stream, so it can never
// head-of-line-block the write session's acks (the ROADMAP session-
// fairness item, solved for reads).

// readaheadFrames is the depth of the session's reply queue, in frames.
// The receive loop runs ahead of the sender's wire writes by up to this
// many chunk frames, so request handling and wire latency overlap: while
// chunk k is being written to the socket, chunks k+1..k+4 are already
// admitted and stamped - file-backed frames (the block's stored sum and
// the extent's file; sendfile reads the bytes at send time) or pooled
// chunks already read from the store. Because requests are served from a
// single FIFO the window rolls across extent boundaries for free - the
// client's next-extent requests pipeline behind the current extent's tail
// chunks.
const readaheadFrames = 4

type readSession struct {
	d     *DataNode
	cs    transport.PacketStream
	fs    fileSender     // cs, when it sends payloads from files; else nil
	sendc chan readReply // receive loop -> sender (readahead window)
}

// fileSender is a packet stream over a kernel socket: it sends a frame's
// payload straight from a file with sendfile, pinning the file for the
// send, and any error closes the stream. Other streams (the Memory
// fabric's, a wrapping stream) lack it and are sent pooled chunks.
type fileSender interface {
	SendFile(pkt *proto.Packet, f *os.File, off int64, n int) error
}

// readReply is one queued reply frame. A file-backed one (f set) carries
// no payload: the sender sends the n bytes of f at pkt.ExtentOffset, and
// pkt.CRC is the block's stored sum.
type readReply struct {
	pkt *proto.Packet
	f   *os.File
	n   int
}

func newReadSession(d *DataNode, cs transport.PacketStream) *readSession {
	fs, _ := cs.(fileSender)
	return &readSession{d: d, cs: cs, fs: fs, sendc: make(chan readReply, readaheadFrames)}
}

// run is a two-stage pipeline: the receive loop serves each request as it
// arrives (store reads), and a sender writes the reply frames to the wire.
// Both stages are strictly FIFO, so replies leave in request order by
// construction while store and wire latencies overlap.
//
// Teardown has no circular wait: a receive loop blocked on a full sendc
// behind a sender wedged against a half-open client is freed by the idle
// timer's Close, which fails the sender's Send and every later one fast
// (Send releases each frame's payload either way, so drained frames
// cannot leak pool buffers). Once the loop ends the stream is dead and its
// idle timer stopped, so the stream is closed before the sender drains: a
// sender still wedged on it fails fast instead of waiting forever.
func (s *readSession) run() {
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for r := range s.sendc {
			if r.f == nil {
				_ = s.cs.Send(r.pkt)
			} else {
				// A failed SendFile closes the stream: the extent was
				// deleted or truncated under the queued frame.
				_ = s.fs.SendFile(r.pkt, r.f, int64(r.pkt.ExtentOffset), r.n)
			}
		}
	}()
	s.d.serveStream(s.cs, s.serve)
	s.cs.Close()
	close(s.sendc)
	<-sent
}

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
	// Per-request error containment: a refusal fails only this reply.
	if refusal := p.admitRead(pkt); refusal != nil {
		s.send(refusal)
		return
	}
	length, off := pkt.FileOffset, pkt.ExtentOffset
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
		remaining -= n
		frame := &proto.Packet{
			Op:           proto.OpDataRead,
			ResultCode:   proto.ResultOK,
			ReqID:        pkt.ReqID,
			PartitionID:  pkt.PartitionID,
			ExtentID:     pkt.ExtentID,
			ExtentOffset: off,
			FileOffset:   remaining, // zero marks the request's final chunk
		}
		// A whole block with a stored sum needs no checksum pass here: the
		// sum was verified on ingest, so bytes that rotted (or changed
		// after this lookup) fail the client's check and it tries another
		// replica. On a kernel socket the bytes go out with sendfile.
		sum, f, known := p.store.BlockSum(pkt.ExtentID, off, n)
		if known && s.fs != nil {
			frame.CRC = sum
			s.sendc <- readReply{pkt: frame, f: f, n: int(n)}
			off += n
			continue
		}
		// Pooled chunk buffer, filled in place (no store-side allocation);
		// ownership transfers to the frame - the consumer recycles it.
		buf := util.GetChunk(int(n))
		if err := p.store.ReadInto(pkt.ExtentID, off, buf); err != nil {
			util.PutChunk(buf)
			s.sendErr(pkt, proto.ResultErrIO, err.Error())
			return
		}
		if !known {
			sum = util.CRC(buf)
		}
		frame.CRC, frame.Data = sum, buf
		frame.MarkPooled() // the frame owns buf; Send (or the receiver) releases it
		s.send(frame)
		off += n
	}
}

// send queues one reply frame behind the readahead window; blocking here
// is wire backpressure, which is what paces the receive loop's store
// reads.
func (s *readSession) send(pkt *proto.Packet) { s.sendc <- readReply{pkt: pkt} }

func (s *readSession) sendErr(req *proto.Packet, code uint8, msg string) {
	s.send(req.ErrResponse(code, msg))
}
