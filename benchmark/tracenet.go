package main

import (
	"sync"

	"cfs/internal/multiraft"
	"cfs/internal/proto"
	"cfs/internal/transport"
)

// fabric is what both product transports implement; tracenet wraps all of
// it so that multiraft, the client session pools and the datanode still
// find StreamNetwork and PacketStreamNetwork by type assertion.
type fabric interface {
	transport.Network
	transport.StreamNetwork
	transport.PacketStreamNetwork
}

// traceNet is a labelled passthrough around a real fabric that records a
// span at every boundary it sees: unary calls out and handlers in, stream
// frames out and in, MultiRaft batches, stream dials. While the tracer is
// off it only forwards.
//
// It keeps the pooled-packet contract of the fabric it wraps: Send consumes
// one payload reference, so everything the wrapper wants to know about a
// packet is read BEFORE the packet is handed to the inner Send and the
// packet is never touched afterwards.
type traceNet struct {
	inner fabric
	tr    *tracer
	sh    *shard
	role  nodeRole
	w     int // worker whose mount this is; -1 for nodes
}

// newTraceNet wraps nw for the endpoint named label. worker is the index of
// the worker that owns the mount, or -1.
func newTraceNet(nw transport.Network, tr *tracer, label string, role nodeRole, worker int) *traceNet {
	n := &traceNet{inner: nw.(fabric), tr: tr, sh: tr.newShard(label, role), role: role, w: worker}
	if worker >= 0 {
		tr.clients[worker] = n.sh
	}
	return n
}

// parent is the root span open on this mount, or -1.
func (n *traceNet) parent() int32 {
	if n.w < 0 {
		return -1
	}
	return n.tr.roots[n.w].Load()
}

// packetHeaderBytes is the fixed part of a data-path frame on the wire.
const packetHeaderBytes = 66

// wireSize is what v costs on the wire: exact for packets (header, follower
// list, payload), nominal for gob-encoded control messages.
func wireSize(v any) int64 {
	p, ok := v.(*proto.Packet)
	if !ok || p == nil {
		return gobNominalBytes
	}
	n := int64(packetHeaderBytes + len(p.Data))
	for _, f := range p.Followers {
		n += int64(2 + len(f))
	}
	return n
}

// sent charges n bytes handed to the wire to the running phase. Every
// message is charged once, by the wrapper of the endpoint that sends it.
func (n *traceNet) sent(bytes int64) { n.tr.wire[uint8(n.tr.phase.Load())].Add(bytes) }

func packetBytes(v any) int32 {
	if p, ok := v.(*proto.Packet); ok && p != nil {
		return int32(len(p.Data))
	}
	return 0
}

// Listen implements transport.Network; the handler is wrapped so every run
// of it is a span attributed to the running phase.
func (n *traceNet) Listen(addr string, h transport.Handler) (transport.Listener, error) {
	n.tr.roles.Store(addr, n.role)
	return n.inner.Listen(addr, func(op uint8, req any) (any, error) {
		if !n.tr.on.Load() {
			return h(op, req)
		}
		sp := span{start: n.tr.now(), parent: -1, kind: spanHandle, op: op,
			phase: uint8(n.tr.phase.Load()), bytes: packetBytes(req)}
		if p, ok := req.(*proto.Packet); ok && n.role == roleData {
			sp.leader = n.leads(addr, p.PartitionID)
		}
		resp, err := h(op, req)
		sp.end = n.tr.now()
		sp.fail = err != nil
		if p, ok := resp.(*proto.Packet); ok && p != nil {
			sp.fail = sp.fail || p.ResultCode != proto.ResultOK
			sp.bytes += int32(len(p.Data))
		}
		n.sent(wireSize(resp))
		n.sh.add(sp)
		return resp, err
	})
}

func (n *traceNet) leads(addr string, pid uint64) bool {
	l, ok := n.tr.leader.Load(pid)
	return ok && l.(string) == addr
}

// Call implements transport.Network.
func (n *traceNet) Call(addr string, op uint8, req, resp any) error {
	if !n.tr.on.Load() {
		return n.inner.Call(addr, op, req, resp)
	}
	sp := span{start: n.tr.now(), parent: n.parent(), kind: spanCall, op: op,
		peer: n.tr.roleOf(addr), phase: uint8(n.tr.phase.Load()), bytes: packetBytes(req)}
	n.sent(wireSize(req))
	err := n.inner.Call(addr, op, req, resp)
	sp.end = n.tr.now()
	sp.fail = err != nil
	if p, ok := resp.(*proto.Packet); ok && p != nil {
		sp.fail = sp.fail || p.ResultCode != proto.ResultOK
		sp.bytes += int32(len(p.Data))
	}
	n.sh.add(sp)
	return err
}

// OpenStream implements transport.StreamNetwork (MultiRaft's per-peer lane).
func (n *traceNet) OpenStream(addr string) transport.Stream {
	return &traceStream{n: n, inner: n.inner.OpenStream(addr), peer: n.tr.roleOf(addr)}
}

type traceStream struct {
	n     *traceNet
	inner transport.Stream
	peer  nodeRole
}

func (s *traceStream) Close() error { return s.inner.Close() }

func (s *traceStream) Send(op uint8, req any) error {
	tr := s.n.tr
	if !tr.on.Load() {
		return s.inner.Send(op, req)
	}
	sp := span{start: tr.now(), parent: -1, kind: spanRaft, op: op, peer: s.peer,
		phase: uint8(tr.phase.Load())}
	if b, ok := req.(*multiraft.Batch); ok {
		sp.aux = int32(len(b.Messages))
		for _, m := range b.Messages {
			for i := range m.Entries {
				sp.bytes += int32(len(m.Entries[i].Data))
			}
		}
	}
	s.n.sent(gobNominalBytes + int64(sp.bytes))
	err := s.inner.Send(op, req)
	sp.end = tr.now()
	sp.fail = err != nil
	s.n.sh.add(sp)
	return err
}

// DialStream implements transport.PacketStreamNetwork.
func (n *traceNet) DialStream(addr string, op uint8) (transport.PacketStream, error) {
	if !n.tr.on.Load() {
		ps, err := n.inner.DialStream(addr, op)
		if err != nil {
			return nil, err
		}
		return n.wrapStream(ps, n.tr.roleOf(addr), false, ""), nil
	}
	sp := span{start: n.tr.now(), parent: n.parent(), kind: spanDial, op: op,
		peer: n.tr.roleOf(addr), phase: uint8(n.tr.phase.Load())}
	ps, err := n.inner.DialStream(addr, op)
	sp.end = n.tr.now()
	sp.fail = err != nil
	n.sh.add(sp)
	if err != nil {
		return nil, err
	}
	return n.wrapStream(ps, sp.peer, false, ""), nil
}

// ListenStream implements transport.PacketStreamNetwork.
func (n *traceNet) ListenStream(addr string, h transport.StreamHandler) error {
	return n.inner.ListenStream(addr, func(op uint8, s transport.PacketStream) {
		h(op, n.wrapStream(s, roleClient, true, addr))
	})
}

// tracedStream is one end of a packet stream. The dialing end times each
// request frame from Send to the first frame received with the same ReqID
// (a write's ack, a read's first chunk); the accepting end times each
// request from Recv to the reply it sends (a read's last chunk).
type tracedStream struct {
	n      *traceNet
	inner  transport.PacketStream
	peer   nodeRole
	server bool
	addr   string // server end: the address it was accepted at

	mu      sync.Mutex
	pending map[uint64]span
}

func (n *traceNet) wrapStream(ps transport.PacketStream, peer nodeRole, server bool, addr string) *tracedStream {
	return &tracedStream{n: n, inner: ps, peer: peer, server: server, addr: addr, pending: map[uint64]span{}}
}

func (s *tracedStream) Close() error { return s.inner.Close() }

// request reports whether op is a frame the peer answers with the same
// ReqID. Gossip frames are one-way and would sit in pending forever.
func request(op proto.Op) bool {
	switch op {
	case proto.OpDataAppend, proto.OpDataCreateExtent, proto.OpDataRead, proto.OpDataPing:
		return true
	}
	return false
}

func (s *tracedStream) open(pkt *proto.Packet, kind spanKind) {
	sp := span{start: s.n.tr.now(), parent: s.n.parent(), kind: kind, op: uint8(pkt.Op), peer: s.peer,
		phase: uint8(s.n.tr.phase.Load()), bytes: int32(len(pkt.Data))}
	if pkt.Op == proto.OpDataAppend && pkt.ExtentID == 0 {
		sp.aux = 1 // whole small file: the leader picks the aggregated extent
	}
	if s.server {
		sp.parent = -1
		sp.leader = s.n.leads(s.addr, pkt.PartitionID)
	}
	s.mu.Lock()
	s.pending[pkt.ReqID] = sp
	s.mu.Unlock()
}

func (s *tracedStream) close(reqID uint64, result uint8, size int, final bool) {
	s.mu.Lock()
	sp, ok := s.pending[reqID]
	if ok && final {
		delete(s.pending, reqID)
	}
	s.mu.Unlock()
	if !ok || !final {
		return
	}
	sp.end = s.n.tr.now()
	sp.fail = result != proto.ResultOK
	if size > 0 && sp.bytes == 0 {
		sp.bytes = int32(size)
	}
	s.n.sh.add(sp)
}

func (s *tracedStream) Send(pkt *proto.Packet) error {
	if !s.n.tr.on.Load() {
		return s.inner.Send(pkt)
	}
	// Everything is read from pkt here: Send consumes it.
	if s.server {
		// A reply. A streamed read answers in chunks; the request is done
		// when the countdown in FileOffset reaches zero or it failed.
		final := pkt.Op != proto.OpDataRead || pkt.FileOffset == 0 || pkt.ResultCode != proto.ResultOK
		s.close(pkt.ReqID, pkt.ResultCode, 0, final)
	} else if request(pkt.Op) {
		s.open(pkt, spanFrame)
	}
	s.n.sent(wireSize(pkt))
	return s.inner.Send(pkt)
}

func (s *tracedStream) Recv() (*proto.Packet, error) {
	pkt, err := s.inner.Recv()
	if err != nil || !s.n.tr.on.Load() {
		return pkt, err
	}
	if s.server {
		if request(pkt.Op) {
			s.open(pkt, spanHandle)
		}
	} else {
		s.close(pkt.ReqID, pkt.ResultCode, len(pkt.Data), true)
	}
	return pkt, nil
}
