package transport

import (
	"fmt"
	"io"
	"sync"
	"time"

	"cfs/internal/proto"
	"cfs/internal/util"
)

// Memory is an in-process Network. All nodes of a simulated cluster share
// one Memory instance; addresses are arbitrary strings.
//
// Fault injection:
//   - Partition(addr): calls and stream dials to addr fail with
//     util.ErrTimeout, and so do those a node built on Endpoint(addr)
//     makes - every node internal/cluster boots is.
//   - Freeze(addr): packet-stream frames destined for addr stall in Recv
//     without any error - the TCP half-open failure mode, where the peer
//     is gone (or wedged) but the connection never resets. Liveness
//     deadlines, not error paths, are what convert this into progress.
//   - SetLatency(d): every call sleeps d before dispatch, emulating a
//     network round trip so concurrency effects (the x-axes of Figures
//     6-9) are visible on a single machine. DialStream pays the same
//     delay once, modeling the handshake round trip a real socket dial
//     costs - which is exactly what per-small-file session dialing wastes
//     and the session pool amortizes.
type Memory struct {
	mu             sync.RWMutex
	handlers       map[string]Handler
	streamHandlers map[string]StreamHandler
	partitioned    map[string]bool
	frozen         map[string]bool
	latency        time.Duration
	calls          uint64
	dials          uint64
}

// NewMemory returns an empty in-process network.
func NewMemory() *Memory {
	return &Memory{
		handlers:       make(map[string]Handler),
		streamHandlers: make(map[string]StreamHandler),
		partitioned:    make(map[string]bool),
		frozen:         make(map[string]bool),
	}
}

type memListener struct {
	net  *Memory
	addr string
}

func (l *memListener) Addr() string { return l.addr }

func (l *memListener) Close() error {
	l.net.mu.Lock()
	defer l.net.mu.Unlock()
	delete(l.net.handlers, l.addr)
	delete(l.net.streamHandlers, l.addr)
	return nil
}

// Listen implements Network.
func (m *Memory) Listen(addr string, h Handler) (Listener, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.handlers[addr]; ok {
		return nil, fmt.Errorf("transport: %w: address %s already bound", util.ErrExist, addr)
	}
	m.handlers[addr] = h
	return &memListener{net: m, addr: addr}, nil
}

// Call implements Network.
func (m *Memory) Call(addr string, op uint8, req, resp any) error {
	m.mu.RLock()
	h, ok := m.handlers[addr]
	cut := m.partitioned[addr]
	lat := m.latency
	m.mu.RUnlock()
	m.bumpCalls()
	if lat > 0 {
		time.Sleep(lat)
	}
	if cut {
		return fmt.Errorf("transport: %w: %s partitioned", util.ErrTimeout, addr)
	}
	if !ok {
		return fmt.Errorf("transport: %w: no listener at %s", util.ErrTimeout, addr)
	}
	out, err := h(op, req)
	if err != nil {
		// Mirror the TCP path: callers always see a RemoteError.
		return EncodeError(err)
	}
	return copyInto(resp, out)
}

func (m *Memory) bumpCalls() {
	m.mu.Lock()
	m.calls++
	m.mu.Unlock()
}

// Calls returns the number of Call invocations so far (used by the raft-set
// heartbeat ablation to count messages).
func (m *Memory) Calls() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.calls
}

// SetLatency sets the simulated one-way dispatch delay for every call.
func (m *Memory) SetLatency(d time.Duration) {
	m.mu.Lock()
	m.latency = d
	m.mu.Unlock()
}

// Partition cuts addr off from the network: calls and stream dials to it
// fail. A node built on this Memory directly can still call out (a
// one-sided listen failure); one built on Endpoint(addr) cannot.
func (m *Memory) Partition(addr string) {
	m.mu.Lock()
	m.partitioned[addr] = true
	m.mu.Unlock()
}

// Heal reconnects addr (clearing both a partition and a freeze).
func (m *Memory) Heal(addr string) {
	m.mu.Lock()
	delete(m.partitioned, addr)
	delete(m.frozen, addr)
	m.mu.Unlock()
}

// Freeze half-opens addr: packet-stream frames addressed to it are
// accepted by the network but stall before delivery, with no error on
// either end - the peer looks alive and silent. Calls are unaffected
// (a frozen node's RPC plane staying up is the nastiest variant).
func (m *Memory) Freeze(addr string) {
	m.mu.Lock()
	m.frozen[addr] = true
	m.mu.Unlock()
}

func (m *Memory) isFrozen(addr string) bool {
	if addr == "" {
		return false
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.frozen[addr]
}

// Dials returns the number of packet-stream dials so far (session-pool
// ablations count how many dials a workload costs).
func (m *Memory) Dials() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.dials
}

// OpenStream implements StreamNetwork. The in-process network has no
// connections to pin, so the stream is a thin adapter over Call that still
// exercises the one-stream-per-peer calling pattern (and its per-call
// accounting) that the TCP network relies on.
func (m *Memory) OpenStream(addr string) Stream { return &memStream{nw: m, addr: addr} }

type memStream struct {
	nw   Network
	addr string
}

// Send implements Stream. As on a socket stream, the handler's error stays
// with the receiver: only a delivery failure is returned.
func (s *memStream) Send(op uint8, req any) error {
	err := s.nw.Call(s.addr, op, req, nil)
	if _, handlerErr := err.(*RemoteError); handlerErr {
		return nil
	}
	return err
}

func (s *memStream) Close() error { return nil }

// ListenStream implements PacketStreamNetwork.
func (m *Memory) ListenStream(addr string, h StreamHandler) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.handlers[addr]; !ok {
		return fmt.Errorf("transport: %w: no listener at %s", util.ErrNotFound, addr)
	}
	m.streamHandlers[addr] = h
	return nil
}

// DialStream implements PacketStreamNetwork: it pairs two in-memory frame
// pipes and runs the peer's StreamHandler on its own goroutine. Latency is
// modeled as propagation delay - a frame is DELIVERED one latency after it
// was sent, but Send returns immediately - so pipelined senders overlap
// their frames in flight exactly like they would on a real wire, while
// stop-and-wait callers still pay one latency per round trip.
func (m *Memory) DialStream(addr string, op uint8) (PacketStream, error) {
	return m.dialStream("", addr, op)
}

func (m *Memory) dialStream(from, addr string, op uint8) (PacketStream, error) {
	m.mu.Lock()
	m.dials++
	h := m.streamHandlers[addr]
	cut := m.partitioned[addr] || (from != "" && m.partitioned[from])
	lat := m.latency
	m.mu.Unlock()
	if lat > 0 {
		// A socket dial pays a full handshake round trip (SYN, SYN-ACK)
		// before the first byte; latency here is one-way propagation, so
		// the handshake costs two of them.
		time.Sleep(2 * lat)
	}
	if cut {
		return nil, fmt.Errorf("transport: %w: %s partitioned", util.ErrTimeout, addr)
	}
	if h == nil {
		return nil, fmt.Errorf("transport: %w: no stream listener at %s", util.ErrNotFound, addr)
	}
	c2s := newMemFrames()
	s2c := newMemFrames()
	client := &memPacketStream{net: m, self: from, peer: addr, out: c2s, in: s2c}
	server := &memPacketStream{net: m, self: addr, peer: from, out: s2c, in: c2s}
	go func() {
		defer server.Close()
		h(op, server)
	}()
	return client, nil
}

// memFrame is one in-flight packet plus the instant it reaches the peer.
type memFrame struct {
	pkt *proto.Packet
	due time.Time
}

// memFrames is one direction of an in-memory stream.
type memFrames struct {
	ch   chan memFrame
	done chan struct{}
	once sync.Once
}

func newMemFrames() *memFrames {
	return &memFrames{ch: make(chan memFrame, 128), done: make(chan struct{})}
}

func (f *memFrames) close() { f.once.Do(func() { close(f.done) }) }

type memPacketStream struct {
	net  *Memory
	self string // identity of this end ("" for an anonymous client)
	peer string // identity of the other end
	out  *memFrames
	in   *memFrames
}

// Send implements PacketStream. A partitioned sender or receiver fails the
// send; frames already in flight still deliver (they left the NIC).
//
// Send consumes one payload reference, success or failure: on success
// the reference travels to the receiver with the packet pointer (the
// in-process network delivers the sender's object), on failure it is
// released here - so callers of either transport never release after a
// Send.
func (s *memPacketStream) Send(pkt *proto.Packet) error {
	s.net.mu.RLock()
	cut := (s.self != "" && s.net.partitioned[s.self]) || (s.peer != "" && s.net.partitioned[s.peer])
	lat := s.net.latency
	s.net.mu.RUnlock()
	s.net.bumpCalls()
	if cut {
		pkt.Release()
		return fmt.Errorf("transport: %w: stream to %s partitioned", util.ErrTimeout, s.peer)
	}
	fr := memFrame{pkt: pkt}
	if lat > 0 {
		fr.due = time.Now().Add(lat)
	}
	select {
	case s.out.ch <- fr:
		select {
		case <-s.out.done:
			// The direction closed around the enqueue, so the closer's
			// reclaim sweep may already have run past our frame. Pull one
			// queued frame back (any frame - the peer is gone, ordering
			// is moot) so nothing strands in the channel.
			select {
			case fr2 := <-s.out.ch:
				if fr2.pkt != nil {
					fr2.pkt.Release()
				}
			default:
			}
			return fmt.Errorf("transport: stream to %s: %w", s.peer, util.ErrClosed)
		default:
			return nil
		}
	case <-s.out.done:
		pkt.Release()
		return fmt.Errorf("transport: stream to %s: %w", s.peer, util.ErrClosed)
	}
}

// Recv implements PacketStream. Delivery waits until the frame's due time,
// preserving order while letting later frames overlap the delay. A frozen
// receiver stalls here indefinitely - no error, no progress - until healed
// or the stream is closed, reproducing a half-open peer.
func (s *memPacketStream) Recv() (*proto.Packet, error) {
	var fr memFrame
	select {
	case fr = <-s.in.ch:
	case <-s.in.done:
		select {
		case fr = <-s.in.ch: // drain frames sent before the close
		default:
			return nil, io.EOF
		}
	}
	if !fr.due.IsZero() {
		if d := time.Until(fr.due); d > 0 {
			time.Sleep(d)
		}
	}
	for s.net.isFrozen(s.self) {
		select {
		case <-s.in.done:
			// Closed while frozen: the frame is given up, so its payload
			// reference is released here rather than leaked.
			if fr.pkt != nil {
				fr.pkt.Release()
			}
			return nil, io.EOF
		case <-time.After(time.Millisecond):
		}
	}
	return fr.pkt, nil
}

// Close implements PacketStream: it ends the outgoing direction (the peer
// drains in-flight frames, then sees io.EOF) and unblocks local Recvs.
// Frames still queued toward this end are reclaimed - their payload
// references belong to the receiver, and this receiver is leaving.
func (s *memPacketStream) Close() error {
	s.out.close()
	s.in.close()
	for {
		select {
		case fr := <-s.in.ch:
			if fr.pkt != nil {
				fr.pkt.Release()
			}
		default:
			return nil
		}
	}
}

// Endpoint returns a Network view bound to a node identity: when that
// identity is partitioned, its OUTGOING calls fail too, modeling full
// isolation (a plain Memory handle only cuts incoming traffic). Nodes in
// failure-injection tests should be constructed with their endpoint.
func (m *Memory) Endpoint(addr string) Network { return &memEndpoint{m: m, from: addr} }

type memEndpoint struct {
	m    *Memory
	from string
}

// Listen implements Network.
func (e *memEndpoint) Listen(addr string, h Handler) (Listener, error) { return e.m.Listen(addr, h) }

// OpenStream implements StreamNetwork; the endpoint's outgoing-partition
// check applies to every send.
func (e *memEndpoint) OpenStream(addr string) Stream { return &memStream{nw: e, addr: addr} }

// ListenStream implements PacketStreamNetwork.
func (e *memEndpoint) ListenStream(addr string, h StreamHandler) error {
	return e.m.ListenStream(addr, h)
}

// DialStream implements PacketStreamNetwork; both ends carry the node
// identity, so partitioning the endpoint cuts its stream traffic too.
func (e *memEndpoint) DialStream(addr string, op uint8) (PacketStream, error) {
	return e.m.dialStream(e.from, addr, op)
}

// Call implements Network.
func (e *memEndpoint) Call(addr string, op uint8, req, resp any) error {
	e.m.mu.RLock()
	cut := e.m.partitioned[e.from]
	e.m.mu.RUnlock()
	if cut {
		e.m.bumpCalls()
		return fmt.Errorf("transport: %w: %s partitioned (outgoing)", util.ErrTimeout, e.from)
	}
	return e.m.Call(addr, op, req, resp)
}
