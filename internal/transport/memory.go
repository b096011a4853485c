package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cfs/internal/util"
)

// Memory is an in-process Network: the TCP fabric - its framing, codecs,
// connection pools and stream code - over in-process byte connections
// instead of sockets. All nodes of a simulated cluster share one Memory;
// addresses are arbitrary strings. Requests and replies cross as bytes,
// so a handler never shares memory with its caller.
//
// The connections inject the faults:
//   - SetLatency(d): a call pays d before its request is delivered,
//     emulating a network trip so concurrency effects (the x-axes of
//     Figures 6-9) are visible on a single machine. A packet-stream frame
//     is delivered d after it is sent, in each direction, and Send does
//     not wait for it, so pipelined frames overlap in flight as on a real
//     wire. DialStream pays 2d, the handshake round trip a socket dial
//     costs - what per-small-file session dialing wastes and the session
//     pool amortizes. A call connection's dial pays nothing.
//   - Partition(addr): calls, stream dials and stream frames to addr fail
//     with util.ErrTimeout, pooled connections included, and so do those
//     a node built on Endpoint(addr) makes - every node internal/cluster
//     boots is. Frames already sent still arrive.
//   - Freeze(addr): packet-stream frames arriving at addr's listener
//     stall in Recv without any error - the TCP half-open failure mode, where the peer
//     is gone (or wedged) but the connection never resets. Calls are
//     unaffected. Liveness deadlines, not error paths, are what convert
//     this into progress.
type Memory struct {
	tcp *TCP // the anonymous endpoint: Memory's own Listen, Call and streams

	listeners sync.Map // addr -> *memListener
	cut       sync.Map // partitioned addrs
	latency   atomic.Int64
	calls     atomic.Uint64
	dials     atomic.Uint64
}

// NewMemory returns an empty in-process network.
func NewMemory() *Memory {
	m := &Memory{}
	m.tcp = newTCP(memFabric{m: m}, &sync.Map{})
	return m
}

// Listen implements Network.
func (m *Memory) Listen(addr string, h Handler) (Listener, error) { return m.tcp.Listen(addr, h) }

// Call implements Network.
func (m *Memory) Call(addr string, op uint8, req, resp any) error {
	return m.tcp.Call(addr, op, req, resp)
}

// OpenStream implements StreamNetwork.
func (m *Memory) OpenStream(addr string) Stream { return m.tcp.OpenStream(addr) }

// DialStream implements PacketStreamNetwork.
func (m *Memory) DialStream(addr string, op uint8) (PacketStream, error) {
	return m.tcp.DialStream(addr, op)
}

// ListenStream implements PacketStreamNetwork.
func (m *Memory) ListenStream(addr string, h StreamHandler) error { return m.tcp.ListenStream(addr, h) }

// Endpoint returns a Network view bound to a node identity: when that
// identity is partitioned, its OUTGOING calls and streams fail too,
// modeling full isolation (a plain Memory handle only cuts incoming
// traffic). Nodes in failure-injection tests should be constructed with
// their endpoint. Each endpoint pools its own connections, as a separate
// process would.
func (m *Memory) Endpoint(addr string) Network {
	return newTCP(memFabric{m: m, from: addr}, m.tcp.frozen)
}

// SetLatency sets the simulated one-way delay.
func (m *Memory) SetLatency(d time.Duration) { m.latency.Store(int64(d)) }

// Partition cuts addr off from the network: calls, stream dials and
// stream frames to it fail. A node built on this Memory directly can still
// call out (a one-sided listen failure); one built on Endpoint(addr)
// cannot.
func (m *Memory) Partition(addr string) { m.cut.Store(addr, true) }

// Heal reconnects addr (clearing both a partition and a freeze).
func (m *Memory) Heal(addr string) {
	m.cut.Delete(addr)
	m.tcp.Heal(addr)
}

// Freeze half-opens addr (TCP.Freeze): packet-stream frames addressed to
// it are accepted by the network but stall before delivery, with no error
// on either end - the peer looks alive and silent. Calls are unaffected
// (a frozen node's RPC plane staying up is the nastiest variant).
func (m *Memory) Freeze(addr string) { m.tcp.Freeze(addr) }

// Calls returns the number of requests sent so far - Call invocations and
// Stream sends, packet-stream frames not included (the raft-set heartbeat
// ablation counts messages with it).
func (m *Memory) Calls() uint64 { return m.calls.Load() }

// Dials returns the number of packet-stream dials so far (session-pool
// ablations count how many dials a workload costs).
func (m *Memory) Dials() uint64 { return m.dials.Load() }

// reachable fails when either end of a trip is partitioned.
func (m *Memory) reachable(from, to string) error {
	if _, cut := m.cut.Load(to); cut {
		return fmt.Errorf("transport: %w: %s partitioned", util.ErrTimeout, to)
	}
	if _, cut := m.cut.Load(from); cut {
		return fmt.Errorf("transport: %w: %s partitioned (outgoing)", util.ErrTimeout, from)
	}
	return nil
}

// memFabric makes a TCP's connections in process; from is the identity
// of the endpoint that dials ("" for the anonymous Memory handle).
type memFabric struct {
	m    *Memory
	from string
}

func (f memFabric) listen(addr string) (net.Listener, error) {
	l := &memListener{m: f.m, addr: addr, accept: make(chan net.Conn), done: make(chan struct{})}
	if _, taken := f.m.listeners.LoadOrStore(addr, l); taken {
		return nil, fmt.Errorf("transport: %w: address %s already bound", util.ErrExist, addr)
	}
	return l, nil
}

func (f memFabric) dial(addr string, stream bool) (net.Conn, error) {
	m := f.m
	if stream {
		m.dials.Add(1)
		if lat := m.lat(); lat > 0 {
			// A socket dial pays a full handshake round trip (SYN,
			// SYN-ACK) before the first byte; latency is one-way, so the
			// handshake costs two of them.
			time.Sleep(2 * lat)
		}
	}
	if err := m.reachable(f.from, addr); err != nil {
		return nil, err
	}
	if v, ok := m.listeners.Load(addr); ok {
		l := v.(*memListener)
		c2s, s2c := newMemPipe(), newMemPipe()
		server := &memConn{m: m, local: addr, remote: f.from, in: c2s, out: s2c, stream: stream}
		select {
		case l.accept <- server:
			return &memConn{m: m, local: f.from, remote: addr, in: s2c, out: c2s, stream: stream, dialer: true}, nil
		case <-l.done:
		}
	}
	if stream {
		return nil, fmt.Errorf("transport: %w: no stream listener at %s", util.ErrNotFound, addr)
	}
	return nil, fmt.Errorf("transport: %w: no listener at %s", util.ErrTimeout, addr)
}

func (m *Memory) lat() time.Duration { return time.Duration(m.latency.Load()) }

// memListener is an in-process net.Listener: dials hand it their server
// ends.
type memListener struct {
	m      *Memory
	addr   string
	accept chan net.Conn
	done   chan struct{}
	once   sync.Once
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() {
		l.m.listeners.CompareAndDelete(l.addr, l)
		close(l.done)
	})
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr(l.addr) }

func memAddr(addr string) net.Addr { return &net.UnixAddr{Name: addr, Net: "memory"} }

// memConn is one end of an in-process connection. A call connection's
// dialer writes requests: each pays the latency before it is delivered and
// fails on a partition. A stream connection's frames, both ways, fail on a
// partition and are delivered one latency after they are written.
type memConn struct {
	m             *Memory
	local, remote string
	in, out       *memPipe
	stream        bool
	dialer        bool
}

func (c *memConn) Read(b []byte) (int, error) { return c.in.read(b) }

func (c *memConn) Write(b []byte) (int, error) {
	var due time.Time
	switch lat := c.m.lat(); {
	case c.stream:
		if lat > 0 {
			due = time.Now().Add(lat)
		}
	case c.dialer:
		c.m.calls.Add(1)
		time.Sleep(lat)
	default: // a reply
		return c.out.write(b, due)
	}
	if err := c.m.reachable(c.local, c.remote); err != nil {
		return 0, err
	}
	return c.out.write(b, due)
}

// Close ends both directions: the peer reads what was already written,
// then io.EOF, and its writes fail.
func (c *memConn) Close() error {
	c.out.close()
	c.in.close()
	return nil
}

func (c *memConn) LocalAddr() net.Addr  { return memAddr(c.local) }
func (c *memConn) RemoteAddr() net.Addr { return memAddr(c.remote) }

func (c *memConn) SetDeadline(time.Time) error      { return errors.ErrUnsupported }
func (c *memConn) SetReadDeadline(time.Time) error  { return errors.ErrUnsupported }
func (c *memConn) SetWriteDeadline(time.Time) error { return errors.ErrUnsupported }

// memPipeWrites bounds the writes queued in one direction: 128 full
// frames of two writes each (header, payload), more than any write
// window, so the fabric never throttles one. A writer blocks while the
// queue is full, as on a full socket buffer.
const memPipeWrites = 2 * 128

// memBufs recycles the copies of payload-sized writes, so a sustained
// stream allocates nothing. It is a bounded free list, not a sync.Pool,
// which the GC empties: at most 64 buffers stay once the traffic stops.
// It is not util's chunk pool, whose counts the data path's leak checks
// read: a connection closed with bytes in flight strands its copies.
var memBufs = make(chan *[util.DefaultPacketSize]byte, 64)

// memPipe is one direction of an in-process connection: a copy of each
// write and the instant it is delivered, in order.
type memPipe struct {
	ch   chan memWrite
	done chan struct{} // closed by either end's Close
	once sync.Once
	head memWrite // the reader's current write; head.b is what is left of it
}

type memWrite struct {
	b   []byte
	buf *[util.DefaultPacketSize]byte // b's array when it came from memBufs
	due time.Time
}

func newMemPipe() *memPipe {
	return &memPipe{ch: make(chan memWrite, memPipeWrites), done: make(chan struct{})}
}

func (p *memPipe) write(b []byte, due time.Time) (int, error) {
	w := memWrite{due: due}
	if len(b) > 4*util.KB && len(b) <= util.DefaultPacketSize {
		select {
		case w.buf = <-memBufs:
		default:
			w.buf = new([util.DefaultPacketSize]byte)
		}
		w.b = w.buf[:len(b)]
	} else {
		w.b = make([]byte, len(b))
	}
	copy(w.b, b)
	select {
	case <-p.done:
		return 0, io.ErrClosedPipe
	default:
	}
	select {
	case p.ch <- w:
		return len(b), nil
	case <-p.done:
		return 0, io.ErrClosedPipe
	}
}

func (p *memPipe) read(b []byte) (int, error) {
	if len(p.head.b) == 0 {
		if p.head.buf != nil {
			select {
			case memBufs <- p.head.buf:
			default:
			}
		}
		select {
		case p.head = <-p.ch:
		case <-p.done:
			select {
			case p.head = <-p.ch: // written before the close: still delivered
			default:
				p.head = memWrite{}
				return 0, io.EOF
			}
		}
		time.Sleep(time.Until(p.head.due))
	}
	n := copy(b, p.head.b)
	p.head.b = p.head.b[n:]
	return n, nil
}

func (p *memPipe) close() { p.once.Do(func() { close(p.done) }) }
