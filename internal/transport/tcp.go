package transport

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cfs/internal/proto"
	"cfs/internal/util"
)

// TCP is a Network over real sockets, used by the cmd/cfs-server daemons.
//
// Frame layout (big endian):
//
//	op(1) kind(1) status(1) bodyLen(4) body
//
// kind selects the body codec: kindGob for control-plane messages (encoded
// with encoding/gob) and kindPacket for *proto.Packet data-path frames
// (encoded with the binary codec in package proto). status is only
// meaningful on responses: statusOK or statusErr (body is a gob RemoteError).
//
// Every connection carries one gob stream per direction for its whole life:
// a gob body holds only the type descriptors that connection has not
// carried before, so a warm connection sends each type once. A gob stream
// cannot be resynchronised, so any encode or decode error drops the
// connection. Both ends must run this wire version.
//
// Connections to a peer are pooled and reused unless NonPersistent is set,
// in which case every call dials a fresh connection and closes it after the
// reply - this is how clients talk to the resource manager so that tens of
// thousands of clients do not pin open connections to it (Section 2.5.2).
type TCP struct {
	// NonPersistent disables connection pooling for outgoing calls.
	NonPersistent bool
	// DialTimeout bounds connection establishment. Zero means 5s.
	DialTimeout time.Duration

	mu        sync.Mutex
	pools     map[string]*connPool
	listeners map[string]*tcpListener // keyed by bind addr and resolved addr
	dials     uint64                  // packet-stream dials (session-pool ablations)
	frozen    map[string]bool         // addrs whose inbound stream frames stall
}

const (
	kindGob    uint8 = 0
	kindPacket uint8 = 1

	statusRequest uint8 = 0
	statusOK      uint8 = 1
	statusErr     uint8 = 2
	// statusStreamOpen upgrades the connection to a duplex packet stream:
	// every subsequent frame on the wire is a bare proto.Packet (its own
	// magic and length fields delimit it), flowing both ways without the
	// request/response lockstep.
	statusStreamOpen uint8 = 3

	maxPoolPerPeer = 8
)

// NewTCP returns a pooled TCP network.
func NewTCP() *TCP {
	proto.RegisterGob()
	gob.Register(&RemoteError{})
	return &TCP{
		pools:     make(map[string]*connPool),
		listeners: make(map[string]*tcpListener),
		frozen:    make(map[string]bool),
	}
}

// Freeze half-opens addr the way Memory.Freeze does: packet-stream
// frames arriving AT addr stall in the server-side Recv with no error on
// either end, so the node looks alive and silent (its unary RPC plane
// keeps answering). Liveness deadlines, not error paths, must convert
// this into progress - which is exactly what the failover regression
// suites assert, now on real sockets too.
func (t *TCP) Freeze(addr string) {
	t.mu.Lock()
	t.frozen[addr] = true
	t.mu.Unlock()
}

// Heal unfreezes addr.
func (t *TCP) Heal(addr string) {
	t.mu.Lock()
	delete(t.frozen, addr)
	t.mu.Unlock()
}

func (t *TCP) isFrozen(addr string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.frozen[addr]
}

type tcpListener struct {
	t    *TCP
	ln   net.Listener
	addr string
	wg   sync.WaitGroup

	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	streamH StreamHandler
}

func (l *tcpListener) streamHandler() StreamHandler {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.streamH
}

func (l *tcpListener) Addr() string { return l.addr }

// Close stops accepting and force-closes every active connection;
// serveConn goroutines blocked in reads unblock with an error. Without
// this, idle pooled client connections would pin Close forever.
func (l *tcpListener) Close() error {
	err := l.ln.Close()
	l.t.mu.Lock()
	for addr, reg := range l.t.listeners {
		if reg == l {
			delete(l.t.listeners, addr)
		}
	}
	l.t.mu.Unlock()
	l.mu.Lock()
	for c := range l.conns {
		c.Close()
	}
	l.mu.Unlock()
	l.wg.Wait()
	return err
}

func (l *tcpListener) track(c net.Conn) {
	l.mu.Lock()
	l.conns[c] = struct{}{}
	l.mu.Unlock()
}

func (l *tcpListener) untrack(c net.Conn) {
	l.mu.Lock()
	delete(l.conns, c)
	l.mu.Unlock()
}

// Listen implements Network.
func (t *TCP) Listen(addr string, h Handler) (Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	l := &tcpListener{t: t, ln: ln, addr: ln.Addr().String(), conns: make(map[net.Conn]struct{})}
	t.mu.Lock()
	t.listeners[addr] = l
	t.listeners[l.addr] = l
	t.mu.Unlock()
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			l.track(conn)
			l.wg.Add(1)
			go func() {
				defer l.wg.Done()
				defer l.untrack(conn)
				serveConn(conn, h, l)
			}()
		}
	}()
	return l, nil
}

// ListenStream implements PacketStreamNetwork.
func (t *TCP) ListenStream(addr string, h StreamHandler) error {
	t.mu.Lock()
	l := t.listeners[addr]
	t.mu.Unlock()
	if l == nil {
		return fmt.Errorf("transport: %w: no listener at %s", util.ErrNotFound, addr)
	}
	l.mu.Lock()
	l.streamH = h
	l.mu.Unlock()
	return nil
}

// DialStream implements PacketStreamNetwork: it dials a dedicated
// connection (never pooled - the stream owns it for its whole life) and
// upgrades it with a stream-open frame. OS-level TCP keepalives are
// enabled as a backstop under the protocol's own OpDataPing frames: the
// app-level pings ride the session in window order and prove the peer's
// replication loop is alive, while the socket option only proves the
// kernel is - both are needed, since a wedged process keeps answering
// the latter forever.
func (t *TCP) DialStream(addr string, op uint8) (PacketStream, error) {
	t.mu.Lock()
	t.dials++
	t.mu.Unlock()
	conn, err := t.dial(addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetKeepAlive(true)
		_ = tc.SetKeepAlivePeriod(30 * time.Second)
	}
	hdr := [7]byte{op, kindPacket, statusStreamOpen}
	if _, err := conn.Write(hdr[:]); err != nil {
		conn.Close()
		return nil, err
	}
	return &tcpPacketStream{conn: conn, br: bufio.NewReaderSize(conn, 256*util.KB)}, nil
}

// Dials returns the number of packet-stream dials so far.
func (t *TCP) Dials() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dials
}

// tcpPacketStream is one end of a duplex packet stream pinned to a
// connection; both the dialing client and the accepting server use it.
//
// The send path is zero-copy: the header is encoded into a reused
// scratch buffer and handed to the kernel TOGETHER with the payload as a
// two-element iovec (net.Buffers -> writev), so payload bytes go from
// the packet's buffer to the socket without an intermediate coalescing
// copy. There is deliberately no bufio.Writer - every Send used to flush
// anyway (the peer must see each frame immediately), so buffering only
// added a 256 KB arena and a memcpy per frame.
//
// The receive path reads payloads straight into pooled chunk buffers
// (proto.ReadFromPooled): the packet owns the chunk and its consumer
// releases it, so a sustained stream recycles a handful of buffers
// instead of allocating one per frame.
type tcpPacketStream struct {
	conn   net.Conn
	frozen func() bool // fault injection; nil on dialed (client) ends
	closed atomic.Bool

	sendMu sync.Mutex
	hdrBuf []byte    // header scratch, reused across sends
	vecs   [2][]byte // iovec scratch, reused across sends

	recvMu sync.Mutex
	br     *bufio.Reader
}

// Send implements PacketStream. Send consumes one payload reference,
// success or failure: once the bytes are on the wire (or the write
// failed) a pooled payload goes straight back to the chunk pool.
func (s *tcpPacketStream) Send(pkt *proto.Packet) error {
	defer pkt.Release()
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	hdr, err := pkt.AppendHeader(s.hdrBuf[:0])
	if err != nil {
		return err
	}
	s.hdrBuf = hdr[:0]
	if len(pkt.Data) == 0 {
		_, err = s.conn.Write(hdr)
		return err
	}
	s.vecs[0], s.vecs[1] = hdr, pkt.Data
	bufs := net.Buffers(s.vecs[:])
	_, err = bufs.WriteTo(s.conn)
	s.vecs[0], s.vecs[1] = nil, nil
	return err
}

// Recv implements PacketStream. The returned packet owns its pooled
// payload buffer; the consumer must Release (or TakeData) it.
func (s *tcpPacketStream) Recv() (*proto.Packet, error) {
	s.recvMu.Lock()
	defer s.recvMu.Unlock()
	pkt := &proto.Packet{}
	if _, err := pkt.ReadFromPooled(s.br); err != nil {
		return nil, err
	}
	for s.frozen != nil && s.frozen() {
		// Half-open emulation: hold the frame without error until healed
		// or the stream is torn down, mirroring Memory.Freeze.
		if s.closed.Load() {
			pkt.Release()
			return nil, io.EOF
		}
		time.Sleep(time.Millisecond)
	}
	return pkt, nil
}

// Close implements PacketStream.
func (s *tcpPacketStream) Close() error {
	s.closed.Store(true)
	return s.conn.Close()
}

func serveConn(conn net.Conn, h Handler, l *tcpListener) {
	defer conn.Close()
	c := newTCPConn(conn, 256*util.KB)
	for {
		op, status, req, err := c.readFrame()
		if err != nil {
			return // peer closed, stream corrupt or undecodable; drop the connection
		}
		if status == statusStreamOpen {
			sh := l.streamHandler()
			if sh == nil {
				return // no stream service here; drop the connection
			}
			// The reader hands over AS IS: it may already hold buffered
			// stream frames that followed the upgrade header. Every
			// response went out whole, and the stream writes straight to
			// the socket.
			sh(op, &tcpPacketStream{
				conn:   conn,
				br:     c.br,
				frozen: func() bool { return l.t.isFrozen(l.addr) },
			})
			return
		}
		resp, herr := h(op, req)
		status = statusOK
		if herr != nil {
			status, resp = statusErr, EncodeError(herr)
		}
		if err := c.writeFrame(op, status, resp); err != nil {
			return
		}
	}
}

// Call implements Network.
func (t *TCP) Call(addr string, op uint8, req, resp any) error {
	if t.NonPersistent {
		conn, err := t.dialCall(addr)
		if err != nil {
			return err
		}
		defer conn.Close()
		return conn.call(op, req, resp)
	}
	pool := t.pool(addr)
	conn, err := pool.get(t)
	if err != nil {
		return err
	}
	err = conn.call(op, req, resp)
	if err != nil {
		if _, ok := err.(*RemoteError); ok {
			pool.put(conn) // application error; connection is still good
			return err
		}
		conn.Close() // transport or codec error; discard the connection
		return err
	}
	pool.put(conn)
	return nil
}

// OpenStream implements StreamNetwork: the returned stream pins one
// dedicated connection to addr and reuses it for every send, bypassing the
// shared pool entirely. This is the per-peer stream reuse MultiRaft wants:
// a node's whole Raft load to a peer rides one socket, so pool churn and
// head-of-line contention with data-path calls disappear. The connection is
// dialed on first use and re-dialed after a transport error.
func (t *TCP) OpenStream(addr string) Stream { return &tcpStream{t: t, addr: addr} }

type tcpStream struct {
	t    *TCP
	addr string

	mu   sync.Mutex
	conn *tcpConn
}

// Send implements Stream. The server's reply frame is read (keeping the
// connection in lockstep) and discarded.
func (s *tcpStream) Send(op uint8, req any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn == nil {
		conn, err := s.t.dialCall(s.addr)
		if err != nil {
			return err
		}
		s.conn = conn
	}
	err := s.conn.call(op, req, nil)
	if err != nil {
		if _, ok := err.(*RemoteError); ok {
			return err // application error; the connection is still good
		}
		s.conn.Close() // transport or codec error; re-dial (and a fresh codec) next send
		s.conn = nil
	}
	return err
}

// Close implements Stream.
func (s *tcpStream) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn != nil {
		err := s.conn.Close()
		s.conn = nil
		return err
	}
	return nil
}

func (t *TCP) dial(addr string) (net.Conn, error) {
	d := t.DialTimeout
	if d == 0 {
		d = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, d)
	if err != nil {
		return nil, fmt.Errorf("transport: %w: dial %s: %v", util.ErrTimeout, addr, err)
	}
	return conn, nil
}

// dialCall dials a connection for request/response frames.
func (t *TCP) dialCall(addr string) (*tcpConn, error) {
	conn, err := t.dial(addr)
	if err != nil {
		return nil, err
	}
	return newTCPConn(conn, 4*util.KB), nil
}

func (t *TCP) pool(addr string) *connPool {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.pools[addr]
	if !ok {
		p = &connPool{addr: addr}
		t.pools[addr] = p
	}
	return p
}

type connPool struct {
	addr string
	mu   sync.Mutex
	free []*tcpConn
}

func (p *connPool) get(t *TCP) (*tcpConn, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()
	return t.dialCall(p.addr)
}

func (p *connPool) put(c *tcpConn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) >= maxPoolPerPeer {
		c.Close()
		return
	}
	p.free = append(p.free, c)
}

// ---------------------------------------------------------------------------
// The connection codec.

// tcpConn is one request/response connection and its codec: one gob
// encoder and one gob decoder for the connection's whole life, so each
// type descriptor crosses the wire once per connection and direction.
// Calls on a tcpConn are serialized by its owner (the pool hands it to
// one caller at a time; serveConn and tcpStream own theirs).
type tcpConn struct {
	net.Conn
	br   *bufio.Reader
	hdr  [7]byte
	out  frameBuffer // the frame being written; the encoder appends to it
	body bodyReader  // the frame body being read; the decoder reads from it
	enc  *gob.Encoder
	dec  *gob.Decoder
}

func newTCPConn(conn net.Conn, readBuf int) *tcpConn {
	c := &tcpConn{Conn: conn, br: bufio.NewReaderSize(conn, readBuf)}
	c.body.r = c.br
	c.enc = gob.NewEncoder(&c.out)
	c.dec = gob.NewDecoder(&c.body)
	return c
}

// call sends one request and reads its reply into resp. An error other
// than a *RemoteError leaves the connection unusable.
func (c *tcpConn) call(op uint8, req, resp any) error {
	if err := c.writeFrame(op, statusRequest, req); err != nil {
		return err
	}
	_, status, body, err := c.readFrame()
	if err != nil {
		return err
	}
	if status == statusErr {
		if remote, ok := body.(*RemoteError); ok {
			return remote
		}
		return fmt.Errorf("transport: error reply carries %T", body)
	}
	return copyInto(resp, body)
}

// writeFrame encodes one frame into the connection's buffer and sends it
// with one write.
func (c *tcpConn) writeFrame(op, status uint8, body any) error {
	c.out = append(c.out[:0], op, kindGob, status, 0, 0, 0, 0)
	var err error
	if p, ok := body.(*proto.Packet); ok {
		c.out[1] = kindPacket
		if c.out, err = p.AppendHeader(c.out); err == nil {
			c.out = append(c.out, p.Data...)
		}
	} else {
		err = c.enc.Encode(&body)
	}
	if err != nil {
		return err
	}
	binary.BigEndian.PutUint32(c.out[3:], uint32(len(c.out)-len(c.hdr)))
	_, err = c.Write(c.out)
	return err
}

// readFrame reads one frame and decodes its body, which must be consumed
// exactly. A stream-open frame has no body: the raw stream follows it.
func (c *tcpConn) readFrame() (op, status uint8, body any, err error) {
	if _, err = io.ReadFull(c.br, c.hdr[:]); err != nil {
		return
	}
	op, status = c.hdr[0], c.hdr[2]
	if status == statusStreamOpen {
		return
	}
	c.body.n = int(binary.BigEndian.Uint32(c.hdr[3:]))
	switch c.hdr[1] {
	case kindPacket:
		p := &proto.Packet{}
		_, err = p.ReadFrom(&c.body)
		body = p
	case kindGob:
		err = c.dec.Decode(&body)
	default:
		err = fmt.Errorf("transport: unknown frame kind %d", c.hdr[1])
	}
	if err == nil && c.body.n != 0 {
		err = fmt.Errorf("transport: %d body bytes left undecoded", c.body.n)
	}
	return
}

type frameBuffer []byte

func (b *frameBuffer) Write(p []byte) (int, error) {
	*b = append(*b, p...)
	return len(p), nil
}

// bodyReader reads the current frame's body and no further. It is an
// io.ByteReader, so gob reads from it as is instead of wrapping it in a
// bufio.Reader that would read ahead into the next frame.
type bodyReader struct {
	r *bufio.Reader
	n int
}

func (b *bodyReader) Read(p []byte) (int, error) {
	if b.n <= 0 {
		return 0, io.EOF
	}
	if len(p) > b.n {
		p = p[:b.n]
	}
	n, err := b.r.Read(p)
	b.n -= n
	return n, err
}

func (b *bodyReader) ReadByte() (byte, error) {
	if b.n <= 0 {
		return 0, io.EOF
	}
	v, err := b.r.ReadByte()
	if err == nil {
		b.n--
	}
	return v, err
}
