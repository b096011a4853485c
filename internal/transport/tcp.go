package transport

import (
	"bufio"
	"encoding"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cfs/internal/proto"
	"cfs/internal/util"
)

// TCP is a Network over real sockets, used by the cmd/cfs-server daemons.
// Memory runs this same code over in-process connections: a TCP's fabric
// makes its connections, and everything above a net.Conn is shared.
//
// Frame layout (big endian):
//
//	op(1) kind(1) status(1) bodyLen(4) body
//
// kind selects the body codec: kindGob for control-plane messages (encoded
// with encoding/gob), kindPacket for *proto.Packet data-path frames
// (encoded with the binary codec in package proto) and kindRaw for a body
// in a binary layout. Which layout a kindRaw body has, the op says, on
// both ends: the request and reply of a metadata op with a layout
// (proto.HasMetaLayout: every client metadata RPC, the master's split and
// the partition snapshot fsck reads) use proto's meta layout, and the
// receiver decodes them into the op's typed request or straight into the
// caller's reply; any other op's kindRaw body encoded itself (an
// encoding.BinaryAppender, such as a MultiRaft batch), and the receiver's
// handler gets a Raw copy of its bytes. A body whose type is not its op's
// layout goes gob.
// status is statusRequest or statusOneWay on requests - a one-way request
// (a Stream send) is never answered - and statusOK or statusErr (body is a
// gob RemoteError) on responses.
//
// Every connection carries one gob stream per direction for its whole life:
// a gob body holds only the type descriptors that connection has not
// carried before, so a warm connection sends each type once. A gob stream
// cannot be resynchronised, so any encode or decode error drops the
// connection. Both ends must run this wire version.
//
// Connections to a peer are pooled and reused.
type TCP struct {
	// DialTimeout bounds connection establishment. Zero means 5s.
	DialTimeout time.Duration

	mu        sync.Mutex
	pools     map[string]*connPool
	listeners map[string]*tcpListener // keyed by bind addr and resolved addr
	dials     uint64                  // packet-stream dials (session-pool ablations)
	frozen    *sync.Map               // addrs whose inbound stream frames stall
	fabric    fabric                  // makes the connections; nil: kernel sockets
}

// fabric is what makes a TCP's connections: listeners to accept on and
// dials to peers. Memory is one; a TCP without one uses kernel sockets.
// stream says the connection is dialed for a packet stream, not for calls.
type fabric interface {
	listen(addr string) (net.Listener, error)
	dial(addr string, stream bool) (net.Conn, error)
}

const (
	kindGob    uint8 = 0
	kindPacket uint8 = 1
	kindRaw    uint8 = 2

	statusRequest uint8 = 0
	statusOK      uint8 = 1
	statusErr     uint8 = 2
	// statusStreamOpen upgrades the connection to a duplex packet stream:
	// every subsequent frame on the wire is a bare proto.Packet (its own
	// magic and length fields delimit it), flowing both ways without the
	// request/response lockstep.
	statusStreamOpen uint8 = 3
	// statusOneWay is a request nothing answers: the handler runs and its
	// result, error included, is dropped.
	statusOneWay uint8 = 4

	maxPoolPerPeer = 8
)

// NewTCP returns a pooled TCP network.
func NewTCP() *TCP { return newTCP(nil, &sync.Map{}) }

func newTCP(f fabric, frozen *sync.Map) *TCP {
	proto.RegisterGob()
	gob.Register(&RemoteError{})
	return &TCP{
		pools:     make(map[string]*connPool),
		listeners: make(map[string]*tcpListener),
		frozen:    frozen,
		fabric:    f,
	}
}

// Loopback listen ports come from below the kernel's ephemeral range
// (32768 and up by default), so an outgoing connection - this process's
// or another's - is never handed a port a node is about to bind. The walk
// starts at a pid-derived port so that test processes running side by
// side seldom overlap; ports are a per-host resource, hence one walk per
// process.
const loopbackPortMin, loopbackPortMax = 12000, 30000

var loopbackPort = struct {
	sync.Mutex
	next int
}{next: loopbackPortMin + os.Getpid()%(loopbackPortMax-loopbackPortMin)}

// LoopbackAddrs returns n distinct 127.0.0.1 addresses that were free a
// moment ago. Another process can still bind one first; a caller that
// sees "address already in use" asks for a fresh address.
func LoopbackAddrs(n int) ([]string, error) {
	loopbackPort.Lock()
	defer loopbackPort.Unlock()
	addrs := make([]string, 0, n)
	for tries := 0; len(addrs) < n; tries++ {
		if tries > 200+n {
			return nil, fmt.Errorf("transport: no free loopback port in [%d, %d)", loopbackPortMin, loopbackPortMax)
		}
		loopbackPort.next++
		if loopbackPort.next >= loopbackPortMax {
			loopbackPort.next = loopbackPortMin
		}
		addr := fmt.Sprintf("127.0.0.1:%d", loopbackPort.next)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			continue
		}
		ln.Close()
		addrs = append(addrs, addr)
	}
	return addrs, nil
}

// Freeze half-opens addr: packet-stream frames arriving AT addr stall in
// the server-side Recv with no error on either end, so the node looks
// alive and silent (its unary RPC plane keeps answering). Liveness
// deadlines, not error paths, must convert this into progress - which is
// exactly what the failover regression suites assert, on both fabrics.
func (t *TCP) Freeze(addr string) { t.frozen.Store(addr, true) }

// Heal unfreezes addr.
func (t *TCP) Heal(addr string) { t.frozen.Delete(addr) }

type tcpListener struct {
	t    *TCP
	ln   net.Listener
	addr string
	wg   sync.WaitGroup

	mu      sync.Mutex
	closed  bool // set by Close; track refuses connections from then on
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
	l.closed = true
	for c := range l.conns {
		c.Close()
	}
	l.mu.Unlock()
	l.wg.Wait()
	return err
}

// track registers an accepted connection for Close to sweep. A connection
// accepted just before Close that reaches here after the sweep is closed
// and refused: nothing else would ever close it, and its serveConn would
// pin Close's wait.
func (l *tcpListener) track(c net.Conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		c.Close()
		return false
	}
	l.conns[c] = struct{}{}
	return true
}

func (l *tcpListener) untrack(c net.Conn) {
	l.mu.Lock()
	delete(l.conns, c)
	l.mu.Unlock()
}

// Listen implements Network.
func (t *TCP) Listen(addr string, h Handler) (Listener, error) {
	var ln net.Listener
	var err error
	if t.fabric != nil {
		ln, err = t.fabric.listen(addr)
	} else {
		ln, err = net.Listen("tcp", addr)
	}
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
			if !l.track(conn) {
				return
			}
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
	conn, err := t.dial(addr, true)
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
	return newPacketStream(conn, bufio.NewReaderSize(conn, 256*util.KB), nil), nil
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
		op, status, req, err := c.readFrame(nil)
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
			sh(op, newPacketStream(conn, c.br, func() bool { _, ok := l.t.frozen.Load(l.addr); return ok }))
			return
		}
		if status == statusOneWay {
			_, _ = h(op, req) // nothing is sent back, not even an error
			continue
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
	pool := t.pool(addr)
	for {
		conn, reused, err := pool.get(t)
		if err != nil {
			return err
		}
		err = conn.call(op, req, resp)
		if _, remote := err.(*RemoteError); err == nil || remote {
			pool.put(conn) // an application error leaves the connection good
			return err
		}
		conn.Close() // transport or codec error; discard the connection
		if !reused || !peerClosed(err) {
			return err
		}
		// The peer had closed this pooled connection - it restarted
		// while the connection sat idle - so no handler took the request
		// (or the peer died under it, which callers retry anyway): send
		// it again, on the next pooled connection or a fresh one.
	}
}

// peerClosed reports an error that says the peer had closed the
// connection.
func peerClosed(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
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

// Send implements Stream: it writes one one-way frame and returns; the
// server answers nothing, so Send never reads. A write that fails drops
// the connection, and the next Send re-dials.
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
	err := s.conn.writeFrame(op, statusOneWay, req)
	if err != nil {
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

func (t *TCP) dial(addr string, stream bool) (net.Conn, error) {
	if t.fabric != nil {
		return t.fabric.dial(addr, stream)
	}
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
	conn, err := t.dial(addr, false)
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

// get hands out an idle connection (reused) or dials a new one.
func (p *connPool) get(t *TCP) (c *tcpConn, reused bool, err error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return c, true, nil
	}
	p.mu.Unlock()
	c, err = t.dialCall(p.addr)
	return c, false, err
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
	_, status, body, err := c.readFrame(resp)
	if err != nil {
		return err
	}
	if status == statusErr {
		if remote, ok := body.(*RemoteError); ok {
			return remote
		}
		return fmt.Errorf("transport: error reply carries %T", body)
	}
	if c.hdr[1] == kindRaw && proto.HasMetaLayout(proto.Op(op)) {
		return nil // readFrame decoded the binary reply into resp
	}
	return copyInto(resp, body)
}

// writeFrame encodes one frame into the connection's buffer and sends it
// with one write.
func (c *tcpConn) writeFrame(op, status uint8, body any) error {
	c.out = append(c.out[:0], op, kindGob, status, 0, 0, 0, 0)
	var err error
	switch b := body.(type) {
	case *proto.Packet:
		c.out[1] = kindPacket
		if c.out, err = b.AppendHeader(c.out); err == nil {
			c.out = append(c.out, b.Data...)
		}
	case encoding.BinaryAppender:
		c.out[1] = kindRaw
		c.out, err = b.AppendBinary(c.out)
	default:
		var ok bool
		if c.out, ok = proto.AppendMeta(c.out, proto.Op(op), status == statusOK, body); ok {
			c.out[1] = kindRaw
		} else {
			v := body // only a gob body pays for the escape to the heap
			err = c.enc.Encode(&v)
		}
	}
	if err != nil {
		return err
	}
	binary.BigEndian.PutUint32(c.out[3:], uint32(len(c.out)-len(c.hdr)))
	_, err = c.Write(c.out)
	return err
}

// readFrame reads one frame and decodes its body, which must be consumed
// exactly. A stream-open frame has no body: the raw stream follows it. A
// binary reply of a metadata op decodes into resp (and is dropped when resp
// is nil); its body comes back nil.
func (c *tcpConn) readFrame(resp any) (op, status uint8, body any, err error) {
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
	case kindRaw:
		if !proto.HasMetaLayout(proto.Op(op)) {
			body, err = readRaw(&c.body, c.body.n)
			break
		}
		body, err = c.readMeta(proto.Op(op), status == statusOK, resp)
	case kindGob:
		var v any // only a gob body pays for the escape to the heap
		err = c.dec.Decode(&v)
		body = v
	default:
		err = fmt.Errorf("transport: unknown frame kind %d", c.hdr[1])
	}
	if err == nil && c.body.n != 0 {
		err = fmt.Errorf("transport: %d body bytes left undecoded", c.body.n)
	}
	return
}

// readMeta decodes the current frame's body in op's meta layout: the
// request, or the reply into resp. A body that fits the read buffer is
// decoded where it lies; the decoder copies what it keeps.
func (c *tcpConn) readMeta(op proto.Op, reply bool, resp any) (any, error) {
	n := c.body.n
	var data []byte
	if n <= c.br.Size() {
		var err error
		if data, err = c.br.Peek(n); err != nil {
			return nil, err
		}
		defer c.br.Discard(n) // after the decode: Discard reads nothing, so data stays valid
		c.body.n = 0
	} else {
		raw, err := readRaw(&c.body, n)
		if err != nil {
			return nil, err
		}
		data = raw
	}
	switch {
	case !reply:
		return proto.DecodeMetaRequest(op, data)
	case resp == nil:
		return nil, nil
	}
	return nil, proto.DecodeMetaReply(op, data, resp)
}

// readRaw reads an n-byte kindRaw body into a buffer of its own. The
// buffer grows with the bytes that arrive, not with the length the header
// claims, so a corrupt length costs no more memory than was sent.
func readRaw(r io.Reader, n int) (Raw, error) {
	buf := make([]byte, 0, min(n, 64*util.KB))
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		m, err := r.Read(buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+m]
		if err != nil && len(buf) < n {
			return nil, err
		}
	}
	return buf, nil
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
