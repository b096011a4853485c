package transport

import (
	"bufio"
	"errors"
	"net"
	"os"
	"syscall"

	"cfs/internal/proto"
)

// newPacketStream makes the packet stream over conn. A kernel socket's
// stream is a fileStream, which can also send payloads from files; any
// other connection's (the Memory fabric's) is a plain tcpPacketStream.
func newPacketStream(conn net.Conn, br *bufio.Reader, frozen func() bool) PacketStream {
	s := &tcpPacketStream{conn: conn, br: br, frozen: frozen}
	if sc, ok := conn.(syscall.Conn); ok {
		if raw, err := sc.SyscallConn(); err == nil {
			return &fileStream{tcpPacketStream: s, raw: raw}
		}
	}
	return s
}

// fileStream is a packet stream over a kernel socket that can also send a
// frame's payload straight from a file (SendFile). The header goes out
// with MSG_MORE and the payload follows it with sendfile(2), from the
// file's page cache to the socket without crossing user space, through
// the socket's RawConn: the runtime's poller waits out EAGAIN, and partial
// writes resume where they stopped. Users find SendFile by type
// assertion; a stream without it (Memory, a wrapping stream) is sent
// buffers.
type fileStream struct {
	*tcpPacketStream
	raw syscall.RawConn
}

// errShortFile reports a file that ended before the frame's payload did.
var errShortFile = errors.New("transport: file ended inside a sendfile payload")

// SendFile sends pkt with the n bytes of f at off as its payload; pkt.Data
// is ignored and pkt.CRC must already cover those bytes. It pins f for the
// whole send: a concurrent Close of f either fails the send before it
// starts or takes effect after it ends, and never redirects it to a
// reused descriptor. Any error closes the stream: a short payload (f was
// truncated underneath) leaves the peer waiting for bytes the header
// promised.
//
// The kernel queues references to f's pages, not copies: bytes written to
// that range of f before the peer has received them go out as written,
// so a caller that overwrites in place relies on pkt.CRC to expose it.
func (s *fileStream) SendFile(pkt *proto.Packet, f *os.File, off int64, n int) error {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	err := s.sendFile(pkt, f, off, n)
	if err != nil {
		s.Close()
	}
	return err
}

func (s *fileStream) sendFile(pkt *proto.Packet, f *os.File, off int64, n int) error {
	hdr, err := pkt.AppendHeaderLen(s.hdrBuf[:0], n)
	if err != nil {
		return err
	}
	s.hdrBuf = hdr[:0]
	fc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	// Control holds a reference on f's descriptor until the callback
	// returns: a Close of f meanwhile defers the close(2), so the
	// descriptor number cannot be reused under the sendfile.
	var werr, opErr error
	if err := fc.Control(func(ffd uintptr) {
		werr = s.raw.Write(func(sfd uintptr) bool {
			for len(hdr) > 0 {
				w, err := syscall.SendmsgN(int(sfd), hdr, nil, nil, syscall.MSG_MORE)
				switch {
				case err == syscall.EAGAIN:
					return false // the poller waits for room, then calls again
				case err == syscall.EINTR:
					continue
				case err != nil:
					opErr = err
					return true
				}
				hdr = hdr[w:]
			}
			for n > 0 {
				w, err := syscall.Sendfile(int(sfd), int(ffd), &off, n)
				switch {
				case err == syscall.EAGAIN:
					return false
				case err == syscall.EINTR:
					continue
				case err != nil:
					opErr = err
					return true
				case w == 0:
					opErr = errShortFile
					return true
				}
				n -= w
			}
			return true
		})
	}); err != nil {
		return err
	}
	if werr != nil {
		return werr
	}
	return opErr
}
