package transport

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"cfs/internal/proto"
	"cfs/internal/util"
)

// fileSender is what the read server asserts a stream for.
type fileSender interface {
	PacketStream
	SendFile(pkt *proto.Packet, f *os.File, off int64, n int) error
}

// fileSenderPair opens a packet stream over TCP loopback and returns the
// accepting end, which must send from files, and the dialing end.
func fileSenderPair(t *testing.T) (fileSender, PacketStream) {
	t.Helper()
	nw := NewTCP()
	ln, err := nw.Listen("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted := make(chan PacketStream)
	hold := make(chan struct{})
	t.Cleanup(func() { close(hold) })
	if err := nw.ListenStream(ln.Addr(), func(op uint8, s PacketStream) {
		accepted <- s
		<-hold // the transport closes the stream when the handler returns
	}); err != nil {
		t.Fatal(err)
	}
	cli, err := nw.DialStream(ln.Addr(), uint8(proto.OpDataReadStream))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	fs, ok := (<-accepted).(fileSender)
	if !ok {
		t.Fatal("a stream over a kernel socket cannot send from files")
	}
	return fs, cli
}

func tempFile(t *testing.T, data []byte) *os.File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "extent")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestSendFileFrames: a frame sent from a file arrives as an ordinary
// packet - header fields, payload and CRC - interleaved in order with
// frames sent from buffers; a Memory stream cannot send from files, so
// its users keep the buffered path.
func TestSendFileFrames(t *testing.T) {
	fs, cli := fileSenderPair(t)
	data := bytes.Repeat([]byte("0123456789abcdef"), util.DefaultPacketSize/8)
	f := tempFile(t, data)
	off, n := util.DefaultPacketSize/2, util.DefaultPacketSize
	want := data[off : off+n]
	for i := uint64(1); i <= 3; i++ {
		pkt := &proto.Packet{Op: proto.OpDataRead, ReqID: i, ExtentOffset: uint64(off), FileOffset: 3 - i, CRC: util.CRC(want)}
		if err := fs.SendFile(pkt, f, int64(off), n); err != nil {
			t.Fatal(err)
		}
	}
	tail := &proto.Packet{Op: proto.OpDataPing, ReqID: 4}
	if err := fs.Send(tail); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 4; i++ {
		pkt, err := cli.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if pkt.ReqID != i {
			t.Fatalf("frame %d arrived as %d", i, pkt.ReqID)
		}
		if i < 4 && (!bytes.Equal(pkt.Data, want) || !pkt.VerifyCRC() || pkt.FileOffset != 3-i) {
			t.Fatalf("file frame %d: %d bytes, crc ok %v, FileOffset %d", i, len(pkt.Data), pkt.VerifyCRC(), pkt.FileOffset)
		}
		pkt.Release()
	}

	m := NewMemory()
	if _, err := m.Listen("srv", echoHandler); err != nil {
		t.Fatal(err)
	}
	accepted := make(chan PacketStream, 1)
	if err := m.ListenStream("srv", func(op uint8, s PacketStream) { accepted <- s }); err != nil {
		t.Fatal(err)
	}
	ms, err := m.DialStream("srv", uint8(proto.OpDataReadStream))
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	if _, ok := (<-accepted).(fileSender); ok {
		t.Fatal("a Memory stream claims to send from files")
	}
}

// TestSendFileShortClosesStream: a file that ends inside the payload (an
// extent truncated underneath) fails the send and closes the stream - the
// header already promised the peer n bytes, so no later frame could be
// read in step.
func TestSendFileShortClosesStream(t *testing.T) {
	fs, cli := fileSenderPair(t)
	f := tempFile(t, make([]byte, 1000))
	err := fs.SendFile(&proto.Packet{Op: proto.OpDataRead, ReqID: 1}, f, 0, 4096)
	if !errors.Is(err, errShortFile) {
		t.Fatalf("short SendFile: %v", err)
	}
	if pkt, err := cli.Recv(); err == nil {
		t.Fatalf("peer received a frame (%d bytes) from a short send", len(pkt.Data))
	}
	if err := fs.Send(&proto.Packet{Op: proto.OpDataPing}); err == nil {
		t.Fatal("the stream still sends after a short SendFile")
	}
}

// TestSendFileClosedFileClosesStream: a file closed before the send (its
// extent deleted while the frame was queued) fails the send before any
// byte goes out - the descriptor is pinned through the file, never taken
// as a number that a later open could reuse - and closes the stream.
func TestSendFileClosedFileClosesStream(t *testing.T) {
	fs, cli := fileSenderPair(t)
	f := tempFile(t, make([]byte, 4096))
	f.Close()
	// Reuse the descriptor number at once: a sendfile from f's number
	// would now read this file.
	tempFile(t, bytes.Repeat([]byte{0xAA}, 4096))
	if err := fs.SendFile(&proto.Packet{Op: proto.OpDataRead, ReqID: 1}, f, 0, 4096); err == nil {
		t.Fatal("SendFile from a closed file succeeded")
	}
	if pkt, err := cli.Recv(); err == nil {
		t.Fatalf("peer received a frame (%d bytes) from a closed file", len(pkt.Data))
	}
}
