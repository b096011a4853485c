package transport

import (
	"testing"

	"cfs/internal/proto"
	"cfs/internal/util"
)

// BenchmarkPacketStream streams 128 KiB append frames one way over a
// loopback tcpPacketStream: the client Sends, the server Recvs and
// Releases. MB/s is the stream's throughput; B/op and allocs/op count both
// ends together, so a receive side that allocates its payload shows as
// ~128 KiB per op.
func BenchmarkPacketStream(b *testing.B) {
	nw := NewTCP()
	ln, err := nw.Listen("127.0.0.1:0", echoHandler)
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	received := make(chan int)
	if err := nw.ListenStream(ln.Addr(), func(op uint8, s PacketStream) {
		n := 0
		for {
			pkt, err := s.Recv()
			if err != nil {
				received <- n
				return
			}
			pkt.Release()
			n++
		}
	}); err != nil {
		b.Fatal(err)
	}
	st, err := nw.DialStream(ln.Addr(), uint8(proto.OpDataWriteStream))
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, util.DefaultPacketSize)
	pkt := proto.Packet{Op: proto.OpDataAppend, CRC: util.CRC(payload), Data: payload}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt.ReqID = uint64(i)
		if err := st.Send(&pkt); err != nil {
			b.Fatal(err)
		}
	}
	st.Close()
	if n := <-received; n != b.N {
		b.Fatalf("server received %d of %d frames", n, b.N)
	}
}
