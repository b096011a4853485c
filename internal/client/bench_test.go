package client

import (
	"sync/atomic"
	"testing"

	"cfs/internal/proto"
	"cfs/internal/transport"
)

// frameNet counts the packet-stream frames a mount sends and receives.
type frameNet struct {
	transport.PacketStreamNetwork
	frames atomic.Int64
}

func (n *frameNet) DialStream(addr string, op uint8) (transport.PacketStream, error) {
	st, err := n.PacketStreamNetwork.DialStream(addr, op)
	if err != nil {
		return nil, err
	}
	return &frameStream{PacketStream: st, n: n}, nil
}

type frameStream struct {
	transport.PacketStream
	n *frameNet
}

func (s *frameStream) Send(p *proto.Packet) error {
	s.n.frames.Add(1)
	return s.PacketStream.Send(p)
}

func (s *frameStream) Recv() (*proto.Packet, error) {
	p, err := s.PacketStream.Recv()
	if err == nil {
		s.n.frames.Add(1)
	}
	return p, err
}

// BenchmarkSmallFileWrite writes 4 KiB small files back to back, each one
// DataClient.WriteSmallFile on the pooled session of a volume with one
// 3-replica data partition, on the Memory fabric and on loopback TCP. It
// reports µs and allocations per file (the whole in-process cluster's:
// client, leader and followers) and the frames per file on the client's
// write session, sent and received. The leader's chain to its followers,
// and the committed-offset gossip on it, is not visible from the client.
func BenchmarkSmallFileWrite(b *testing.B) {
	for _, fabric := range []string{"mem", "tcp"} {
		b.Run(fabric, func(b *testing.B) {
			c := bootCluster(b, map[string]string{"mem": "memory", "tcp": "tcp"}[fabric], "smallvol", 1, 1)
			nw := &frameNet{PacketStreamNetwork: c.Net()}
			cl, err := Mount(nw, c.MasterAddr(), "smallvol", Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			data := make([]byte, 4096)
			if _, err := cl.Data.WriteSmallFile(0, data); err != nil { // dial the session
				b.Fatal(err)
			}
			nw.frames.Store(0)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if _, err := cl.Data.WriteSmallFile(0, data); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/file")
			b.ReportMetric(float64(nw.frames.Load())/float64(b.N), "frames/file")
		})
	}
}
