package main

import (
	"fmt"
	"testing"

	"cfs/internal/proto"
	"cfs/internal/transport"
	"cfs/internal/util"
)

// testFabric returns a fresh fabric of each kind with an address to serve
// at.
func testFabrics(t *testing.T) map[string]func() (transport.Network, string) {
	return map[string]func() (transport.Network, string){
		"memory": func() (transport.Network, string) { return transport.NewMemory(), "sink" },
		"tcp": func() (transport.Network, string) {
			addrs, err := allocAddrs(1)
			if err != nil {
				t.Fatal(err)
			}
			return transport.NewTCP(), addrs[0]
		},
	}
}

// TestTraceNetKeepsPoolContract streams pooled 64 KiB frames through a
// recording tracenet on both fabrics and checks that every chunk taken from
// the pool went back: the wrapper must neither drop nor double-release a
// payload, and must not touch a packet after Send consumed it.
func TestTraceNetKeepsPoolContract(t *testing.T) {
	const frames = 200
	for name, mk := range testFabrics(t) {
		t.Run(name, func(t *testing.T) {
			inner, addr := mk()
			tr := newTracer()
			tr.on.Store(true)
			tr.setPhase("test")
			server := newTraceNet(inner, tr, "dn0", roleData, -1)
			var client transport.Network = newTraceNet(inner, tr, "client0", roleClient, 0)

			ln, err := server.Listen(addr, func(op uint8, req any) (any, error) { return &proto.Packet{}, nil })
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			served := make(chan error, 1)
			if err := server.ListenStream(addr, func(op uint8, s transport.PacketStream) {
				served <- func() error {
					for i := 0; i < frames; i++ {
						pkt, err := s.Recv()
						if err != nil {
							return fmt.Errorf("server recv %d: %w", i, err)
						}
						if len(pkt.Data) != util.ReadChunkSize || pkt.Data[0] != byte(i) {
							return fmt.Errorf("frame %d arrived damaged", i)
						}
						id := pkt.ReqID
						pkt.Release()
						if err := s.Send(&proto.Packet{Op: proto.OpDataAppend, ReqID: id}); err != nil {
							return fmt.Errorf("server ack %d: %w", i, err)
						}
					}
					return nil
				}()
			}); err != nil {
				t.Fatal(err)
			}

			gets0, puts0 := util.ChunkStats()
			psn, ok := client.(transport.PacketStreamNetwork)
			if !ok {
				t.Fatal("tracenet hides PacketStreamNetwork")
			}
			st, err := psn.DialStream(addr, uint8(proto.OpDataWriteStream))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < frames; i++ {
				pkt := &proto.Packet{Op: proto.OpDataAppend, ReqID: uint64(i), Data: util.GetChunk(util.ReadChunkSize)}
				pkt.Data[0] = byte(i)
				pkt.MarkPooled()
				if err := st.Send(pkt); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
				ack, err := st.Recv()
				if err != nil {
					t.Fatalf("ack %d: %v", i, err)
				}
				if ack.ReqID != uint64(i) {
					t.Fatalf("ack %d carries ReqID %d", i, ack.ReqID)
				}
				ack.Release()
			}
			if err := <-served; err != nil {
				t.Fatal(err)
			}
			st.Close()
			gets1, puts1 := util.ChunkStats()
			if g, p := gets1-gets0, puts1-puts0; g != p || g < frames {
				t.Fatalf("chunk pool out of balance: %d gets, %d puts (want equal, >= %d)", g, p, frames)
			}

			// One frame span per frame on the client, one handle span per
			// frame on the server, all closed.
			count := map[spanKind]int{}
			tr.each(func(_ *shard, sp *span) {
				if sp.end <= sp.start {
					t.Errorf("span %v never closed", sp.kind)
				}
				count[sp.kind]++
			})
			if count[spanFrame] != frames || count[spanHandle] != frames || count[spanDial] != 1 {
				t.Fatalf("spans: %v, want %d frames, %d handles, 1 dial", count, frames, frames)
			}
		})
	}
}

// TestTraceNetKeepsInterfaces checks what multiraft, the client session
// pools and the datanode do at start-up: assert the network to the richer
// interfaces. A wrapper that only implemented transport.Network would send
// them all down their unary fallbacks and the benchmark would silently
// measure a different data path when tracing.
func TestTraceNetKeepsInterfaces(t *testing.T) {
	var nw transport.Network = newTraceNet(transport.NewMemory(), newTracer(), "x", roleData, -1)
	if _, ok := nw.(transport.StreamNetwork); !ok {
		t.Error("tracenet is not a transport.StreamNetwork (multiraft would fall back to Call)")
	}
	if _, ok := nw.(transport.PacketStreamNetwork); !ok {
		t.Error("tracenet is not a transport.PacketStreamNetwork (client pools and datanode would fall back to Call)")
	}
}

func TestCovered(t *testing.T) {
	ivs := [][2]int64{{10, 20}, {15, 30}, {40, 50}, {0, 5}, {90, 200}}
	if got := covered(ivs, 10, 100); got != 20+10+10 {
		t.Fatalf("covered = %d, want 40", got)
	}
}
