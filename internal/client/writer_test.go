package client

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cfs/internal/clock"
	"cfs/internal/datanode"
	"cfs/internal/proto"
	"cfs/internal/transport"
	"cfs/internal/util"
)

// patterned returns n bytes that vary with the offset and the seed, so a
// packet stored with another packet's bytes cannot match its checksum.
func patterned(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7) ^ byte(i>>9) ^ seed
	}
	return b
}

// TestWriteChunkPoolBalance: a multi-MiB streamed write takes every packet
// copy from the chunk pool and returns each on its all-replica ack, and
// the data nodes return every frame they received - on both fabrics each
// receive loop fills pooled buffers of its own. The window recycles a few
// buffers for most of the write, and every packet still reads back intact.
func TestWriteChunkPoolBalance(t *testing.T) {
	for _, fabric := range []string{"memory", "tcp"} {
		t.Run(fabric, func(t *testing.T) {
			assertChunkBalance(t)
			nw, masterAddr, _ := startReadClusterOn(t, fabric)
			c, err := Mount(nw, masterAddr, "readvol", Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			dp, err := c.Data.PickWritable()
			if err != nil {
				t.Fatal(err)
			}
			w, err := c.Data.NewExtentWriter(dp)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()

			payload := patterned(4*util.MB+100, 1) // the last packet is short
			gets0, _ := util.ChunkStats()
			for off := 0; off < len(payload); off += util.DefaultPacketSize {
				end := util.Min(off+util.DefaultPacketSize, len(payload))
				if _, err := w.Write(uint64(off), payload[off:end]); err != nil {
					t.Fatal(err)
				}
			}
			keys, pend, err := w.Drain()
			if err != nil || len(pend) != 0 {
				t.Fatalf("drain = %d pending, %v", len(pend), err)
			}
			if gets, _ := util.ChunkStats(); gets-gets0 < int64(len(keys)) {
				t.Fatalf("%d chunk gets for %d packets: the packet copies bypass the pool", gets-gets0, len(keys))
			}
			covered := 0
			for _, ek := range keys {
				got, err := c.Data.Read(ek, ek.ExtentOffset, ek.Size)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, payload[ek.FileOffset:ek.End()]) {
					t.Fatalf("packet at file offset %d reads back different bytes", ek.FileOffset)
				}
				covered += int(ek.Size)
			}
			if covered != len(payload) {
				t.Fatalf("keys cover %d bytes, wrote %d", covered, len(payload))
			}
		})
	}
}

// TestWriteChunkPoolAbortReuse: a follower that fails mid-stream aborts the
// window, and the aborted packets' chunks stay with the caller as
// PendingWrites, for the replay, instead of going back to the pool. A writer
// opened at once on the same partition fills recycled chunks with new bytes
// and with the replay; afterwards no replica holds bytes that differ from
// the checksum it recorded for them, and the only chunks not back in the
// pool are the ones surfaced as PendingWrites.
func TestWriteChunkPoolAbortReuse(t *testing.T) {
	nw := transport.NewMemory()
	addrs, dirs := startStandInCluster(t, nw)
	d := newDataClient(nw, Config{}.withDefaults("abort"))
	defer d.close()
	dp := proto.DataPartitionInfo{PartitionID: 1, Members: addrs, ReplicaEpoch: 1}
	packet := util.DefaultPacketSize
	gets0, puts0 := util.ChunkStats()

	w, err := d.NewExtentWriter(dp)
	if err != nil {
		t.Fatal(err)
	}
	first := patterned(4*packet, 1)
	if _, err := w.Write(0, first); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Drain(); err != nil {
		t.Fatal(err)
	}

	nw.Partition(addrs[2])
	second := patterned(8*packet, 2)
	n, _ := w.Write(uint64(len(first)), second) // acceptance may or may not see the abort yet
	_, pend, err := w.Drain()
	if err == nil {
		t.Fatal("window drained cleanly with a follower cut off")
	}
	pendBytes := 0
	for _, pw := range pend {
		pendBytes += len(pw.Data)
	}
	if pendBytes != n {
		t.Fatalf("pending bytes = %d, accepted = %d", pendBytes, n)
	}
	w.Close()
	nw.Heal(addrs[2])

	// Fresh bytes first, while a straggling hop of the aborted window could
	// still be in flight, then the replay.
	w2, err := d.NewExtentWriter(dp)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if _, err := w2.Write(uint64(len(first)+len(second)), patterned(8*packet, 3)); err != nil {
		t.Fatal(err)
	}
	for _, pw := range pend {
		if _, err := w2.Write(pw.FileOffset, pw.Data); err != nil {
			t.Fatal(err)
		}
	}
	if _, pend2, err := w2.Drain(); err != nil || len(pend2) != 0 {
		t.Fatalf("reused partition drain = %d pending, %v", len(pend2), err)
	}
	awaitChunksOut(t, gets0, puts0, int64(len(pend)))

	for i, addr := range addrs {
		var info proto.ExtentInfoResp
		if err := nw.Call(addr, uint8(proto.OpDataExtentInfo), &proto.ExtentInfoReq{PartitionID: 1}, &info); err != nil {
			t.Fatal(err)
		}
		for _, e := range info.Extents {
			// The extent store's file layout: <dir>/dp_<pid>/ext_<id>.
			raw, err := os.ReadFile(filepath.Join(dirs[i], "dp_1", fmt.Sprintf("ext_%d", e.ID)))
			if err != nil {
				t.Fatal(err)
			}
			if uint64(len(raw)) < e.Size || util.CRC(raw[:e.Size]) != e.CRC {
				t.Errorf("%s extent %d: its %d stored bytes do not match the checksum recorded for them", addr, e.ID, e.Size)
			}
		}
	}
}

// startStandInCluster boots three data nodes hosting partition 1 behind a
// stand-in master that accepts registrations, heartbeats and failure
// reports and never reconfigures anything, so a test keeps writing
// through the same view after a replica failure. It returns the nodes'
// addresses and data directories.
func startStandInCluster(t *testing.T, nw *transport.Memory) (addrs, dirs []string) {
	t.Helper()
	ln, err := nw.Listen("master", func(op uint8, req any) (any, error) {
		switch proto.Op(op) {
		case proto.OpMasterRegisterNode:
			return &proto.RegisterNodeResp{}, nil
		case proto.OpMasterHeartbeat:
			return &proto.HeartbeatResp{}, nil
		case proto.OpMasterReportFailure:
			return &proto.ReportFailureResp{}, nil
		}
		return nil, fmt.Errorf("stand-in master: op %d", op)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	clk := clock.NewManual(time.Now())
	for i := 0; i < 3; i++ {
		addr, dir := fmt.Sprintf("dn%d", i), t.TempDir()
		dn, err := datanode.Start(nw, datanode.Config{Addr: addr, MasterAddr: "master", Dir: dir, Clock: clk})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(dn.Close)
		addrs, dirs = append(addrs, addr), append(dirs, dir)
	}
	req := &proto.CreateDataPartitionReq{PartitionID: 1, Volume: "vol", Capacity: 64 * util.MB, Members: addrs}
	for i := len(addrs) - 1; i >= 0; i-- { // Members[0] last, as the master provisions
		var resp proto.CreateDataPartitionResp
		if err := nw.Call(addrs[i], uint8(proto.OpAdminCreateDataPartition), req, &resp); err != nil {
			t.Fatal(err)
		}
	}
	return addrs, dirs
}

// writeSequential writes payload at file offset from in packet-sized
// calls and returns the most packets the writer held accepted but unacked
// after a call: a call returns once its packet is admitted, so that is
// the depth the writer kept right then.
func writeSequential(t *testing.T, w *ExtentWriter, from uint64, payload []byte) (most int) {
	t.Helper()
	for off := 0; off < len(payload); off += util.DefaultPacketSize {
		end := util.Min(off+util.DefaultPacketSize, len(payload))
		if _, err := w.Write(from+uint64(off), payload[off:end]); err != nil {
			t.Fatal(err)
		}
		w.mu.Lock()
		most = max(most, len(w.pending))
		w.mu.Unlock()
	}
	if _, _, err := w.Drain(); err != nil {
		t.Fatal(err)
	}
	return most
}

// TestWriteDepthCoversMemoryRTT: on the Memory fabric at 1 ms one way
// every exchange with the leader - the dial handshake, a keepalive, a
// replicated append - takes at least 2 ms, so a streamed writer keeps the
// whole write window in flight: the depth the window had as a constant.
func TestWriteDepthCoversMemoryRTT(t *testing.T) {
	assertChunkBalance(t)
	nw, _ := startReadCluster(t)
	c, err := Mount(nw, "master", "readvol", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dp, err := c.Data.PickWritable()
	if err != nil {
		t.Fatal(err)
	}
	nw.SetLatency(time.Millisecond)
	w, err := c.Data.NewExtentWriter(dp)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	win := util.DefaultWriteWindow
	if most := writeSequential(t, w, 0, patterned(2*win*util.DefaultPacketSize, 3)); most != win {
		t.Fatalf("at most %d packets in flight at 1 ms, want the write window %d (least RTT %v)", most, win, w.sess.RTT())
	}
}

// TestWriteDepthFloorOnLoopback: on TCP loopback the least round trip of
// a write session - its handshake, a keepalive or an append, whichever
// was fastest - is under packetTime*depthFloor, so a streamed writer
// keeps no more than depthFloor packets in flight, however deep
// the write window allows. 4 KiB appends lower the least round trip first, up
// to 200 of them until it is under the floor's: a cold handshake (fresh
// server goroutines, a busy box) can take longer than the wire does, and
// under the race detector none may get there, when the bound is the depth
// the least one gives - still below the write window.
func TestWriteDepthFloorOnLoopback(t *testing.T) {
	assertChunkBalance(t)
	nw, masterAddr, _ := startReadClusterOn(t, "tcp")
	c, err := Mount(nw, masterAddr, "readvol", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dp, err := c.Data.PickWritable()
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.Data.NewExtentWriter(dp)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	probe := patterned(4*util.KB, 4)
	off := uint64(0)
	for i := 0; i < 200 && w.sess.RTT() > depthFloor*packetTime; i++ {
		if _, err := w.Write(off, probe); err != nil {
			t.Fatal(err)
		}
		if _, _, err := w.Drain(); err != nil {
			t.Fatal(err)
		}
		off += uint64(len(probe))
	}
	win := util.DefaultWriteWindow
	want := streamDepth(win, w.sess.RTT())
	if want >= win {
		t.Fatalf("least round trip %v on loopback gives the whole write window %d", w.sess.RTT(), win)
	}
	most := writeSequential(t, w, off, patterned(16*util.DefaultPacketSize, 5))
	t.Logf("least RTT %v, depth %d, at most %d packets in flight", w.sess.RTT(), want, most)
	if most > want {
		t.Fatalf("%d packets in flight on loopback, want at most %d (least RTT %v)", most, want, w.sess.RTT())
	}
}
