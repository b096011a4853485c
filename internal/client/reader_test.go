package client

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"cfs/internal/datanode"
	"cfs/internal/proto"
	"cfs/internal/transport"
	"cfs/internal/util"
)

// testFabric is the network surface the client-side regression tests
// drive; Memory and TCP both satisfy it.
type testFabric interface {
	transport.PacketStreamNetwork
	Freeze(addr string)
	Heal(addr string)
}

// assertChunkBalance registers a cleanup verifying every pooled chunk
// taken during the test came back to the pool. Call it BEFORE starting a
// cluster so the check runs after teardown (cleanups are LIFO); the
// short poll absorbs goroutines still draining on close.
func assertChunkBalance(t *testing.T) {
	t.Helper()
	gets0, puts0 := util.ChunkStats()
	t.Cleanup(func() { awaitChunksOut(t, gets0, puts0, 0) })
}

// awaitChunksOut checks that exactly want of the pooled chunks taken since
// the (gets0, puts0) snapshot are still out, polling briefly for
// goroutines still draining.
func awaitChunksOut(t *testing.T, gets0, puts0, want int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		gets, puts := util.ChunkStats()
		out := (gets - gets0) - (puts - puts0)
		if out == want {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("chunk pool: %d chunks out (%d taken, %d returned), want %d", out, gets-gets0, puts-puts0, want)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// startReadCluster is startCluster with volume "readvol" of one meta and
// one data partition, plus the datanode handles, which the read-path tests
// need to observe replica epochs and served-read counts.
func startReadCluster(t testing.TB) (*transport.Memory, []*datanode.DataNode) {
	t.Helper()
	c := bootCluster(t, "memory", "readvol", 1, 1)
	return c.Memory(), c.DataNodes()
}

// startReadClusterOn boots the same cluster on the chosen fabric; "tcp"
// binds real loopback sockets so the regression runs the framed wire
// path end to end. Returns the fabric and master address to Mount with.
func startReadClusterOn(t testing.TB, fabric string) (testFabric, string, []*datanode.DataNode) {
	t.Helper()
	c := bootCluster(t, fabric, "readvol", 1, 1)
	return c.Net().(testFabric), c.MasterAddr(), c.DataNodes()
}

// nodeByAddr maps a member address back to its handle (dn0, dn1, ...).
func nodeByAddr(t testing.TB, dns []*datanode.DataNode, addr string) *datanode.DataNode {
	t.Helper()
	for _, dn := range dns {
		if dn.Addr() == addr {
			return dn
		}
	}
	t.Fatalf("no datanode at %s", addr)
	return nil
}

// writeCommitted streams payload into a fresh extent of dp and waits
// until EVERY member's learned committed offset covers it, so follower
// reads below are deterministic (gossip is async).
func writeCommitted(t testing.TB, c *Client, dns []*datanode.DataNode, dp proto.DataPartitionInfo, payload []byte) proto.ExtentKey {
	t.Helper()
	w, err := c.Data.NewExtentWriter(dp)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Write(0, payload); err != nil {
		t.Fatal(err)
	}
	keys, _, err := w.Drain()
	if err != nil || len(keys) == 0 {
		t.Fatalf("drain = %d keys, %v", len(keys), err)
	}
	first := keys[0]
	end := keys[len(keys)-1].ExtentOffset + uint64(keys[len(keys)-1].Size)
	deadline := time.Now().Add(5 * time.Second)
	for _, member := range dp.Members {
		p := nodeByAddr(t, dns, member).Partition(dp.PartitionID)
		for p.CommittedOf(first.ExtentID) < end {
			if time.Now().After(deadline) {
				t.Fatalf("%s never learned committed offset %d", member, end)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// The writer produced one key per packet; the reader test reads the
	// whole contiguous span through the first key's extent.
	first.Size = uint32(end - first.ExtentOffset)
	return first
}

// TestStreamReadFollowerOffload: streamed reads of a healthy partition are
// served entirely by followers - the leader's read counter does not move -
// because the committed clamp makes follower serving safe (Section 2.2.5).
func TestStreamReadFollowerOffload(t *testing.T) {
	assertChunkBalance(t)
	nw, dns := startReadCluster(t)
	c, err := Mount(nw, "master", "readvol", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dp, err := c.Data.PickWritable()
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("offload!"), 64*1024) // 512 KB, 4 packets
	ek := writeCommitted(t, c, dns, dp, payload)

	leader := nodeByAddr(t, dns, dp.Members[0])
	before := leader.ReadsServed()
	r := c.Data.NewExtentReader()
	defer r.Close()
	buf := make([]byte, len(payload))
	for off := 0; off < len(payload); off += 128 * 1024 {
		n, err := r.ReadAt(ek, ek.ExtentOffset+uint64(off), buf[off:off+128*1024], ek.ExtentOffset+uint64(len(payload)))
		if err != nil || n != 128*1024 {
			t.Fatalf("streamed read at %d = %d, %v", off, n, err)
		}
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("streamed read content mismatch")
	}
	if after := leader.ReadsServed(); after != before {
		t.Fatalf("leader served %d read requests during a healthy-follower scan, want 0", after-before)
	}
	served := uint64(0)
	for _, member := range dp.Members[1:] {
		served += nodeByAddr(t, dns, member).ReadsServed()
	}
	if served == 0 {
		t.Fatal("no follower served any streamed read")
	}
}

// TestStreamReadAdoptsNextExtentPrefetch: a scan that knows where the
// file continues prefetches the next extent into the window's spare slots
// before it reaches the boundary, and adopts that run - its requests
// still in flight - when it rolls onto it: every packet of both extents
// is requested exactly once.
func TestStreamReadAdoptsNextExtentPrefetch(t *testing.T) {
	assertChunkBalance(t)
	nw, dns := startReadCluster(t)
	c, err := Mount(nw, "master", "readvol", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dp, err := c.Data.PickWritable()
	if err != nil {
		t.Fatal(err)
	}
	packet := util.DefaultPacketSize
	a := writeCommitted(t, c, dns, dp, bytes.Repeat([]byte("extent-A"), 2*packet/8))
	b := writeCommitted(t, c, dns, dp, bytes.Repeat([]byte("extent-B"), 4*packet/8))
	served := func() (n uint64) {
		for _, dn := range dns {
			n += dn.ReadsServed()
		}
		return n
	}
	before := served()

	r := c.Data.NewExtentReader()
	defer r.Close()
	scan := func(ek proto.ExtentKey, want string) {
		t.Helper()
		block := make([]byte, packet)
		known := ek.ExtentOffset + uint64(ek.Size)
		for off := ek.ExtentOffset; off < known; off += uint64(packet) {
			if n, err := r.ReadAt(ek, off, block, known); err != nil || n != packet {
				t.Fatalf("read of extent %d at %d = %d, %v", ek.ExtentID, off, n, err)
			}
			if !bytes.Equal(block, bytes.Repeat([]byte(want), packet/8)) {
				t.Fatalf("extent %d at %d: content mismatch", ek.ExtentID, off)
			}
		}
	}
	r.SetNextHint(b, b.ExtentOffset, b.ExtentOffset+uint64(b.Size))
	scan(a, "extent-A")
	deadline := time.Now().Add(5 * time.Second)
	for served()-before <= 2 {
		if time.Now().After(deadline) {
			t.Fatal("no request for the next extent before the scan reached it")
		}
		time.Sleep(time.Millisecond)
	}
	scan(b, "extent-B")
	r.Close()
	// A request issued twice would still be in flight here; give it time
	// to be served before counting.
	time.Sleep(50 * time.Millisecond)
	if got := served() - before; got != 6 {
		t.Fatalf("scan of a 2-packet and a 4-packet extent was served with %d requests, want 6", got)
	}
}

// TestStreamReadWatchdogFailsOverHungReplica: a replica that accepts a
// read session but never answers (Memory.Freeze, the half-open case) must
// not wedge the reader - the session watchdog trips the reply deadline
// and the reader fails over to another replica within deadline-order time.
func TestStreamReadWatchdogFailsOverHungReplica(t *testing.T) {
	for _, fabric := range []string{"memory", "tcp"} {
		t.Run(fabric, func(t *testing.T) { testWatchdogFailover(t, fabric) })
	}
}

func testWatchdogFailover(t *testing.T, fabric string) {
	assertChunkBalance(t)
	nw, masterAddr, dns := startReadClusterOn(t, fabric)
	c, err := Mount(nw, masterAddr, "readvol", Config{
		AckDeadline:       200 * time.Millisecond,
		KeepaliveInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dp, err := c.Data.PickWritable()
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("hangfree"), 8*1024) // 64 KB
	ek := writeCommitted(t, c, dns, dp, payload)

	// The first offload run targets the first follower; freeze it so its
	// session dials fine but every request stalls forever.
	frozen := dp.Members[1]
	nw.Freeze(frozen)
	defer nw.Heal(frozen)

	r := c.Data.NewExtentReader()
	defer r.Close()
	buf := make([]byte, len(payload))
	start := time.Now()
	n, err := r.ReadAt(ek, ek.ExtentOffset, buf, ek.ExtentOffset+uint64(len(payload)))
	took := time.Since(start)
	if err != nil || n != len(payload) {
		t.Fatalf("read against a hung follower = %d, %v", n, err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("failed-over read content mismatch")
	}
	if took > 5*time.Second {
		t.Fatalf("failover took %v, want deadline-order time", took)
	}
	if hung := nodeByAddr(t, dns, frozen); hung.ReadsServed() != 0 {
		t.Fatalf("frozen follower reportedly served %d reads", hung.ReadsServed())
	}
}

// TestStreamReadRetriesAfterEpochBump is the mid-stream failover
// regression: a reconfiguration bumps the partition's replica epoch while
// the client still reads on the old view. The data node rejects the stale
// frames retriably, the reader refreshes the view, re-dials at the new
// epoch, and the read completes - no error surfaces to the caller.
func TestStreamReadRetriesAfterEpochBump(t *testing.T) {
	assertChunkBalance(t)
	nw, dns := startReadCluster(t)
	c, err := Mount(nw, "master", "readvol", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dp, err := c.Data.PickWritable()
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("epochtwo"), 8*1024) // 64 KB
	ek := writeCommitted(t, c, dns, dp, payload)

	// Detach one follower through the master: the survivors adopt a
	// bumped ReplicaEpoch while the client's cached view stays at the old
	// one. Cut the detached node off so the reader cannot dodge the fence
	// by reading from a replica the reconfiguration left behind.
	detached := dp.Members[1]
	if err := nw.Call("master", uint8(proto.OpMasterReportFailure),
		&proto.ReportFailureReq{PartitionID: dp.PartitionID, Addr: detached}, nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, member := range dp.Members {
		if member == detached {
			continue
		}
		p := nodeByAddr(t, dns, member).Partition(dp.PartitionID)
		for p.Epoch() == dp.ReplicaEpoch {
			if time.Now().After(deadline) {
				t.Fatalf("%s never adopted the bumped epoch", member)
			}
			time.Sleep(time.Millisecond)
		}
	}
	nw.Partition(detached)
	defer nw.Heal(detached)

	if got, _ := c.Data.partitionInfo(dp.PartitionID); got.ReplicaEpoch != dp.ReplicaEpoch {
		t.Fatalf("view refreshed early: epoch %d", got.ReplicaEpoch)
	}
	r := c.Data.NewExtentReader()
	defer r.Close()
	buf := make([]byte, len(payload))
	n, err := r.ReadAt(ek, ek.ExtentOffset, buf, ek.ExtentOffset+uint64(len(payload)))
	if err != nil || n != len(payload) {
		t.Fatalf("read across the epoch bump = %d, %v", n, err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("read content mismatch after the epoch bump")
	}
	// The success must have come THROUGH the stale-retry path: the view
	// the client now holds is the reconfigured one.
	if got, _ := c.Data.partitionInfo(dp.PartitionID); got.ReplicaEpoch <= dp.ReplicaEpoch {
		t.Fatalf("view still at epoch %d; the reader never refreshed", got.ReplicaEpoch)
	}
}

// TestOffloadOrderShape: followers come first (rotated per run) and the
// leader is always last. Extents the client overwrote get NO special
// order since the replica-side overwrite fence took over from the old
// client pin - the server refuses stale extents and the client falls
// through, so offload resumes as soon as followers catch up.
func TestOffloadOrderShape(t *testing.T) {
	d := newDataClient(transport.NewMemory(), Config{}.withDefaults("x"))
	dp := proto.DataPartitionInfo{PartitionID: 7, Members: []string{"L", "F1", "F2"}}
	seen := make(map[string]bool)
	for i := 0; i < 4; i++ {
		order := d.offloadOrder(dp)
		if len(order) != 3 || order[2] != "L" {
			t.Fatalf("offload order = %v, want leader last", order)
		}
		seen[order[0]] = true
	}
	if !seen["F1"] || !seen["F2"] {
		t.Fatalf("round-robin never rotated: first candidates seen = %v", seen)
	}
	if err := d.Overwrite(proto.ExtentKey{PartitionID: 7, ExtentID: 1}, 0, []byte("x")); err == nil {
		t.Fatal("overwrite against no servers should fail")
	}
	if order := d.offloadOrder(dp); len(order) != 3 || order[2] != "L" {
		t.Fatalf("post-overwrite order = %v, want full offload (no client pin)", order)
	}
}

// TestReadOrderIgnoresOverwrites: the unary attempt order keeps its cached
// read replica first even after this client overwrote an extent of the
// partition - visibility is the replica-side overwrite fence's job now,
// not a client pin's.
func TestReadOrderIgnoresOverwrites(t *testing.T) {
	d := newDataClient(transport.NewMemory(), Config{}.withDefaults("x"))
	dp := proto.DataPartitionInfo{PartitionID: 7, Members: []string{"L", "F1", "F2"}}
	d.readFrom.note(7, "F2")
	d.leader.note(7, "L")
	if err := d.Overwrite(proto.ExtentKey{PartitionID: 7, ExtentID: 1}, 0, []byte("x")); err == nil {
		t.Fatal("overwrite against no servers should fail")
	}
	if order := d.readFrom.order(7, d.leader.order(7, dp.Members)); order[0] != "F2" {
		t.Fatalf("read order = %v, want cached replica first", order)
	}
}

// TestOverwriteFenceReadsCarryAckedVersion: the version an overwrite's ack
// carries rides every later read of that extent, unary and streamed, so a
// replica that has not applied it can refuse; reads of other extents
// carry nothing.
func TestOverwriteFenceReadsCarryAckedVersion(t *testing.T) {
	unaryStamps := make(chan uint64, 8)
	nw := &fakeNet{call: func(_ string, op uint8, req, resp any) error {
		pkt := req.(*proto.Packet)
		switch proto.Op(op) {
		case proto.OpDataOverwrite:
			*resp.(*proto.Packet) = proto.Packet{Op: pkt.Op, ReqID: pkt.ReqID, Committed: 5}
		case proto.OpDataRead:
			unaryStamps <- pkt.Committed
			data := []byte("data")
			*resp.(*proto.Packet) = proto.Packet{Op: pkt.Op, ReqID: pkt.ReqID, Data: data, CRC: util.CRC(data)}
		default:
			return fmt.Errorf("unscripted op %d", op)
		}
		return nil
	}}
	d := newFakeClient(nw, Config{})
	ek := proto.ExtentKey{PartitionID: engineDP.PartitionID, ExtentID: 9}
	other := proto.ExtentKey{PartitionID: engineDP.PartitionID, ExtentID: 10}
	unary := func(ek proto.ExtentKey) uint64 {
		t.Helper()
		if _, err := d.Read(ek, 0, 4); err != nil {
			t.Fatal(err)
		}
		return <-unaryStamps
	}
	if got := unary(ek); got != 0 {
		t.Fatalf("read before any overwrite carries version %d, want 0", got)
	}
	if err := d.Overwrite(ek, 0, []byte("data")); err != nil {
		t.Fatal(err)
	}
	if got := unary(ek); got != 5 {
		t.Fatalf("unary read after an overwrite acked at version 5 carries %d", got)
	}
	if got := unary(other); got != 0 {
		t.Fatalf("unary read of another extent carries version %d, want 0", got)
	}

	r := d.NewExtentReader()
	defer r.Close()
	done := make(chan error, 1)
	go func() {
		_, err := r.ReadAt(ek, 0, make([]byte, 4), 4)
		done <- err
	}()
	st := nw.awaitStream(t, 0)
	req := st.nextSent(t)
	if req.Committed != 5 {
		t.Fatalf("streamed read after an overwrite acked at version 5 carries %d", req.Committed)
	}
	st.reply(&proto.Packet{Op: proto.OpDataRead, ReqID: req.ReqID, Data: []byte("data"), CRC: util.CRC([]byte("data"))})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestReadDepthRule: the one depth rule of both directions - readahead
// under the read window (32), the write depth under the write window (16) - covers
// the least round trip at packetTime per packet, never drops below
// depthFloor and never exceeds the window, so a window pinned below the
// floor stays pinned.
func TestReadDepthRule(t *testing.T) {
	for _, c := range []struct {
		win  int
		rtt  time.Duration
		want int
	}{
		{32, 0, depthFloor},
		{32, packetTime, depthFloor},
		{32, depthFloor * packetTime, depthFloor},
		{32, depthFloor*packetTime + 1, depthFloor + 1},
		{32, 10*packetTime + 1, 11},
		{32, 2 * time.Millisecond, 32},
		{32, time.Hour, 32},
		{8, 2 * time.Millisecond, 8},
		{1, 0, 1},
		{depthFloor - 1, 0, depthFloor - 1},
		// Writes: a least round trip on loopback (tens to a few hundred
		// us) stays at a few packets; on the 1 ms fabric (at least 2 ms)
		// the depth is the cap.
		{16, 150 * time.Microsecond, depthFloor},
		{16, 300 * time.Microsecond, 6},
		{16, 799 * time.Microsecond, 16},
		{16, 2 * time.Millisecond, 16},
		{depthFloor, time.Hour, depthFloor},
	} {
		if got := streamDepth(c.win, c.rtt); got != c.want {
			t.Errorf("streamDepth(%d, %v) = %d, want %d", c.win, c.rtt, got, c.want)
		}
	}
}

// readSequentialHalves reads the first n bytes of ek's span in
// half-packet calls, the way TestReadWindowBoundsRequestsInFlight does:
// after every call but the first the head request is half consumed, so
// len(r.cur.reqs) is exactly the number of requests the last fill kept in
// flight. seen is called after each call from the second on.
func readSequentialHalves(t *testing.T, r *ExtentReader, ek proto.ExtentKey, n int, seen func(inflight int)) []byte {
	t.Helper()
	half := util.DefaultPacketSize / 2
	buf := make([]byte, n)
	known := ek.ExtentOffset + uint64(ek.Size)
	for off := 0; off < n; off += half {
		if got, err := r.ReadAt(ek, ek.ExtentOffset+uint64(off), buf[off:off+half], known); err != nil || got != half {
			t.Fatalf("read at %d = %d, %v", off, got, err)
		}
		if off > 0 {
			seen(len(r.cur.reqs) + len(r.next.reqs))
		}
	}
	return buf
}

// TestReadDepthCoversMemoryRTT: on the Memory fabric at 1 ms one way the
// round trip is at least 2 ms, so a sequential reader keeps the whole
// read window in flight - the depth the window had as a constant. And the
// readahead reads into pooled chunks that the reader hands back once they
// are consumed: with the pool warm, sequential scans in 128 KiB calls
// allocate at most half a block per call, not the block.
func TestReadDepthCoversMemoryRTT(t *testing.T) {
	assertChunkBalance(t)
	nw, dns := startReadCluster(t)
	c, err := Mount(nw, "master", "readvol", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dp, err := c.Data.PickWritable()
	if err != nil {
		t.Fatal(err)
	}
	win := util.DefaultReadWindow
	payload := bytes.Repeat([]byte("deep-rtt"), (win+2)*util.DefaultPacketSize/8)
	ek := writeCommitted(t, c, dns, dp, payload)
	nw.SetLatency(time.Millisecond)

	r := c.Data.NewExtentReader()
	defer r.Close()
	most := 0
	// Stop while the window still fits ahead of the consumer: past that
	// the known end, not the depth, bounds it.
	got := readSequentialHalves(t, r, ek, 2*util.DefaultPacketSize, func(n int) { most = max(most, n) })
	if !bytes.Equal(got, payload[:len(got)]) {
		t.Fatal("read content mismatch")
	}
	if most != win {
		t.Fatalf("at most %d requests in flight at 1 ms, want the read window %d (least RTT %v)", most, win, r.cur.sess.RTT())
	}

	block := make([]byte, util.DefaultPacketSize)
	known := ek.ExtentOffset + uint64(ek.Size)
	scan := func() {
		r := c.Data.NewExtentReader()
		defer r.Close()
		for off := 0; off < len(payload); off += len(block) {
			if n, err := r.ReadAt(ek, ek.ExtentOffset+uint64(off), block, known); err != nil || n != len(block) {
				t.Fatalf("read at %d = %d, %v", off, n, err)
			}
			if !bytes.Equal(block, payload[off:off+len(block)]) {
				t.Fatalf("read content mismatch at %d", off)
			}
		}
	}
	for range dp.Members { // every session dialed, the chunk pool warm
		scan()
	}
	const scans = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range scans {
		scan()
	}
	runtime.ReadMemStats(&after)
	perBlock := float64(after.TotalAlloc-before.TotalAlloc) / float64(scans*len(payload)/len(block))
	if perBlock > float64(len(block)/2) {
		t.Fatalf("streamed read allocates %.0f KiB per 128 KiB block - the reader is not recycling its chunks", perBlock/util.KB)
	}
}

// TestReadDepthFloorOnLoopback: on TCP loopback the round trip is below
// packetTime*depthFloor, so once the session has timed it a sequential
// reader keeps no more than depthFloor requests in flight, however deep
// the read window allows. One-off 4 KiB reads time the round trip first, as
// many as it takes (up to 200) until every follower's session has seen
// one under packetTime*depthFloor: a single cold reply (fresh server
// goroutines, a busy box, the race detector) can take longer than the
// wire does.
func TestReadDepthFloorOnLoopback(t *testing.T) {
	assertChunkBalance(t)
	nw, masterAddr, dns := startReadClusterOn(t, "tcp")
	c, err := Mount(nw, masterAddr, "readvol", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dp, err := c.Data.PickWritable()
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("loopback"), 16*util.DefaultPacketSize/8)
	ek := writeCommitted(t, c, dns, dp, payload)

	r := c.Data.NewExtentReader()
	defer r.Close()
	// Every probe is a one-off run (the two offsets alternate), and runs
	// round-robin across the followers, so a streak of one fast session
	// per follower covers whichever one the sequential run lands on.
	probe := make([]byte, 4*util.KB)
	for i, streak := 0, 0; streak < len(dp.Members)-1; i++ {
		if i == 200 {
			t.Fatalf("no loopback round trip under %v in %d probes", depthFloor*packetTime, i)
		}
		at := ek.ExtentOffset + uint64(i%2*util.DefaultPacketSize)
		if n, err := r.ReadAt(ek, at, probe, at+uint64(len(probe))); err != nil || n != len(probe) {
			t.Fatalf("probe read at %d = %d, %v", at, n, err)
		}
		streak++
		if r.cur.sess.RTT() > depthFloor*packetTime {
			streak = 0
		}
	}
	most := 0
	got := readSequentialHalves(t, r, ek, len(payload), func(n int) { most = max(most, n) })
	if !bytes.Equal(got, payload) {
		t.Fatal("read content mismatch")
	}
	t.Logf("least RTT %v, at most %d requests in flight", r.cur.sess.RTT(), most)
	if most > depthFloor {
		t.Fatalf("%d requests in flight on loopback, want at most depthFloor %d (least RTT %v)", most, depthFloor, r.cur.sess.RTT())
	}
}

// BenchmarkSequentialReadLoopback reads a 32 MiB extent front to back in
// 128 KiB calls over a TCP loopback read session, one fresh reader per
// op. MB/s is the sequential read rate; depth is the mean readahead depth
// streamDepth sets over the calls.
func BenchmarkSequentialReadLoopback(b *testing.B) {
	nw, masterAddr, dns := startReadClusterOn(b, "tcp")
	c, err := Mount(nw, masterAddr, "readvol", Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	dp, err := c.Data.PickWritable()
	if err != nil {
		b.Fatal(err)
	}
	ek := writeCommitted(b, c, dns, dp, make([]byte, 32*util.MB))
	known := ek.ExtentOffset + uint64(ek.Size)
	buf := make([]byte, util.DefaultPacketSize)
	depths, calls := 0, 0
	b.SetBytes(int64(ek.Size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := c.Data.NewExtentReader()
		for off := ek.ExtentOffset; off < known; off += uint64(len(buf)) {
			if n, err := r.ReadAt(ek, off, buf, known); err != nil || n != len(buf) {
				b.Fatalf("read at %d = %d, %v", off, n, err)
			}
			depths += streamDepth(r.win, r.cur.sess.RTT())
			calls++
		}
		r.Close()
	}
	b.ReportMetric(float64(depths)/float64(calls), "depth")
}
