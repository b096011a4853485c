package client

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"cfs/internal/proto"
	"cfs/internal/transport"
	"cfs/internal/util"
)

// poolVolume creates a single-data-partition volume so every small file
// lands on the same partition leader and dial counts are deterministic:
// one warm session = 1 client dial + 2 forward-chain dials, ever.
func poolVolume(t *testing.T, nw *transport.Memory) {
	t.Helper()
	var resp proto.CreateVolumeResp
	if err := nw.Call("master", uint8(proto.OpMasterCreateVolume), &proto.CreateVolumeReq{
		Name: "pool", MetaPartitionCount: 1, DataPartitionCount: 1,
	}, &resp); err != nil {
		t.Fatal(err)
	}
}

// TestSmallFileSessionReuse is the WriteSmallFile pooling regression: N
// small files through one client ride ONE replication session (the
// pre-pool code dialed a fresh stream - on TCP, a fresh connection - per
// file).
func TestSmallFileSessionReuse(t *testing.T) {
	nw := transport.NewMemory()
	startCluster(t, nw)
	poolVolume(t, nw)
	c, err := Mount(nw, "master", "pool", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The first file warms the session (client dial + per-follower chains).
	ek, err := c.Data.WriteSmallFile(0, []byte("file-0"))
	if err != nil {
		t.Fatal(err)
	}
	warm := nw.Dials()
	for i := 1; i <= 15; i++ {
		if _, err := c.Data.WriteSmallFile(0, []byte(fmt.Sprintf("file-%d", i))); err != nil {
			t.Fatalf("file %d: %v", i, err)
		}
	}
	if got := nw.Dials(); got != warm {
		t.Fatalf("15 pooled small files cost %d extra dials, want 0", got-warm)
	}
	if data, err := c.Data.Read(ek, ek.ExtentOffset, ek.Size); err != nil || string(data) != "file-0" {
		t.Fatalf("read back = %q, %v", data, err)
	}
}

// TestExtentWriterSessionReuse: consecutive writers on one partition (the
// extent-roll pattern) multiplex the same pooled session instead of
// redialing per extent.
func TestExtentWriterSessionReuse(t *testing.T) {
	nw := transport.NewMemory()
	startCluster(t, nw)
	poolVolume(t, nw)
	c, err := Mount(nw, "master", "pool", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dp, err := c.Data.PickWritable()
	if err != nil {
		t.Fatal(err)
	}
	write := func() {
		t.Helper()
		w, err := c.Data.NewExtentWriter(dp)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if _, err := w.Write(0, []byte("rolled extent")); err != nil {
			t.Fatal(err)
		}
		if keys, _, err := w.Drain(); err != nil || len(keys) != 1 {
			t.Fatalf("drain = %d keys, %v", len(keys), err)
		}
	}
	write() // warms the session
	warm := nw.Dials()
	for i := 0; i < 4; i++ {
		write()
	}
	if got := nw.Dials(); got != warm {
		t.Fatalf("4 extent rolls cost %d extra dials, want 0", got-warm)
	}
}

// TestDrainUnblocksOnHungLeader is the client half of the liveness
// satellite: a leader that goes half-open (accepts frames, never acks -
// Memory.Freeze) used to block Drain forever; the session's ack deadline
// converts the hang into an error with the uncommitted tail attached for
// replay.
func TestDrainUnblocksOnHungLeader(t *testing.T) {
	nw := transport.NewMemory()
	startCluster(t, nw)
	c, err := Mount(nw, "master", "vol", Config{
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
	w, err := c.Data.NewExtentWriter(dp)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	nw.Freeze(dp.Members[0])
	defer nw.Heal(dp.Members[0])
	chunk := bytes.Repeat([]byte("h"), 2*c.Config().PacketSize)
	n, _ := w.Write(0, chunk) // accepted into the window; no acks will come
	start := time.Now()
	keys, pend, err := w.Drain()
	took := time.Since(start)
	if err == nil {
		t.Fatal("Drain returned clean against a frozen leader")
	}
	if !errors.Is(err, util.ErrTimeout) {
		t.Fatalf("Drain error = %v, want a deadline timeout", err)
	}
	if len(keys) != 0 {
		t.Fatalf("%d keys committed by a frozen leader", len(keys))
	}
	var pendBytes int
	for _, pw := range pend {
		pendBytes += len(pw.Data)
	}
	if pendBytes != n {
		t.Fatalf("pending bytes = %d, accepted = %d", pendBytes, n)
	}
	if took > 10*time.Second {
		t.Fatalf("Drain took %v, want deadline-order time", took)
	}
}

// TestAdaptiveWindowGrowsWithLatency: under emulated network latency the
// bandwidth-delay product is many packets, so the adaptive controller must
// grow the window well past its starting point (the static window is the
// DisableAdaptiveWindow ablation).
func TestAdaptiveWindowGrowsWithLatency(t *testing.T) {
	nw := transport.NewMemory()
	startCluster(t, nw)
	c, err := Mount(nw, "master", "vol", Config{WriteWindow: 2, PacketSize: 8 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dp, err := c.Data.PickWritable()
	if err != nil {
		t.Fatal(err)
	}
	nw.SetLatency(500 * time.Microsecond)
	defer nw.SetLatency(0)
	w, err := c.Data.NewExtentWriter(dp)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	data := make([]byte, 128*8*1024) // 128 packets
	if _, err := w.Write(0, data); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := w.Window(); got < 8 {
		t.Fatalf("adaptive window = %d after 128 acks at 0.5ms latency, want growth past 8", got)
	}
}

// TestWinControllerTracksBDP drives the controller with synthetic
// observations: target = minRTT/gap packets, stepped one ack at a time,
// clamped to [1, max], frozen when adaptation is disabled.
func TestWinControllerTracksBDP(t *testing.T) {
	now := time.Unix(0, 0)
	w := winController{cur: 4, max: 16, adaptive: true}
	// 10ms RTT, 1ms between acks of a busy window: BDP ~ 11 packets.
	for i := 0; i < 40; i++ {
		now = now.Add(time.Millisecond)
		w.observe(10*time.Millisecond, now, true, w.cur)
	}
	if w.cur < 10 || w.cur > 12 {
		t.Fatalf("window = %d, want ~11 (minRTT/gap + 1)", w.cur)
	}
	// RTT collapses to ~equal the gap: the window walks back down.
	for i := 0; i < 40; i++ {
		now = now.Add(time.Millisecond)
		w.observe(time.Millisecond, now, true, w.cur)
	}
	if w.cur > 4 {
		t.Fatalf("window = %d after RTT collapse, want shrink toward ~2", w.cur)
	}
	if w.cur < 1 {
		t.Fatalf("window = %d, must never drop below 1", w.cur)
	}
	// The ceiling binds.
	w2 := winController{cur: 1, max: 4, adaptive: true}
	now2 := time.Unix(0, 0)
	for i := 0; i < 50; i++ {
		now2 = now2.Add(time.Millisecond)
		w2.observe(100*time.Millisecond, now2, true, w2.cur)
	}
	if w2.cur != 4 {
		t.Fatalf("window = %d, want clamped at max 4", w2.cur)
	}
	// Static mode never moves.
	ws := winController{cur: 3, max: 16}
	ws.observe(time.Second, time.Unix(1, 0), true, 0)
	ws.observe(time.Second, time.Unix(2, 0), true, 0)
	if ws.cur != 3 {
		t.Fatalf("static window moved to %d", ws.cur)
	}
}

// TestWinControllerMinRTTFiltersSelfQueueing is the min-RTT satellite
// regression: a saturating writer's samples include its own queueing delay
// (rtt ~ cur*gap), so the old EWMA-based target tracked cur+1 and ratcheted
// every window to the MaxWriteWindow cap. The windowed-min filter keeps the
// target at the true BDP learned from low-occupancy samples.
func TestWinControllerMinRTTFiltersSelfQueueing(t *testing.T) {
	const gap = time.Millisecond
	trueRTT := 4 * time.Millisecond // true BDP ~ 5 packets
	now := time.Unix(0, 0)
	w := winController{cur: 2, max: 64, adaptive: true}
	// Warm-up at low occupancy: samples near the true RTT.
	for i := 0; i < 10; i++ {
		now = now.Add(gap)
		w.observe(trueRTT, now, true, 0)
	}
	// Saturation: every sample inflated by the writer's own queue
	// (rtt grows with the current window), sent into a full window.
	for i := 0; i < 500; i++ {
		now = now.Add(gap)
		inflated := trueRTT + time.Duration(w.cur)*gap
		w.observe(inflated, now, true, w.cur)
	}
	if w.cur > 8 {
		t.Fatalf("window ratcheted to %d under self-induced queueing, want ~5 (true BDP)", w.cur)
	}
	if w.cur < 3 {
		t.Fatalf("window = %d, collapsed below the true BDP", w.cur)
	}
	// A genuine path change (higher true RTT at low occupancy) is still
	// learned once the stale minimum ages out.
	for i := 0; i < minRTTWindow+50; i++ {
		now = now.Add(gap)
		w.observe(20*time.Millisecond, now, true, 0)
	}
	if w.cur < 15 {
		t.Fatalf("window = %d after the path slowed, want growth toward ~21", w.cur)
	}
}

// TestCrossExtentWindowSeeding is the cross-extent satellite: a fresh
// writer on a pooled session starts from the session's last converged
// estimate instead of relearning the BDP from the start window.
func TestCrossExtentWindowSeeding(t *testing.T) {
	nw := transport.NewMemory()
	startCluster(t, nw)
	poolVolume(t, nw)
	c, err := Mount(nw, "master", "pool", Config{WriteWindow: 2, PacketSize: 8 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dp, err := c.Data.PickWritable()
	if err != nil {
		t.Fatal(err)
	}
	nw.SetLatency(500 * time.Microsecond)
	defer nw.SetLatency(0)
	w, err := c.Data.NewExtentWriter(dp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(0, make([]byte, 128*8*1024)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.Drain(); err != nil {
		t.Fatal(err)
	}
	grown := w.Window()
	if grown < 8 {
		t.Fatalf("first writer's window = %d, want growth past 8", grown)
	}
	w.Close() // hands the estimate back to the pooled session

	w2, err := c.Data.NewExtentWriter(dp) // the extent-roll successor
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := w2.Window(); got < grown-1 {
		t.Fatalf("successor writer starts at window %d, want seeded ~%d (not the start window 2)", got, grown)
	}
}
