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
	nw := startCluster(t)
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
	nw := startCluster(t)
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
	nw := startCluster(t)
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

// The window tests run on the scripted fake stream of session_test.go: no
// cluster and no clock, the test decides which acks exist.

// unsent fails the test if the client has put a frame on the wire that the
// test has not consumed.
func (s *fakeStream) unsent(t *testing.T, when string) {
	t.Helper()
	select {
	case p := <-s.sent:
		t.Fatalf("%s: unexpected frame on the wire: %+v", when, p)
	default:
	}
}

// TestWriteWindowBoundsFramesInFlight: with no acks delivered a writer puts
// exactly its window of frames on the wire and then blocks; each ack
// admits exactly one more.
func TestWriteWindowBoundsFramesInFlight(t *testing.T) {
	const window, packet = 4, 8
	nw := &fakeNet{}
	d := newFakeClient(nw, Config{PacketSize: packet})
	defer d.close()
	w, st := openFakeWriter(t, nw, func() (*ExtentWriter, error) {
		w, err := d.newStreamWriter(engineDP, window)
		if err == nil {
			err = w.createExtent()
		}
		return w, err
	})
	defer w.Close()

	written := make(chan error, 1)
	go func() {
		_, err := w.Write(0, make([]byte, 2*window*packet)) // two windows' worth
		written <- err
	}()
	var seqs []uint64
	for i := 0; i < window; i++ {
		f := st.nextSent(t)
		if f.Op != proto.OpDataAppend || f.ExtentID != 9 || len(f.Data) != packet {
			t.Fatalf("frame %d = %+v", i, f)
		}
		seqs = append(seqs, f.ReqID)
	}
	for i := 0; i < window; i++ {
		st.unsent(t, "window full, no ack delivered")
		select {
		case err := <-written:
			t.Fatalf("Write returned (%v) with %d packets still unadmitted", err, window-i)
		default:
		}
		st.reply(&proto.Packet{ReqID: seqs[i], ExtentID: 9, ExtentOffset: uint64(i * packet)})
		seqs = append(seqs, st.nextSent(t).ReqID) // one ack, one more frame
	}
	if err := waitErr(t, func() error { return <-written }); err != nil {
		t.Fatal(err)
	}
	st.unsent(t, "everything accepted")
	for i := window; i < 2*window; i++ {
		st.reply(&proto.Packet{ReqID: seqs[i], ExtentID: 9, ExtentOffset: uint64(i * packet)})
	}
	keys, pend, err := w.Drain()
	if err != nil || len(pend) != 0 || len(keys) != 2*window {
		t.Fatalf("drain = %d keys, %d pending, %v", len(keys), len(pend), err)
	}
}

// TestReadWindowBoundsRequestsInFlight: a run not yet known to be
// sequential requests exactly the caller's range; once it is, the reader
// keeps exactly its window of requests in flight, topping up one per
// request consumed.
func TestReadWindowBoundsRequestsInFlight(t *testing.T) {
	const window, packet = 3, 8
	nw := &fakeNet{}
	d := newFakeClient(nw, Config{PacketSize: packet})
	defer d.close()
	r := d.NewExtentReader()
	r.win = window
	defer r.Close()
	ek := proto.ExtentKey{PartitionID: engineDP.PartitionID, ExtentID: 9}
	const known = 100 * packet
	var off uint64
	// readHalf reads the next half packet in the background. Once the read
	// has finished, every request the reader issued for it is on the wire.
	readHalf := func() chan error {
		done := make(chan error, 1)
		at := off
		off += packet / 2
		go func() {
			_, err := r.ReadAt(ek, at, make([]byte, packet/2), known)
			done <- err
		}()
		return done
	}
	serve := func(f *proto.Packet) {
		data := make([]byte, f.FileOffset)
		nw.stream(0).reply(&proto.Packet{ReqID: f.ReqID, Data: data, CRC: util.CRC(data)})
	}
	finish := func(done chan error) {
		t.Helper()
		if err := waitErr(t, func() error { return <-done }); err != nil {
			t.Fatal(err)
		}
	}

	// Read 1, nothing known about the access pattern: the caller's range only.
	done := readHalf()
	st := nw.awaitStream(t, 0)
	first := st.nextSent(t)
	if first.Op != proto.OpDataRead || first.ExtentOffset != 0 || first.FileOffset != packet/2 {
		t.Fatalf("first request = %+v, want exactly the caller's %d bytes", first, packet/2)
	}
	serve(first)
	finish(done)
	st.unsent(t, "one-off read")

	// Read 2 continues read 1: a sequential run, so a full window goes out.
	done = readHalf()
	var inflight []*proto.Packet
	for i := 0; i < window; i++ {
		f := st.nextSent(t)
		if want := uint64(packet/2 + i*packet); f.ExtentOffset != want || f.FileOffset != packet {
			t.Fatalf("readahead request %d = %+v, want a full packet at %d", i, f, want)
		}
		inflight = append(inflight, f)
	}
	serve(inflight[0])
	finish(done)
	st.unsent(t, "window full")

	// Read 3 finishes the head request from the buffer: nothing is sent.
	finish(readHalf())
	st.unsent(t, "buffered read")

	// Read 4 finds a free slot: exactly one more request.
	done = readHalf()
	next := st.nextSent(t)
	if want := uint64(packet/2 + window*packet); next.ExtentOffset != want {
		t.Fatalf("top-up request at %d, want %d", next.ExtentOffset, want)
	}
	serve(inflight[1])
	finish(done)
	st.unsent(t, "window topped up")
}

// openFakeWriter runs open, which sends an extent create on nw's first
// stream, answers the create with extent 9 and returns the writer and its
// stream.
func openFakeWriter(t *testing.T, nw *fakeNet, open func() (*ExtentWriter, error)) (*ExtentWriter, *fakeStream) {
	t.Helper()
	type opened struct {
		w   *ExtentWriter
		err error
	}
	done := make(chan opened, 1)
	go func() {
		w, err := open()
		done <- opened{w, err}
	}()
	st := nw.awaitStream(t, 0)
	create := st.nextSent(t)
	if create.Op != proto.OpDataCreateExtent {
		t.Fatalf("first frame = %+v, want the extent create", create)
	}
	st.reply(&proto.Packet{ReqID: create.ReqID, ExtentID: 9})
	o := <-done
	if o.err != nil {
		t.Fatal(o.err)
	}
	return o.w, st
}

// TestZeroConfigWindows: the two constants every reader and streamed
// writer of a zero Config takes.
func TestZeroConfigWindows(t *testing.T) {
	nw := &fakeNet{}
	d := newFakeClient(nw, Config{})
	defer d.close()
	if r := d.NewExtentReader(); r.win != 32 {
		t.Fatalf("reader window = %d, want 32", r.win)
	}
	w, _ := openFakeWriter(t, nw, func() (*ExtentWriter, error) { return d.NewExtentWriter(engineDP) })
	defer w.Close()
	if w.win != 16 {
		t.Fatalf("writer window = %d, want 16", w.win)
	}
}
