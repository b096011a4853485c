package datanode

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"cfs/internal/clock"
	"cfs/internal/datanode/dntest"
	"cfs/internal/proto"
	"cfs/internal/transport"
	"cfs/internal/util"
)

// testNet is the fabric surface the cluster tests drive. Both the
// in-process Memory network and the real TCP loopback transport satisfy
// it, so key regressions can run over either fabric.
type testNet interface {
	transport.PacketStreamNetwork
	Freeze(addr string)
	Heal(addr string)
}

// assertChunkBalance registers a cleanup verifying every pooled chunk
// taken during the test came back to the pool. Call it BEFORE starting a
// cluster so the check runs after node teardown (cleanups are LIFO); the
// short poll absorbs sender goroutines still draining on close.
func assertChunkBalance(t *testing.T) {
	t.Helper()
	gets0, puts0 := util.ChunkStats()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for {
			gets, puts := util.ChunkStats()
			if gets-gets0 == puts-puts0 {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("chunk pool leak: %d taken, %d returned", gets-gets0, puts-puts0)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// fakeMaster accepts register/heartbeat/failure-report calls.
type fakeMaster struct {
	failures chan proto.ReportFailureReq
}

func startFakeMaster(t testing.TB, nw transport.Network, addr string) *fakeMaster {
	t.Helper()
	fm := &fakeMaster{failures: make(chan proto.ReportFailureReq, 16)}
	ln, err := nw.Listen(addr, func(op uint8, req any) (any, error) {
		switch proto.Op(op) {
		case proto.OpMasterRegisterNode:
			return &proto.RegisterNodeResp{}, nil
		case proto.OpMasterHeartbeat:
			return &proto.HeartbeatResp{}, nil
		case proto.OpMasterReportFailure:
			if r, ok := req.(*proto.ReportFailureReq); ok {
				select {
				case fm.failures <- *r:
				default:
				}
			}
			return &proto.ReportFailureResp{}, nil
		}
		return nil, fmt.Errorf("fake master: op %d", op)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return fm
}

type testCluster struct {
	nw    testNet
	fm    *fakeMaster
	nodes []*DataNode
	addrs []string
	// writers is the write fixture: one replication session to the leader
	// per partition, kept open across appends the way a client's pooled
	// session is (committed gossip rides the open session's chains).
	writers map[uint64]*dntest.Writer
}

// writer returns the fixture's open session for pid, dialing the leader on
// first use and after a failure dropped the previous one.
func (tc *testCluster) writer(t testing.TB, pid uint64) *dntest.Writer {
	t.Helper()
	if w := tc.writers[pid]; w != nil {
		return w
	}
	w, err := dntest.Dial(tc.nw, tc.leaderAddr(), pid)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if tc.writers == nil {
		tc.writers = make(map[uint64]*dntest.Writer)
	}
	tc.writers[pid] = w
	return w
}

// quiesce closes the fixture's sessions and waits until the leader counts
// no live writer on any partition, which is what a direct
// Partition.Recover call requires. Every partition, not only those with a
// session in tc.writers: a session a failed tryAppend dropped from the
// fixture keeps its slot until the leader finishes tearing it down.
func (tc *testCluster) quiesce(t *testing.T) {
	t.Helper()
	for _, w := range tc.writers {
		w.Close()
	}
	tc.writers = nil
	lead := tc.nodes[0]
	lead.mu.RLock()
	parts := make([]*Partition, 0, len(lead.partitions))
	for _, p := range lead.partitions {
		parts = append(parts, p)
	}
	lead.mu.RUnlock()
	deadline := time.Now().Add(5 * time.Second)
	for _, p := range parts {
		for ; ; time.Sleep(time.Millisecond) {
			p.mu.Lock()
			live := p.liveSessions
			p.mu.Unlock()
			if live == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("partition %d still has %d live sessions", p.ID, live)
			}
		}
	}
}

// cut fully partitions addr off the fabric. Only the Memory network can
// model a symmetric partition; tests that need it stay Memory-only.
func (tc *testCluster) cut(t *testing.T, addr string) {
	t.Helper()
	m, ok := tc.nw.(*transport.Memory)
	if !ok {
		t.Fatal("cut: symmetric partition requires the Memory fabric")
	}
	m.Partition(addr)
}

func startCluster(t *testing.T, n int) *testCluster {
	return startClusterCfg(t, n, nil)
}

// startClusterCfg starts n data nodes, letting mod tweak each node's
// config (liveness deadlines, directories) before it boots.
func startClusterCfg(t *testing.T, n int, mod func(i int, cfg *Config)) *testCluster {
	return startClusterOn(t, n, "memory", mod)
}

// startClusterOn boots an n-node cluster on the chosen fabric: "memory"
// runs on in-process addresses, "tcp" binds real loopback sockets so the
// same regression exercises the framed wire path.
func startClusterOn(t testing.TB, n int, fabric string, mod func(i int, cfg *Config)) *testCluster {
	t.Helper()
	var (
		nw     testNet
		addrAt func(i int) string // i == -1 addresses the fake master
	)
	switch fabric {
	case "tcp":
		addrs, err := transport.LoopbackAddrs(n + 1)
		if err != nil {
			t.Fatal(err)
		}
		nw = transport.NewTCP()
		addrAt = func(i int) string { return addrs[i+1] }
	default:
		nw = transport.NewMemory()
		addrAt = func(i int) string {
			if i < 0 {
				return "master"
			}
			return fmt.Sprintf("dn%d", i)
		}
	}
	tc := &testCluster{nw: nw}
	tc.fm = startFakeMaster(t, nw, addrAt(-1))
	clk := clock.NewManual(time.Now())
	for i := 0; i < n; i++ {
		addr := addrAt(i)
		cfg := Config{
			Addr:       addr,
			MasterAddr: addrAt(-1),
			Dir:        t.TempDir(),
			Clock:      clk,
		}
		if mod != nil {
			mod(i, &cfg)
		}
		dn, err := Start(nw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(dn.Close)
		tc.nodes = append(tc.nodes, dn)
		tc.addrs = append(tc.addrs, addr)
	}
	return tc
}

func (tc *testCluster) createPartition(t testing.TB, id uint64) {
	t.Helper()
	req := &proto.CreateDataPartitionReq{
		PartitionID: id,
		Volume:      "vol",
		Capacity:    64 * util.MB,
		Members:     tc.addrs,
	}
	// Members[0] last, as the master does: it campaigns on creation and its
	// vote requests must find the peers' groups hosted.
	for i := len(tc.addrs) - 1; i >= 0; i-- {
		var resp proto.CreateDataPartitionResp
		if err := tc.nw.Call(tc.addrs[i], uint8(proto.OpAdminCreateDataPartition), req, &resp); err != nil {
			t.Fatal(err)
		}
	}
}

func (tc *testCluster) leaderAddr() string { return tc.addrs[0] }

func (tc *testCluster) createExtent(t testing.TB, pid uint64) uint64 {
	t.Helper()
	return tc.writer(t, pid).MustCreateExtent(t)
}

func (tc *testCluster) append(t testing.TB, pid, eid uint64, data []byte) (uint64, uint64) {
	t.Helper()
	return tc.writer(t, pid).MustAppend(t, eid, data)
}

// tryAppend is append for tests that expect a refusal: it returns the ack
// and forgets the session if it was refused (an aborted session serves
// nothing more).
func (tc *testCluster) tryAppend(t *testing.T, pid, eid uint64, data []byte) *proto.Packet {
	t.Helper()
	ack, err := tc.writer(t, pid).Append(eid, data)
	if err != nil {
		t.Fatal(err)
	}
	if ack.ResultCode != proto.ResultOK {
		delete(tc.writers, pid)
	}
	return ack
}

func (tc *testCluster) read(t *testing.T, addr string, pid, eid, off uint64, length uint32) ([]byte, *proto.Packet) {
	t.Helper()
	pkt := proto.NewPacket(proto.OpDataRead, 3, pid, eid, nil)
	pkt.ExtentOffset, pkt.FileOffset = off, uint64(length)
	var resp proto.Packet
	if err := tc.nw.Call(addr, uint8(proto.OpDataRead), pkt, &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Data, &resp
}

// readEventually polls one replica until it serves the range. A follower
// enforces the Section 2.2.5 clamp against the committed offset it has
// LEARNED (piggybacked on hops, gossiped on window drains), which trails
// the client ack by one async hop - so direct follower reads of the
// freshest tail legitimately refuse until the gossip lands.
func (tc *testCluster) readEventually(t *testing.T, addr string, pid, eid, off uint64, length uint32) []byte {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		data, resp := tc.read(t, addr, pid, eid, off, length)
		if resp.ResultCode == proto.ResultOK {
			return data
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica %s never served [%d,%d) of extent %d: rc=%d %s",
				addr, off, off+uint64(length), eid, resp.ResultCode, resp.Data)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStartRejectsStreamlessTransport: writes, streamed reads and
// replication ride packet streams, so a transport without them is refused
// once, at Start, as client.Mount refuses it.
func TestStartRejectsStreamlessTransport(t *testing.T) {
	type callOnly struct{ transport.Network }
	_, err := Start(callOnly{transport.NewMemory()}, Config{Addr: "dn", Dir: t.TempDir()})
	if !errors.Is(err, util.ErrInvalidArgument) {
		t.Fatalf("Start over a stream-less transport = %v, want ErrInvalidArgument", err)
	}
}

func TestAppendReplicatesToAllReplicas(t *testing.T) {
	tc := startCluster(t, 3)
	tc.createPartition(t, 100)
	eid := tc.createExtent(t, 100)

	_, off := tc.append(t, 100, eid, []byte("hello "))
	if off != 0 {
		t.Fatalf("first append offset = %d", off)
	}
	_, off = tc.append(t, 100, eid, []byte("world"))
	if off != 6 {
		t.Fatalf("second append offset = %d", off)
	}

	// Every replica can serve the committed range (followers once the
	// committed-offset gossip lands).
	for _, addr := range tc.addrs {
		if data := tc.readEventually(t, addr, 100, eid, 0, 11); string(data) != "hello world" {
			t.Fatalf("replica %s read = %q", addr, data)
		}
	}
	// Leader tracked the committed offset.
	p := tc.nodes[0].Partition(100)
	if got := p.committedOf(eid); got != 11 {
		t.Fatalf("committed = %d, want 11", got)
	}
}

func TestAppendToFollowerRejected(t *testing.T) {
	tc := startCluster(t, 3)
	tc.createPartition(t, 100)
	eid := tc.createExtent(t, 100)
	w, err := dntest.Dial(tc.nw, tc.addrs[1], 100)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	resp, err := w.Append(eid, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.ResultCode != proto.ResultErrNotLeader {
		t.Fatalf("follower accepted client append: rc=%d", resp.ResultCode)
	}
}

func TestAppendCorruptPayloadRejected(t *testing.T) {
	tc := startCluster(t, 3)
	tc.createPartition(t, 100)
	eid := tc.createExtent(t, 100)
	pkt := proto.NewPacket(proto.OpDataAppend, 9, 100, eid, []byte("good"))
	pkt.Data = []byte("evil") // CRC now stale
	resp, err := tc.writer(t, 100).Do(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ResultCode != proto.ResultErrCRC {
		t.Fatalf("corrupt payload accepted: rc=%d", resp.ResultCode)
	}
}

func TestSmallFileAggregatedWrite(t *testing.T) {
	tc := startCluster(t, 3)
	tc.createPartition(t, 100)

	// ExtentID 0 selects the small-file path; leader picks placement.
	var locs []struct {
		eid, off uint64
		data     string
	}
	for i := 0; i < 5; i++ {
		data := fmt.Sprintf("small-%d", i)
		eid, off := tc.append(t, 100, 0, []byte(data))
		locs = append(locs, struct {
			eid, off uint64
			data     string
		}{eid, off, data})
	}
	// All land in one shared extent, and every replica serves them.
	for _, l := range locs[1:] {
		if l.eid != locs[0].eid {
			t.Fatalf("small files spread across extents: %d vs %d", l.eid, locs[0].eid)
		}
	}
	for _, addr := range tc.addrs {
		for _, l := range locs {
			if data := tc.readEventually(t, addr, 100, l.eid, l.off, uint32(len(l.data))); string(data) != l.data {
				t.Fatalf("replica %s small read = %q", addr, data)
			}
		}
	}
}

func waitRaftLeader(t *testing.T, tc *testCluster, pid uint64) *Partition {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, n := range tc.nodes {
			p := n.Partition(pid)
			if p != nil && p.raft != nil && p.raft.IsLeader() {
				return p
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("no raft leader for partition")
	return nil
}

func TestOverwriteThroughRaft(t *testing.T) {
	tc := startCluster(t, 3)
	tc.createPartition(t, 100)
	eid := tc.createExtent(t, 100)
	tc.append(t, 100, eid, []byte("aaaaaaaaaa"))

	leader := waitRaftLeader(t, tc, 100)
	pkt := proto.NewPacket(proto.OpDataOverwrite, 20, 100, eid, []byte("XYZ"))
	pkt.ExtentOffset = 3
	var resp proto.Packet
	if err := tc.nw.Call(leader.node.addr, uint8(proto.OpDataOverwrite), pkt, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ResultCode != proto.ResultOK {
		t.Fatalf("overwrite failed: %s", resp.Data)
	}
	// All replicas converge on the overwritten content.
	for _, addr := range tc.addrs {
		deadline := time.Now().Add(5 * time.Second)
		for {
			data, rr := tc.read(t, addr, 100, eid, 0, 10)
			if rr.ResultCode == proto.ResultOK && string(data) == "aaaXYZaaaa" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica %s never converged: %q", addr, data)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

func TestOverwriteOnNonRaftLeaderRedirects(t *testing.T) {
	tc := startCluster(t, 3)
	tc.createPartition(t, 100)
	eid := tc.createExtent(t, 100)
	tc.append(t, 100, eid, []byte("aaaa"))
	leader := waitRaftLeader(t, tc, 100)
	for _, n := range tc.nodes {
		if n.addr == leader.node.addr {
			continue
		}
		pkt := proto.NewPacket(proto.OpDataOverwrite, 21, 100, eid, []byte("bb"))
		var resp proto.Packet
		if err := tc.nw.Call(n.addr, uint8(proto.OpDataOverwrite), pkt, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.ResultCode != proto.ResultErrNotLeader {
			t.Fatalf("non-leader %s accepted overwrite: rc=%d", n.addr, resp.ResultCode)
		}
		return
	}
}

func TestReadBeyondCommittedFails(t *testing.T) {
	tc := startCluster(t, 3)
	tc.createPartition(t, 100)
	eid := tc.createExtent(t, 100)
	tc.append(t, 100, eid, []byte("12345"))
	_, resp := tc.read(t, tc.leaderAddr(), 100, eid, 2, 10)
	if resp.ResultCode != proto.ResultErrClamped {
		t.Fatalf("out-of-range read rc=%d", resp.ResultCode)
	}
}

func TestMarkDeletePunchesHoles(t *testing.T) {
	tc := startCluster(t, 3)
	tc.createPartition(t, 100)

	eid, off := tc.append(t, 100, 0, []byte("0123456789"))

	lenBuf := make([]byte, 8)
	binary.BigEndian.PutUint64(lenBuf, 10)
	del := proto.NewPacket(proto.OpDataMarkDelete, 31, 100, eid, lenBuf)
	del.ExtentOffset = off
	var dr proto.Packet
	if err := tc.nw.Call(tc.leaderAddr(), uint8(proto.OpDataMarkDelete), del, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.ResultCode != proto.ResultOK {
		t.Fatalf("mark delete failed: %s", dr.Data)
	}
	data, rr := tc.read(t, tc.leaderAddr(), 100, eid, off, 10)
	if rr.ResultCode != proto.ResultOK || !bytes.Equal(data, make([]byte, 10)) {
		t.Fatalf("holed range = %q rc=%d", data, rr.ResultCode)
	}
}

// TestReleaseDecidedByLeaderReachesEveryReplica: a mark-delete covering a
// large file's whole extent removes the extent from all three replicas; one
// covering the whole open aggregation extent is punched instead, so a
// neighbour aggregated after it stays readable from every replica.
func TestReleaseDecidedByLeaderReachesEveryReplica(t *testing.T) {
	tc := startCluster(t, 3)
	tc.createPartition(t, 100)
	markDelete := func(eid, off, length uint64) {
		t.Helper()
		lenBuf := make([]byte, 8)
		binary.BigEndian.PutUint64(lenBuf, length)
		pkt := proto.NewPacket(proto.OpDataMarkDelete, 31, 100, eid, lenBuf)
		pkt.ExtentOffset = off
		var resp proto.Packet
		if err := tc.nw.Call(tc.leaderAddr(), uint8(proto.OpDataMarkDelete), pkt, &resp); err != nil || resp.ResultCode != proto.ResultOK {
			t.Fatalf("mark delete ext %d [%d,+%d): %v rc=%d %s", eid, off, length, err, resp.ResultCode, resp.Data)
		}
	}
	big := tc.createExtent(t, 100)
	tc.append(t, 100, big, []byte("large-file-bytes"))
	small, off := tc.append(t, 100, 0, []byte("delete-me!"))
	markDelete(big, 0, 16)
	markDelete(small, off, 10)
	if ext, nOff := tc.append(t, 100, 0, []byte("neighbour!")); ext != small || nOff != off+10 {
		t.Fatalf("neighbour landed at ext %d off %d, want ext %d off %d", ext, nOff, small, off+10)
	}
	for i, n := range tc.nodes {
		store := n.Partition(100).store
		deadline := time.Now().Add(5 * time.Second)
		for {
			_, bigErr := store.Info(big)
			info, smallErr := store.Info(small)
			if errors.Is(bigErr, util.ErrNotFound) && smallErr == nil && info.Holed == 10 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica %s: large extent %v, aggregation extent %+v %v", tc.addrs[i], bigErr, info, smallErr)
			}
			time.Sleep(time.Millisecond)
		}
		if got := tc.readEventually(t, tc.addrs[i], 100, small, off, 20); string(got) != "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00neighbour!" {
			t.Fatalf("replica %s serves %q", tc.addrs[i], got)
		}
	}
}

func TestFollowerFailureReportedAndWriteFails(t *testing.T) {
	tc := startCluster(t, 3)
	tc.createPartition(t, 100)
	eid := tc.createExtent(t, 100)
	tc.append(t, 100, eid, []byte("before"))

	tc.cut(t, tc.addrs[2])
	if resp := tc.tryAppend(t, 100, eid, []byte("after")); resp.ResultCode == proto.ResultOK {
		t.Fatal("append succeeded with unreachable follower (primary-backup requires all)")
	}
	// Committed never advanced past the earlier write.
	p := tc.nodes[0].Partition(100)
	if got := p.committedOf(eid); got != 6 {
		t.Fatalf("committed = %d, want 6", got)
	}
}

func TestAlignReplicasCatchesUpLaggingFollower(t *testing.T) {
	tc := startCluster(t, 3)
	tc.createPartition(t, 100)
	eid := tc.createExtent(t, 100)
	tc.append(t, 100, eid, []byte("committed-data-"))

	// Partition follower 2; writes now fail but leader + follower 1 hold
	// more data than follower 2 (stale tail allowed, never served).
	tc.cut(t, tc.addrs[2])
	tc.tryAppend(t, 100, eid, []byte("tail"))

	tc.nw.Heal(tc.addrs[2])
	leaderP := tc.nodes[0].Partition(100)
	shipped, err := leaderP.AlignReplicas(tc.addrs[2])
	if err != nil {
		t.Fatal(err)
	}
	if shipped == 0 {
		t.Fatal("alignment shipped nothing to the lagging follower")
	}
	// Alignment alone ships bytes but must NOT promote the follower's
	// read clamp - a partial recovery pass may leave other replicas
	// missing the tail, so the tail stays unservable until Recover
	// completes and pushes the promoted offsets.
	if _, rr := tc.read(t, tc.addrs[2], 100, eid, 0, 19); rr.ResultCode == proto.ResultOK {
		t.Fatal("bare alignment promoted the follower's committed clamp")
	}
	tc.quiesce(t) // the aborted write session may still hold its slot
	if _, err := leaderP.Recover(); err != nil {
		t.Fatal(err)
	}
	// After the full recovery pass, follower 2 serves the whole tail.
	data, rr := tc.read(t, tc.addrs[2], 100, eid, 0, 19)
	if rr.ResultCode != proto.ResultOK || string(data) != "committed-data-tail" {
		t.Fatalf("post-recovery follower read = %q rc=%d", data, rr.ResultCode)
	}
}

func TestCreatePartitionDuplicate(t *testing.T) {
	tc := startCluster(t, 1)
	tc.createPartition(t, 7)
	err := tc.nodes[0].CreatePartition(&proto.CreateDataPartitionReq{
		PartitionID: 7, Volume: "vol", Members: tc.addrs,
	})
	if !errors.Is(err, util.ErrExist) {
		t.Fatalf("duplicate partition: %v", err)
	}
}

func TestSingleReplicaPartitionWorks(t *testing.T) {
	tc := startCluster(t, 1)
	tc.createPartition(t, 7)
	eid := tc.createExtent(t, 7)
	tc.append(t, 7, eid, []byte("solo"))
	data, rr := tc.read(t, tc.addrs[0], 7, eid, 0, 4)
	if rr.ResultCode != proto.ResultOK || string(data) != "solo" {
		t.Fatalf("single replica read = %q", data)
	}
}

func TestNodeStatsAndHeartbeat(t *testing.T) {
	tc := startCluster(t, 3)
	tc.createPartition(t, 100)
	eid := tc.createExtent(t, 100)
	tc.append(t, 100, eid, []byte("0123456789"))
	if tc.nodes[0].PartitionCount() != 1 {
		t.Fatalf("PartitionCount = %d", tc.nodes[0].PartitionCount())
	}
	if tc.nodes[0].Used() != 10 {
		t.Fatalf("Used = %d", tc.nodes[0].Used())
	}
	tc.nodes[0].SendHeartbeat() // must not panic or error
}

func TestUnknownPartitionRejected(t *testing.T) {
	tc := startCluster(t, 1)
	pkt := proto.NewPacket(proto.OpDataRead, 1, 999, 1, nil)
	var resp proto.Packet
	err := tc.nw.Call(tc.addrs[0], uint8(proto.OpDataRead), pkt, &resp)
	if !errors.Is(err, util.ErrNotFound) {
		t.Fatalf("unknown partition: %v", err)
	}
}

func TestPartitionFullGoesReadOnly(t *testing.T) {
	nw := transport.NewMemory()
	startFakeMaster(t, nw, "master")
	dn, err := Start(nw, Config{
		Addr: "solo", MasterAddr: "master", Dir: t.TempDir(),
		Clock: clock.NewManual(time.Now()),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dn.Close)
	if err := dn.CreatePartition(&proto.CreateDataPartitionReq{
		PartitionID: 1, Volume: "v", Capacity: 8, Members: []string{"solo"},
	}); err != nil {
		t.Fatal(err)
	}
	w, err := dntest.Dial(nw, "solo", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.MustAppend(t, 0, []byte("12345678"))
	// Next write exceeds capacity and must flip the partition read-only.
	resp2, err := w.Append(0, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if resp2.ResultCode == proto.ResultOK {
		t.Fatal("write beyond capacity accepted")
	}
	if dn.Partition(1).Status() != proto.PartitionReadOnly {
		t.Fatalf("partition status = %v", dn.Partition(1).Status())
	}
}

// TestUnaryClientWriteRejected: the data node serves client writes on
// replication sessions only; a create or append arriving as a plain Call
// (no hop marker) is refused before it touches the store.
func TestUnaryClientWriteRejected(t *testing.T) {
	tc := startCluster(t, 3)
	tc.createPartition(t, 100)
	eid := tc.createExtent(t, 100)
	for _, pkt := range []*proto.Packet{
		proto.NewPacket(proto.OpDataCreateExtent, 1, 100, 0, nil),
		proto.NewPacket(proto.OpDataAppend, 2, 100, eid, []byte("unary")),
		proto.NewPacket(proto.OpDataAppend, 3, 100, 0, []byte("unary small file")),
	} {
		var resp proto.Packet
		if err := tc.nw.Call(tc.leaderAddr(), uint8(pkt.Op), pkt, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.ResultCode != proto.ResultErrArg {
			t.Fatalf("unary %s: rc=%d (%s), want ResultErrArg", pkt.Op, resp.ResultCode, resp.Data)
		}
	}
	p := tc.nodes[0].Partition(100)
	if p.ExtentCount() != 1 || p.Used() != 0 {
		t.Fatalf("refused unary writes reached the store: %d extents, %d bytes", p.ExtentCount(), p.Used())
	}
}
