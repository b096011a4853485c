package bench

// The reconfiguration experiment (DESIGN.md Section 5.5): how long the
// system takes to restore full redundancy after a replica is killed for
// good. Each trial boots a fresh 4-data-node cluster with one spare,
// writes a baseline extent, kills a follower replica, and clocks four
// milestones from the kill: the master detaching the corpse (epoch bump +
// RemoveNode ConfChange), the replacement being placed on the spare, the
// spare serving the re-shipped baseline bytes (time-to-full-redundancy,
// the headline number), and the single-view invariant re-converging
// (Members, ReplicaEpoch and the Raft configuration agreeing everywhere).
//
// The cluster runs on a manual clock that the harness's pump sets to wall
// time before it sends heartbeats and runs a maintenance scan, so no
// background loop runs and the timeline is deterministic up to the
// NodeTimeout (150ms) and the replacement grace (2x NodeTimeout) - the
// measured numbers are dominated by those two plus the actual
// detach/place/refill work, which is what the table is after.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cfs/internal/client"
	"cfs/internal/clock"
	"cfs/internal/datanode"
	"cfs/internal/master"
	"cfs/internal/meta"
	"cfs/internal/proto"
	"cfs/internal/transport"
	"cfs/internal/util"
)

// ReconfigPoint is one measured kill-to-recovery trial. All durations are
// from the moment the victim replica was killed.
type ReconfigPoint struct {
	Trial int
	// Detach is when the master removed the dead replica from the
	// partition record under a bumped ReplicaEpoch.
	Detach time.Duration
	// Placed is when the replacement replica appeared in the record.
	Placed time.Duration
	// Refilled is when the fresh replica served the baseline bytes -
	// full redundancy restored.
	Refilled time.Duration
	// Converged is when every live replica's epoch, Members and committed
	// Raft configuration matched the master's record again.
	Converged time.Duration
}

// reconfigNodeTimeout mirrors the integration suite: short enough that a
// trial finishes in about a second, long enough that heartbeats pumped
// every 10ms never miss a term.
const reconfigNodeTimeout = 150 * time.Millisecond

// RunReconfig measures time-to-full-redundancy over several kill trials on
// the scale's transport fabric.
func RunReconfig(s Scale) (*Table, []ReconfigPoint, error) {
	trials := 3
	if s.MaxClients >= 8 { // paper scale: tighter distribution
		trials = 5
	}
	fabric := s.Transport
	if fabric == "" {
		fabric = "memory"
	}
	var points []ReconfigPoint
	for i := 1; i <= trials; i++ {
		p, err := runReconfigTrial(fabric, i)
		if err != nil {
			return nil, nil, fmt.Errorf("reconfig trial %d (%s): %w", i, fabric, err)
		}
		points = append(points, p)
	}
	t := &Table{
		Title: fmt.Sprintf("Reconfiguration: kill -> full redundancy, %s fabric "+
			"(NodeTimeout %v, replacement grace %v)",
			fabric, reconfigNodeTimeout, 2*reconfigNodeTimeout),
		Header: []string{"Trial", "Detach", "Replacement placed", "Refill served", "Views converged"},
	}
	ms := func(d time.Duration) string { return fmt.Sprintf("%.0f ms", float64(d)/float64(time.Millisecond)) }
	var sum ReconfigPoint
	for _, p := range points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p.Trial), ms(p.Detach), ms(p.Placed), ms(p.Refilled), ms(p.Converged),
		})
		sum.Detach += p.Detach
		sum.Placed += p.Placed
		sum.Refilled += p.Refilled
		sum.Converged += p.Converged
	}
	n := time.Duration(len(points))
	t.Rows = append(t.Rows, []string{
		"mean", ms(sum.Detach / n), ms(sum.Placed / n), ms(sum.Refilled / n), ms(sum.Converged / n),
	})
	return t, points, nil
}

// runReconfigTrial boots one disposable cluster, kills a data replica and
// clocks the recovery milestones.
func runReconfigTrial(fabric string, trial int) (point ReconfigPoint, err error) {
	const metaN, dataN = 1, 4
	point.Trial = trial

	var nw transport.PacketStreamNetwork
	var mem *transport.Memory
	var masterAddr string
	var metaAddrs, dataAddrs []string
	if fabric == "tcp" {
		addrs, aerr := allocAddrs(1 + metaN + dataN)
		if aerr != nil {
			return point, aerr
		}
		masterAddr = addrs[0]
		metaAddrs = addrs[1 : 1+metaN]
		dataAddrs = addrs[1+metaN:]
		nw = transport.NewTCP()
	} else {
		mem = transport.NewMemory()
		nw = mem
		masterAddr = "master0"
		for i := 0; i < metaN; i++ {
			metaAddrs = append(metaAddrs, fmt.Sprintf("mn%d", i))
		}
		for i := 0; i < dataN; i++ {
			dataAddrs = append(dataAddrs, fmt.Sprintf("dn%d", i))
		}
	}

	dir, err := os.MkdirTemp("", "cfs-reconfig-")
	if err != nil {
		return point, err
	}
	defer os.RemoveAll(dir)

	clk := clock.NewManual(time.Now())
	m, err := master.Start(nw, master.Config{
		Addr:        masterAddr,
		NodeTimeout: reconfigNodeTimeout,
		Clock:       clk,
	})
	if err != nil {
		return point, err
	}
	defer m.Close()
	if !m.WaitLeader(5 * time.Second) {
		return point, fmt.Errorf("master never elected a leader")
	}

	var metas []*meta.MetaNode
	var datas []*datanode.DataNode
	defer func() {
		for _, mn := range metas {
			if mn != nil {
				mn.Close()
			}
		}
		for _, dn := range datas {
			if dn != nil {
				dn.Close()
			}
		}
	}()
	for _, a := range metaAddrs {
		mn, merr := meta.Start(nw, meta.Config{
			Addr: a, MasterAddr: m.Addr(), Clock: clk,
			Total: 32 * util.GB,
		})
		if merr != nil {
			return point, merr
		}
		metas = append(metas, mn)
	}
	for i, a := range dataAddrs {
		dn, derr := datanode.Start(nw, datanode.Config{
			Addr: a, MasterAddr: m.Addr(), Dir: filepath.Join(dir, fmt.Sprintf("d%d", i)),
			Clock: clk,
		})
		if derr != nil {
			return point, derr
		}
		datas = append(datas, dn)
	}

	var cvResp proto.CreateVolumeResp
	if err := nw.Call(m.Addr(), uint8(proto.OpMasterCreateVolume), &proto.CreateVolumeReq{
		Name: "vol", MetaPartitionCount: 1, DataPartitionCount: 1,
	}, &cvResp); err != nil {
		return point, err
	}

	pump := func() {
		clk.Advance(time.Since(clk.Now()))
		for _, mn := range metas {
			if mn != nil {
				mn.SendHeartbeat()
			}
		}
		for _, dn := range datas {
			if dn != nil {
				dn.SendHeartbeat()
			}
		}
		m.CheckOnce()
	}
	dataPartition := func() (proto.DataPartitionInfo, error) {
		var resp proto.GetVolumeResp
		if err := nw.Call(m.Addr(), uint8(proto.OpMasterGetVolume),
			&proto.GetVolumeReq{Name: "vol"}, &resp); err != nil {
			return proto.DataPartitionInfo{}, err
		}
		if len(resp.View.DataPartitions) == 0 {
			return proto.DataPartitionInfo{}, fmt.Errorf("volume has no data partitions")
		}
		return resp.View.DataPartitions[0], nil
	}
	waitFor := func(what string, cond func() (bool, error)) error {
		deadline := time.Now().Add(30 * time.Second)
		for {
			pump()
			ok, cerr := cond()
			if cerr != nil {
				return cerr
			}
			if ok {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s never happened", what)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	c, err := client.Mount(nw, m.Addr(), "vol", client.Config{})
	if err != nil {
		return point, err
	}
	payload := bytes.Repeat([]byte("redundancy"), 512)
	ek, err := c.Data.WriteSmallFile(0, payload)
	// The refill this trial times is quiesce-gated on the leader, and a
	// pooled session holds its slot until the client goes away.
	c.Close()
	if err != nil {
		return point, err
	}

	dp, err := dataPartition()
	if err != nil {
		return point, err
	}
	if len(dp.Members) != 3 {
		return point, fmt.Errorf("fresh data partition has members %v, want 3", dp.Members)
	}
	var spare string
	for _, a := range dataAddrs {
		if !reconfigMemberOf(dp.Members, a) {
			spare = a
		}
	}
	if spare == "" {
		return point, fmt.Errorf("no spare data node")
	}
	readSpare := func() (bool, error) {
		lenBuf := make([]byte, 4)
		binary.BigEndian.PutUint32(lenBuf, ek.Size)
		pkt := proto.NewPacket(proto.OpDataRead, 199, ek.PartitionID, ek.ExtentID, lenBuf)
		pkt.ExtentOffset = ek.ExtentOffset
		var resp proto.Packet
		if err := nw.Call(spare, uint8(proto.OpDataRead), pkt, &resp); err != nil {
			return false, nil // spare not serving yet - keep driving
		}
		return resp.ResultCode == proto.ResultOK && bytes.Equal(resp.Data, payload), nil
	}

	// Kill a follower replica for good: a symmetric cut on the memory
	// fabric, a closed listener on TCP - either way the process is gone.
	victim := dp.Members[2]
	vi := reconfigIndexOf(dataAddrs, victim)
	killedAt := time.Now()
	if mem != nil {
		mem.Partition(victim)
	}
	datas[vi].Close()
	datas[vi] = nil

	if err := waitFor("detach of the dead replica", func() (bool, error) {
		cur, derr := dataPartition()
		if derr != nil {
			return false, derr
		}
		return cur.ReplicaEpoch >= 2 && !reconfigMemberOf(cur.Members, victim), nil
	}); err != nil {
		return point, err
	}
	point.Detach = time.Since(killedAt)

	if err := waitFor("replacement placement", func() (bool, error) {
		cur, derr := dataPartition()
		if derr != nil {
			return false, derr
		}
		return len(cur.Members) == 3 && reconfigMemberOf(cur.Members, spare) &&
			len(cur.Detached) == 0, nil
	}); err != nil {
		return point, err
	}
	point.Placed = time.Since(killedAt)

	if err := waitFor("refill of the fresh replica", readSpare); err != nil {
		return point, err
	}
	point.Refilled = time.Since(killedAt)

	if err := waitFor("single-view convergence", func() (bool, error) {
		cur, derr := dataPartition()
		if derr != nil {
			return false, derr
		}
		for i, dn := range datas {
			if dn == nil || !reconfigMemberOf(cur.Members, dataAddrs[i]) {
				continue
			}
			p := dn.Partition(cur.PartitionID)
			if p == nil || p.Epoch() != cur.ReplicaEpoch ||
				!reconfigSameMembers(p.MembersCopy(), cur.Members) {
				return false, nil
			}
			if len(cur.Members) > 1 && !reconfigSameMembers(p.RaftMembers(), cur.Members) {
				return false, nil
			}
		}
		return true, nil
	}); err != nil {
		return point, err
	}
	point.Converged = time.Since(killedAt)
	return point, nil
}

func reconfigIndexOf(addrs []string, addr string) int {
	for i, a := range addrs {
		if a == addr {
			return i
		}
	}
	return -1
}

func reconfigMemberOf(set []string, addr string) bool {
	return reconfigIndexOf(set, addr) >= 0
}

func reconfigSameMembers(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for _, x := range a {
		if !reconfigMemberOf(b, x) {
			return false
		}
	}
	return true
}
