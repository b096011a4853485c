package multiraft_test

// Migration regression tests: the meta and data subsystems moved from
// per-group raft.Nodes onto the MultiRaft manager (via the raftstore
// facade); these tests pin that replicated mutations still commit and
// reach every replica through the new stack, using only the subsystems'
// public RPC surfaces.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cfs/internal/datanode"
	"cfs/internal/datanode/dntest"
	"cfs/internal/meta"
	"cfs/internal/proto"
	"cfs/internal/raft"
	"cfs/internal/raftstore"
	"cfs/internal/transport"
	"cfs/internal/util"
)

func fastRaft() raftstore.Config {
	return raftstore.Config{
		RaftDefaults: raft.Config{
			TickInterval:   2 * time.Millisecond,
			HeartbeatTicks: 2,
			ElectionTicks:  10,
			ProposeTimeout: 3 * time.Second,
		},
	}
}

// callLeader retries op against each addr until one stops redirecting.
func callLeader(nw *transport.Memory, addrs []string, op proto.Op, req, resp any) error {
	var lastErr error
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, addr := range addrs {
			err := nw.Call(addr, uint8(op), req, resp)
			if err == nil {
				return nil
			}
			lastErr = err
			if !errors.Is(err, util.ErrNotLeader) && !errors.Is(err, util.ErrTimeout) {
				return err
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return lastErr
}

func TestMetaPartitionCommitsThroughManager(t *testing.T) {
	nw := transport.NewMemory()
	addrs := []string{"mn0", "mn1", "mn2"}
	var nodes []*meta.MetaNode
	for _, a := range addrs {
		mn, err := meta.Start(nw, meta.Config{Addr: a, Raft: fastRaft()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(mn.Close)
		nodes = append(nodes, mn)
	}
	for _, mn := range nodes {
		if err := mn.CreatePartition(&proto.CreateMetaPartitionReq{
			PartitionID: 1, Volume: "v", Start: 1, End: ^uint64(0), Members: addrs,
		}); err != nil {
			t.Fatal(err)
		}
	}

	// A replicated mutation through the public RPC surface.
	var resp proto.CreateInodeResp
	if err := callLeader(nw, addrs, proto.OpMetaCreateInode,
		&proto.CreateInodeReq{PartitionID: 1, Type: proto.TypeDir}, &resp); err != nil {
		t.Fatalf("create inode through manager-backed partition: %v", err)
	}
	if resp.Info == nil || resp.Info.Inode == 0 {
		t.Fatalf("create inode returned %+v", resp.Info)
	}

	// Every replica's state machine applies it.
	for _, mn := range nodes {
		p := mn.Partition(1)
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) && p.InodeCount() < 1 {
			time.Sleep(2 * time.Millisecond)
		}
		if got := p.InodeCount(); got != 1 {
			t.Fatalf("replica %s applied %d inodes, want 1", mn.Addr(), got)
		}
	}
}

func TestDataPartitionOverwriteCommitsThroughManager(t *testing.T) {
	nw := transport.NewMemory()
	addrs := []string{"dn0", "dn1", "dn2"}
	var nodes []*datanode.DataNode
	for i, a := range addrs {
		dn, err := datanode.Start(nw, datanode.Config{
			Addr: a, Dir: fmt.Sprintf("%s/dn%d", t.TempDir(), i), Raft: fastRaft(),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(dn.Close)
		nodes = append(nodes, dn)
	}
	for _, dn := range nodes {
		if err := dn.CreatePartition(&proto.CreateDataPartitionReq{
			PartitionID: 1, Volume: "v", Capacity: 64 * util.MB, Members: addrs,
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Seed an extent via the primary-backup path.
	w, err := dntest.Dial(nw, addrs[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	eid := w.MustCreateExtent(t)
	w.MustAppend(t, eid, []byte("aaaaaaaaaa"))

	// Overwrite rides the Raft group, now hosted by the manager. The Raft
	// leader may be any replica; probe until one accepts.
	var owResp proto.Packet
	deadline := time.Now().Add(10 * time.Second)
	for {
		ow := proto.NewPacket(proto.OpDataOverwrite, 3, 1, eid, []byte("XYZ"))
		ow.ExtentOffset = 3
		accepted := false
		for _, addr := range addrs {
			if err := nw.Call(addr, uint8(proto.OpDataOverwrite), ow, &owResp); err != nil {
				t.Fatal(err)
			}
			if owResp.ResultCode == proto.ResultOK {
				accepted = true
				break
			}
		}
		if accepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no replica accepted the overwrite: rc=%d %s", owResp.ResultCode, owResp.Data)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// All replicas converge on the overwritten content.
	for _, addr := range addrs {
		deadline := time.Now().Add(5 * time.Second)
		for {
			lenBuf := []byte{0, 0, 0, 10}
			rd := proto.NewPacket(proto.OpDataRead, 4, 1, eid, lenBuf)
			var rr proto.Packet
			if err := nw.Call(addr, uint8(proto.OpDataRead), rd, &rr); err != nil {
				t.Fatal(err)
			}
			if rr.ResultCode == proto.ResultOK && string(rr.Data) == "aaaXYZaaaa" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica %s never converged: %q", addr, rr.Data)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}
