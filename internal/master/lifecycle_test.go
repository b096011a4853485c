package master

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"

	"cfs/internal/client"
	"cfs/internal/proto"
	"cfs/internal/util"
)

// The membership lifecycle as one table over both partition kinds
// (DESIGN.md Section 5.5): the master runs ONE code path for data and meta
// partitions, so every scenario runs once per kind against the same
// assertions and ends on the single-view invariant. lcEnv is the
// kind-neutral surface the scenarios speak; only its accessors know which
// node type and which client call stand behind a step.
type lcEnv struct {
	*rcEnv
	isMeta bool
	wrote  map[string]proto.ExtentKey // data: where each put's bytes live
}

// newLcEnv boots n nodes of the kind under test and one of the other (a
// volume needs both), with one partition of each.
func newLcEnv(t *testing.T, fabric string, isMeta bool, n int) *lcEnv {
	t.Helper()
	metaN, dataN := 1, n
	if isMeta {
		metaN, dataN = n, 1
	}
	return &lcEnv{rcEnv: newRcEnv(t, fabric, metaN, dataN), isMeta: isMeta, wrote: map[string]proto.ExtentKey{}}
}

// rec is the master's current record of the partition under test.
func (e *lcEnv) rec() replicaSet {
	e.t.Helper()
	if e.isMeta {
		mp := e.metaPartition()
		return replicaSet{isMeta: true, id: mp.PartitionID, members: mp.Members,
			detached: mp.Detached, epoch: mp.ReplicaEpoch, status: mp.Status}
	}
	dp := e.dataPartition()
	return replicaSet{id: dp.PartitionID, members: dp.Members,
		detached: dp.Detached, epoch: dp.ReplicaEpoch, status: dp.Status}
}

// converged is the single-view invariant for the partition under test.
func (e *lcEnv) converged() bool {
	if e.isMeta {
		return e.metaViewsConverged(e.metaPartition())
	}
	return e.dataViewsConverged(e.dataPartition())
}

func (e *lcEnv) kill(addr string) {
	e.t.Helper()
	if e.isMeta {
		e.killMeta(addr)
	} else {
		e.killData(addr)
	}
}

// restart brings a killed node back under its address: on its old
// directory, or - wiped - on an empty one.
func (e *lcEnv) restart(addr string, wiped bool) {
	e.t.Helper()
	e.nw.Heal(addr)
	if e.isMeta {
		i := rcIndexOf(e.metaAddrs, addr)
		if wiped {
			e.metaDirs[i] = e.t.TempDir()
		}
		e.metas[i] = e.bootMeta(i)
		return
	}
	i := rcIndexOf(e.dataAddrs, addr)
	if wiped {
		e.dataDirs[i] = e.t.TempDir()
	}
	e.datas[i] = e.bootData(i)
}

// put stores one named item in the partition through a client mount,
// retrying across elections and reconfigurations in flight. The mount is
// closed again: a bound data session would hold the partition's quiesce
// slot against the leader's recovery pass.
func (e *lcEnv) put(name string) {
	e.t.Helper()
	c, err := client.Mount(e.nw, e.m.Addr(), "vol", client.Config{})
	if err != nil {
		e.t.Fatal(err)
	}
	defer c.Close()
	if e.isMeta {
		e.createUntil(c, name)
		return
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		ek, err := c.Data.WriteSmallFile(0, []byte(name))
		if err == nil {
			e.wrote[name] = ek
			return
		}
		if time.Now().After(deadline) {
			e.t.Fatalf("put %q never succeeded: %v", name, err)
		}
		e.pump()
		_ = c.Refresh()
		time.Sleep(20 * time.Millisecond)
	}
}

// holds reports whether the replica on addr has the item in its own state:
// a data replica serves the committed bytes, a meta replica's trees resolve
// the name (asked in-process; over the wire only the Raft leader answers).
func (e *lcEnv) holds(addr, name string) bool {
	if e.isMeta {
		mn := e.metas[rcIndexOf(e.metaAddrs, addr)]
		if mn == nil {
			return false
		}
		p := mn.Partition(e.rec().id)
		if p == nil {
			return false
		}
		_, err := p.Lookup(proto.RootInodeID, name)
		return err == nil
	}
	ek := e.wrote[name]
	resp, data := e.readExtent(addr, ek.PartitionID, ek.ExtentID, ek.ExtentOffset, ek.Size)
	return resp.ResultCode == proto.ResultOK && bytes.Equal(data, []byte(name))
}

// served reports whether the partition's current leader serves the item to
// a client: the Raft leader for meta, Members[0] for data.
func (e *lcEnv) served(name string) bool {
	if !e.isMeta {
		return e.holds(e.rec().members[0], name)
	}
	c, err := client.Mount(e.nw, e.m.Addr(), "vol", client.Config{})
	if err != nil {
		return false
	}
	defer c.Close()
	_, err = c.Meta.Lookup(proto.RootInodeID, name)
	return err == nil
}

// detachByDeath kills victim and waits for the record to shrink around it.
func (e *lcEnv) detachByDeath(victim string) replicaSet {
	e.t.Helper()
	before := e.rec()
	e.kill(victim)
	e.driveUntil("detach of "+victim, func() bool {
		cur := e.rec()
		return cur.epoch > before.epoch && !slices.Contains(cur.members, victim) &&
			slices.Contains(cur.detached, victim) && cur.status == proto.PartitionReadWrite &&
			e.converged()
	})
	return e.rec()
}

var lifecycleScenarios = []struct {
	name    string
	fabrics []string
	run     func(t *testing.T, fabric string, isMeta bool)
}{
	{"detach", []string{"memory"}, lcDetach},
	{"reattach", []string{"memory"}, lcReattach},
	{"wiped", []string{"memory"}, lcWipedReattach},
	{"replacement", []string{"memory", "tcp"}, lcReplacement},
	{"revive", []string{"memory"}, lcRevive},
}

func TestMembershipLifecycle(t *testing.T) {
	for _, kind := range []string{"data", "meta"} {
		for _, sc := range lifecycleScenarios {
			for _, fabric := range sc.fabrics {
				t.Run(kind+"/"+sc.name+"/"+fabric, func(t *testing.T) {
					sc.run(t, fabric, kind == "meta")
				})
			}
		}
	}
}

// lcDetach: a dead node leaves the replica set under a bumped epoch, the
// partition stays read-write on the survivors in the same order, and the
// survivors' Raft group shrinks with the record.
func lcDetach(t *testing.T, fabric string, isMeta bool) {
	e := newLcEnv(t, fabric, isMeta, 3)
	orig := e.rec()
	if len(orig.members) != 3 || orig.epoch != 1 {
		t.Fatalf("fresh partition: members=%v epoch=%d", orig.members, orig.epoch)
	}
	e.put("before")
	victim := orig.members[2]
	cur := e.detachByDeath(victim)
	if !slices.Equal(cur.members, orig.members[:2]) || !slices.Equal(cur.detached, []string{victim}) {
		t.Fatalf("after detach: members=%v detached=%v, want %v / [%s]", cur.members, cur.detached, orig.members[:2], victim)
	}
	e.put("after")
	for _, name := range []string{"before", "after"} {
		if !e.served(name) {
			t.Fatalf("%q not served after the detach", name)
		}
	}
}

// lcReattach: the returning node rejoins only after reattachHysteresis
// on-time heartbeats, at the END of the member order, and catches up.
func lcReattach(t *testing.T, fabric string, isMeta bool) {
	e := newLcEnv(t, fabric, isMeta, 3)
	victim := e.rec().members[2]
	e.detachByDeath(victim)
	e.put("while-away")

	e.restart(victim, false)
	// Two on-time beats are a streak of 2: below the gate (3), no re-attach.
	for n := 1; n <= 2; n++ {
		e.pump()
		if cur := e.rec(); slices.Contains(cur.members, victim) {
			t.Fatalf("re-attached after %d heartbeats, under the hysteresis gate: %v", n, cur.members)
		}
	}
	e.driveUntil("re-attach", func() bool {
		cur := e.rec()
		return len(cur.members) == 3 && len(cur.detached) == 0 && e.converged() && e.holds(victim, "while-away")
	})
	if cur := e.rec(); cur.members[2] != victim || cur.epoch < 3 {
		t.Fatalf("re-attached replica should rejoin at the END under a third epoch: members=%v epoch=%d", cur.members, cur.epoch)
	}
}

// lcWipedReattach: a replica that lost its disk between detach and
// re-attach is re-created by the reconfiguration push and refilled by the
// partition's leader, instead of wedging the re-attach.
func lcWipedReattach(t *testing.T, fabric string, isMeta bool) {
	e := newLcEnv(t, fabric, isMeta, 3)
	e.put("refill-me")
	victim := e.rec().members[2]
	e.detachByDeath(victim)
	e.restart(victim, true)
	e.driveUntil("re-attach and refill of the wiped replica", func() bool {
		cur := e.rec()
		return len(cur.members) == 3 && len(cur.detached) == 0 && e.converged() && e.holds(victim, "refill-me")
	})
}

// lcReplacement is the redundancy promise: a replica that stays dead past
// 2*NodeTimeout is replaced on a fresh node outside the partition's past
// and present membership (3 -> 2 -> 3 members), the newcomer is filled from
// empty, and after the original members are all gone - each replaced in
// turn while a spare exists - what was written before the first kill is
// served by a leader that is itself a replacement.
func lcReplacement(t *testing.T, fabric string, isMeta bool) {
	e := newLcEnv(t, fabric, isMeta, 5) // replica target 3, two spares
	orig := e.rec()
	if len(orig.members) != 3 {
		t.Fatalf("fresh partition: members=%v", orig.members)
	}
	e.put("before-the-kills")

	everMember := slices.Clone(orig.members)
	for round, victim := range []string{orig.members[2], orig.members[0]} {
		before := e.rec()
		e.kill(victim)
		e.driveUntil("replacement of "+victim, func() bool {
			cur := e.rec()
			return len(cur.members) == 3 && len(cur.detached) == 0 && !slices.Contains(cur.members, victim)
		})
		cur := e.rec()
		fresh := cur.members[2]
		if slices.Contains(everMember, fresh) {
			t.Fatalf("round %d: replacement %s was a member before (%v)", round, fresh, everMember)
		}
		if !slices.Equal(cur.members[:2], without(before.members, victim)) || cur.epoch < before.epoch+2 {
			t.Fatalf("round %d: members=%v epoch=%d, want survivors of %v in order + newcomer, two epochs on from %d",
				round, cur.members, cur.epoch, before.members, before.epoch)
		}
		everMember = append(everMember, fresh)
		e.driveUntil("refill of "+fresh, func() bool {
			return e.converged() && e.holds(fresh, "before-the-kills")
		})
	}

	// Both spares are in; the last original member dies and leaves the
	// partition to the two replacements.
	e.detachByDeath(orig.members[1])
	cur := e.rec()
	if len(cur.members) != 2 || slices.ContainsFunc(cur.members, func(a string) bool { return slices.Contains(orig.members, a) }) {
		t.Fatalf("members=%v, want only the two replacements (original set %v)", cur.members, orig.members)
	}
	e.driveUntil("pre-kill item served by a replacement leader", func() bool {
		return e.served("before-the-kills")
	})
	e.put("after-the-kills")
}

// lcRevive: losing the LAST member marks the partition unavailable with the
// member left in place; when it returns with its state intact the scan
// flips the partition read-write again.
func lcRevive(t *testing.T, fabric string, isMeta bool) {
	e := newLcEnv(t, fabric, isMeta, 1)
	orig := e.rec()
	if len(orig.members) != 1 {
		t.Fatalf("want a single-replica partition, got %v", orig.members)
	}
	e.put("before")
	e.kill(orig.members[0])
	e.driveUntil("unavailable after losing the only replica", func() bool {
		return e.rec().status == proto.PartitionUnavailable
	})
	if cur := e.rec(); !slices.Equal(cur.members, orig.members) || cur.epoch != orig.epoch {
		t.Fatalf("the last member must stay in place: members=%v epoch=%d", cur.members, cur.epoch)
	}
	e.restart(orig.members[0], false)
	e.driveUntil("revival", func() bool {
		return e.rec().status == proto.PartitionReadWrite && e.converged() && e.served("before")
	})
	e.put("back-from-the-dead")
}

// TestMismatchedBodyRefused: op and body arrive independently (the
// transport decodes whatever registered type the peer sent), so a server
// must refuse a body that is not its op's type - not assert on it. Before
// the check one such frame killed the whole process.
func TestMismatchedBodyRefused(t *testing.T) {
	for _, fabric := range []string{"memory", "tcp"} {
		t.Run(fabric, func(t *testing.T) {
			e := newRcEnv(t, fabric, 1, 1)
			pid := e.metaPartition().PartitionID
			refused := func(addr string, op proto.Op, body any) {
				t.Helper()
				err := e.nw.Call(addr, uint8(op), body, nil)
				if !errors.Is(err, util.ErrInvalidArgument) {
					t.Fatalf("%s with a %T body: %v, want ErrInvalidArgument", op, body, err)
				}
			}
			for _, op := range []proto.Op{
				proto.OpMasterRegisterNode, proto.OpMasterHeartbeat, proto.OpMasterCreateVolume,
				proto.OpMasterGetVolume, proto.OpMasterReportFailure,
			} {
				refused(e.m.Addr(), op, &proto.LookupReq{})
			}
			for _, op := range []proto.Op{
				proto.OpMetaCreateInode, proto.OpMetaUnlinkInode, proto.OpMetaEvictInode, proto.OpMetaLinkInode,
				proto.OpMetaCreateDentry, proto.OpMetaDeleteDentry, proto.OpMetaUpdateDentry, proto.OpMetaSetAttr,
				proto.OpMetaAppendExtentKeys, proto.OpMetaSplitPartition, proto.OpMetaLookup,
				proto.OpMetaBatchInodeGet, proto.OpMetaReadDir,
			} {
				refused(e.metaAddrs[0], op, &proto.InodeGetReq{PartitionID: pid})
			}
			refused(e.metaAddrs[0], proto.OpMetaInodeGet, &proto.LookupReq{PartitionID: pid})

			// Both servers are still there and still answer a well-formed call.
			e.view()
			var ino proto.InodeGetResp
			if err := e.nw.Call(e.metaAddrs[0], uint8(proto.OpMetaInodeGet),
				&proto.InodeGetReq{PartitionID: pid, Inode: proto.RootInodeID}, &ino); err != nil {
				t.Fatalf("well-formed call after the refusals: %v", err)
			}
		})
	}
}
