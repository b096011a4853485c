package meta

import (
	"reflect"
	"testing"

	"cfs/internal/proto"
)

// TestLookupCarriesInodeFromItsLeader: a Lookup answered by the leader of
// the found inode's partition carries the inode, whether that partition is
// the dentry's own or another one the same node leads. A node that hosts
// the inode's partition only as a follower, or not at all, or only for
// another volume, carries nothing, and neither does one whose inode is
// delete-marked. The dentry itself is answered the same either way.
func TestLookupCarriesInodeFromItsLeader(t *testing.T) {
	mc := startMetaCluster(t, 3)
	mn0, mn1, mn2 := mc.addrs[0], mc.addrs[1], mc.addrs[2]
	// host creates partition pid with members on the nodes in on, or on
	// every member when on is empty.
	host := func(pid uint64, volume string, start, end uint64, members []string, on ...string) {
		t.Helper()
		req := &proto.CreateMetaPartitionReq{PartitionID: pid, Volume: volume, Start: start, End: end, Members: members}
		if len(on) == 0 {
			on = members
		}
		for _, addr := range on {
			if err := mc.nw.Call(addr, uint8(proto.OpAdminCreateMetaPartition), req, &proto.CreateMetaPartitionResp{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A one-member partition runs without a Raft group, so its node leads
	// it from the start: no election decides these.
	only := func(addr string) []string { return []string{addr} }
	host(1, "vol", 1, 1000, only(mn0))      // the dentries, and the same-partition inode
	host(2, "vol", 1001, 2000, only(mn0))   // another partition mn0 leads
	host(3, "vol", 2001, 3000, only(mn1))   // a partition mn0 does not host
	host(5, "other", 2001, 3000, only(mn0)) // the same ids, another volume
	// A replicated partition mn0 only follows: mn1 and mn2 elect its
	// leader before mn0 hosts it, and a replica that joins with an empty
	// log cannot win a vote.
	replicated := []string{mn1, mn2, mn0}
	host(4, "vol", 3001, 4000, replicated, mn1, mn2)
	leader4 := mc.waitLeader(t, 4)
	host(4, "vol", 3001, 4000, replicated, mn0)
	if mc.nodes[0].IsLeader(4) {
		t.Fatal("mn0 leads partition 4; the case needs it to follow")
	}

	dir := mc.createInode(t, mn0, 1, proto.TypeDir)
	inodes := map[string]*proto.Inode{
		"same":     mc.createInode(t, mn0, 1, proto.TypeFile),
		"coled":    mc.createInode(t, mn0, 2, proto.TypeFile),
		"remote":   mc.createInode(t, mn1, 3, proto.TypeFile),
		"followed": mc.createInode(t, leader4, 4, proto.TypeFile),
		"gone":     mc.createInode(t, mn0, 2, proto.TypeFile),
	}
	mc.createInode(t, mn0, 5, proto.TypeFile) // "remote"'s id, in volume "other"
	if err := mc.nw.Call(mn0, uint8(proto.OpMetaUnlinkInode),
		&proto.UnlinkInodeReq{PartitionID: 2, Inode: inodes["gone"].Inode}, &proto.UnlinkInodeResp{}); err != nil {
		t.Fatal(err)
	}
	for name, ino := range inodes {
		if err := mc.nw.Call(mn0, uint8(proto.OpMetaCreateDentry), &proto.CreateDentryReq{
			PartitionID: 1, ParentID: dir.Inode, Name: name, Inode: ino.Inode, Type: proto.TypeFile,
		}, &proto.CreateDentryResp{}); err != nil {
			t.Fatal(err)
		}
	}

	// The partition each carried inode is read from; the rest carry nothing.
	carriedFrom := map[string]uint64{"same": 1, "coled": 2}
	for name, ino := range inodes {
		var resp proto.LookupResp
		if err := mc.nw.Call(mn0, uint8(proto.OpMetaLookup),
			&proto.LookupReq{PartitionID: 1, ParentID: dir.Inode, Name: name}, &resp); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if resp.Inode != ino.Inode || resp.Type != proto.TypeFile {
			t.Fatalf("%s: dentry %d/%d, want %d/%d", name, resp.Inode, resp.Type, ino.Inode, proto.TypeFile)
		}
		pid, carried := carriedFrom[name]
		if !carried {
			if resp.Info != nil {
				t.Fatalf("%s: carried %+v, want nothing", name, resp.Info)
			}
			continue
		}
		var want proto.InodeGetResp
		if err := mc.nw.Call(mn0, uint8(proto.OpMetaInodeGet),
			&proto.InodeGetReq{PartitionID: pid, Inode: ino.Inode}, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(resp.Info, want.Info) {
			t.Fatalf("%s: carried %+v, InodeGet answers %+v", name, resp.Info, want.Info)
		}
	}
}
