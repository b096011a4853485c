package meta

import (
	"errors"
	"reflect"
	"testing"

	"cfs/internal/proto"
	"cfs/internal/util"
)

// mutations has one request per mutation op, each filling the fields its
// apply reads.
var mutations = []struct {
	op  proto.Op
	req any
}{
	{proto.OpMetaCreateInode, &proto.CreateInodeReq{PartitionID: 1, Type: proto.TypeSymlink, LinkTarget: []byte("../target")}},
	{proto.OpMetaUnlinkInode, &proto.UnlinkInodeReq{PartitionID: 1, Inode: fixtureFile}},
	{proto.OpMetaEvictInode, &proto.EvictInodeReq{PartitionID: 1, Inode: 1<<63 + 5}},
	{proto.OpMetaLinkInode, &proto.LinkInodeReq{PartitionID: 1, Inode: fixtureFile}},
	{proto.OpMetaCreateDentry, &proto.CreateDentryReq{PartitionID: 1, ParentID: 1, Name: "fichier-é", Inode: 9, Type: proto.TypeFile}},
	{proto.OpMetaDeleteDentry, &proto.DeleteDentryReq{PartitionID: 1, ParentID: 1, Name: "d"}},
	{proto.OpMetaUpdateDentry, &proto.UpdateDentryReq{PartitionID: 1, ParentID: 1, Name: "f", Inode: fixtureDir}},
	{proto.OpMetaSetAttr, &proto.SetAttrReq{PartitionID: 1, Inode: fixtureFile, Valid: proto.AttrSize | proto.AttrModifyTime, Size: 4096, ModifyTime: -1}},
	{proto.OpMetaAppendExtentKeys, &proto.AppendExtentKeysReq{PartitionID: 1, Inode: fixtureFile, Size: 1 << 40, Extents: []proto.ExtentKey{
		{PartitionID: 4, ExtentID: 1025, ExtentOffset: 128 << 10, FileOffset: 0, Size: 4096, CRC: 0xdeadbeef},
		{PartitionID: 5, ExtentID: 2, ExtentOffset: 0, FileOffset: 4096, Size: 1, CRC: 1},
	}}},
	{proto.OpMetaSplitPartition, &proto.SplitMetaPartitionReq{PartitionID: 1, End: ^uint64(0)}},
}

func mustEntry(t testing.TB, op proto.Op, req any) []byte {
	t.Helper()
	entry, err := newEntry(op, req)
	if err != nil {
		t.Fatal(err)
	}
	return entry
}

// TestApplyIsDeterministic applies one log to two fresh partitions: every
// time an apply stamps is the one the entry carries, so both hold the same
// inodes, field for field.
func TestApplyIsDeterministic(t *testing.T) {
	var log [][]byte
	add := func(op proto.Op, req any) { log = append(log, mustEntry(t, op, req)) }
	add(proto.OpMetaCreateInode, &proto.CreateInodeReq{Type: proto.TypeDir})
	add(proto.OpMetaCreateInode, &proto.CreateInodeReq{Type: proto.TypeFile})
	add(proto.OpMetaCreateInode, &proto.CreateInodeReq{Type: proto.TypeFile})
	add(proto.OpMetaCreateDentry, &proto.CreateDentryReq{ParentID: 1, Name: "a", Inode: 2, Type: proto.TypeFile})
	add(proto.OpMetaCreateDentry, &proto.CreateDentryReq{ParentID: 1, Name: "b", Inode: 3, Type: proto.TypeFile})
	add(proto.OpMetaLinkInode, &proto.LinkInodeReq{Inode: 2})
	add(proto.OpMetaAppendExtentKeys, &proto.AppendExtentKeysReq{Inode: 2, Size: 100,
		Extents: []proto.ExtentKey{{PartitionID: 1, ExtentID: 7, Size: 100}}})
	add(proto.OpMetaSetAttr, &proto.SetAttrReq{Inode: 3, Valid: proto.AttrSize})
	add(proto.OpMetaDeleteDentry, &proto.DeleteDentryReq{ParentID: 1, Name: "b"})
	add(proto.OpMetaUnlinkInode, &proto.UnlinkInodeReq{Inode: 3})
	var replicas [2]*Partition
	for i := range replicas {
		replicas[i] = NewPartition(1, "vol", 1, 1000, nil)
		for j, entry := range log {
			if _, err := replicas[i].Apply(uint64(j+1), entry); err != nil {
				t.Fatalf("replica %d, entry %d: %v", i, j+1, err)
			}
		}
	}
	if a, b := replicas[0].BatchAllInodes(), replicas[1].BatchAllInodes(); !reflect.DeepEqual(a, b) {
		t.Fatal("two replicas of one log hold different inodes")
	}
}

// TestApplyRefusesMalformedEntries: an entry that is not a mutation's
// request is refused with ErrInvalidArgument and changes nothing, the
// applied index included.
func TestApplyRefusesMalformedEntries(t *testing.T) {
	p := cloneFixture(t)
	if _, err := p.Apply(1, mustEntry(t, proto.OpMetaCreateInode, &proto.CreateInodeReq{PartitionID: 1})); err != nil {
		t.Fatal(err)
	}
	full := mustEntry(t, mutations[8].op, mutations[8].req) // the one with extents
	unknown := append([]byte{byte(proto.OpMetaSnapshot + 1)}, full[1:]...)
	for _, c := range []struct {
		name  string
		entry []byte
	}{
		{"empty", nil},
		{"unknown op", unknown},
		{"a read op's body", mustEntry(t, proto.OpMetaLookup, &proto.LookupReq{PartitionID: 1, ParentID: 1, Name: "f"})},
		{"truncated body", full[:len(full)-1]},
		{"trailing byte", append(append([]byte(nil), full...), 0)},
	} {
		inodes, dentries, applied := p.InodeCount(), p.DentryCount(), p.applied
		if out, err := p.Apply(2, c.entry); !errors.Is(err, util.ErrInvalidArgument) {
			t.Fatalf("%s: applied as %+v, %v", c.name, out, err)
		}
		if p.InodeCount() != inodes || p.DentryCount() != dentries || p.applied != applied {
			t.Fatalf("%s: %d inodes, %d dentries, applied %d; want %d, %d, %d", c.name,
				p.InodeCount(), p.DentryCount(), p.applied, inodes, dentries, applied)
		}
	}
}

// BenchmarkEntryCodec encodes and decodes one create-dentry entry, the
// work one metadata mutation adds per replica to its Raft entry.
func BenchmarkEntryCodec(b *testing.B) {
	req := mutations[4].req
	b.ReportAllocs()
	var n int
	for i := 0; i < b.N; i++ {
		entry, err := newEntry(proto.OpMetaCreateDentry, req)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := proto.DecodeMetaRequest(proto.OpMetaCreateDentry, entry[entryHeader:]); err != nil {
			b.Fatal(err)
		}
		n = len(entry)
	}
	b.ReportMetric(float64(n), "entry_bytes")
}

// FuzzApplyEntry: no input makes Apply panic, and one that is not a
// mutation's request - too short for the header, a body that does not
// decode, or a read op's - is refused with ErrInvalidArgument.
func FuzzApplyEntry(f *testing.F) {
	isMutation := map[proto.Op]bool{}
	for _, m := range mutations {
		isMutation[m.op] = true
		f.Add(mustEntry(f, m.op, m.req))
	}
	f.Add(mustEntry(f, proto.OpMetaLookup, &proto.LookupReq{PartitionID: 1, ParentID: 1, Name: "f"}))
	f.Fuzz(func(t *testing.T, entry []byte) {
		p := cloneFixture(t)
		_, err := p.Apply(1, entry)
		valid := len(entry) >= entryHeader && isMutation[proto.Op(entry[0])]
		if valid {
			_, derr := proto.DecodeMetaRequest(proto.Op(entry[0]), entry[entryHeader:])
			valid = derr == nil
		}
		if !valid && !errors.Is(err, util.ErrInvalidArgument) {
			t.Fatalf("%x: not an entry, applied with %v", entry, err)
		}
	})
}
