package meta

import (
	"errors"
	"reflect"
	"testing"

	"cfs/internal/proto"
	"cfs/internal/util"
)

// commandTable has one command per kind, each filling the fields its
// handler sends.
var commandTable = []*command{
	{Kind: cmdCreateInode, Type: proto.TypeSymlink, LinkTarget: []byte("../target")},
	{Kind: cmdUnlinkInode, Inode: 42},
	{Kind: cmdEvictInode, Inode: 1<<63 + 5},
	{Kind: cmdLinkInode, Inode: 7},
	{Kind: cmdCreateDentry, ParentID: 1, Name: "fichier-é", Inode: 9, DentryType: proto.TypeFile},
	{Kind: cmdDeleteDentry, ParentID: 1, Name: "gone"},
	{Kind: cmdUpdateDentry, ParentID: 3, Name: "renamed", Inode: 11},
	{Kind: cmdSetAttr, Inode: 9, Valid: proto.AttrSize | proto.AttrModifyTime, Size: 4096, ModifyTime: -1},
	{Kind: cmdAppendExtentKeys, Inode: 9, Size: 1 << 40, Extents: []proto.ExtentKey{
		{PartitionID: 4, ExtentID: 1025, ExtentOffset: 128 << 10, FileOffset: 0, Size: 4096, CRC: 0xdeadbeef},
		{PartitionID: 5, ExtentID: 2, ExtentOffset: 0, FileOffset: 4096, Size: 1, CRC: 1},
	}},
	{Kind: cmdSplit, End: ^uint64(0)},
}

func TestCommandRoundTrip(t *testing.T) {
	seen := map[cmdKind]bool{}
	for _, c := range commandTable {
		got, err := decodeCommand(encodeCommand(c))
		if err != nil {
			t.Fatalf("kind %d: %v", c.Kind, err)
		}
		if !reflect.DeepEqual(got, c) {
			t.Fatalf("kind %d: decoded %+v, want %+v", c.Kind, got, c)
		}
		seen[c.Kind] = true
	}
	for k := cmdCreateInode; k <= cmdSplit; k++ {
		if !seen[k] {
			t.Fatalf("kind %d has no row", k)
		}
	}
}

func TestDecodeCommandRejectsMalformed(t *testing.T) {
	full := encodeCommand(commandTable[8]) // the one with extents
	unknown := encodeCommand(&command{Kind: cmdSplit + 1})
	huge := encodeCommand(&command{Kind: cmdCreateDentry, Name: "x"})
	huge[cmdFixedSize] = 0xff // name length far past the end
	for name, data := range map[string][]byte{
		"empty":          nil,
		"truncated":      full[:len(full)-1],
		"fixed only":     full[:cmdFixedSize],
		"trailing bytes": append(append([]byte(nil), full...), 0),
		"oversized name": huge,
		"unknown kind":   unknown,
		"zero kind":      encodeCommand(&command{}),
	} {
		if c, err := decodeCommand(data); !errors.Is(err, util.ErrInvalidArgument) {
			t.Fatalf("%s: decoded %+v, %v", name, c, err)
		}
	}
}

// BenchmarkCommandCodec encodes and decodes one create-dentry command, the
// work one metadata mutation adds per replica to its Raft entry.
func BenchmarkCommandCodec(b *testing.B) {
	c := commandTable[4]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data := encodeCommand(c)
		if _, err := decodeCommand(data); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
	}
}

// FuzzDecodeCommand: any input either fails to decode or decodes to a
// command that re-encodes to exactly the input.
func FuzzDecodeCommand(f *testing.F) {
	for _, c := range commandTable {
		f.Add(encodeCommand(c))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := decodeCommand(data)
		if err != nil {
			return
		}
		if again := encodeCommand(c); !reflect.DeepEqual(again, data) {
			t.Fatalf("%x decoded to %+v, which encodes to %x", data, c, again)
		}
	})
}
