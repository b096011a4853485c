package proto

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"cfs/internal/util"
)

// metaOps lists every op with a binary layout.
func metaOps() []Op {
	var ops []Op
	for op := range Op(len(metaLayouts)) {
		if HasMetaLayout(op) {
			ops = append(ops, op)
		}
	}
	return ops
}

// decodeMetaBody decodes data as op's request or reply through the
// exported entry points, the way the two ends of a connection do.
func decodeMetaBody(op Op, reply bool, data []byte) (any, error) {
	if !reply {
		return DecodeMetaRequest(op, data)
	}
	resp := metaLayouts[op].zero(true)
	return resp, DecodeMetaReply(op, data, resp)
}

// nilEmpty sets every empty slice reachable from v to nil: the layout
// carries a count, not nil-ness, and an empty slice decodes as nil.
func nilEmpty(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			nilEmpty(v.Elem())
		}
	case reflect.Struct:
		for i := range v.NumField() {
			nilEmpty(v.Field(i))
		}
	case reflect.Slice:
		if v.Len() == 0 {
			v.Set(reflect.Zero(v.Type()))
		}
		for i := range v.Len() {
			nilEmpty(v.Index(i))
		}
	}
}

// randomMetaBody is a random request or reply of op.
func randomMetaBody(t testing.TB, op Op, reply bool, rng *rand.Rand) any {
	typ := reflect.TypeOf(metaLayouts[op].zero(reply)).Elem()
	v, ok := quick.Value(typ, rng)
	if !ok {
		t.Fatalf("cannot generate %v", typ)
	}
	body := reflect.New(typ)
	body.Elem().Set(v)
	return body.Interface()
}

func checkMetaRoundTrip(t *testing.T, op Op, reply bool, body any) {
	t.Helper()
	data, ok := AppendMeta(nil, op, reply, body)
	if !ok {
		t.Fatalf("%v reply=%v: %T has no layout", op, reply, body)
	}
	got, err := decodeMetaBody(op, reply, data)
	if err != nil {
		t.Fatalf("%v reply=%v: %v", op, reply, err)
	}
	nilEmpty(reflect.ValueOf(body))
	if !reflect.DeepEqual(got, body) {
		t.Fatalf("%v reply=%v: decoded %+v, want %+v", op, reply, got, body)
	}
}

// TestMetaRoundTripProperty: random requests and replies of every op with
// a layout (nil and set *Inode pointers, empty and full slices, negative
// times, arbitrary strings) decode to what was encoded.
func TestMetaRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ops := metaOps()
	if len(ops) != 15 {
		t.Fatalf("%d ops have a layout, want the 13 client metadata RPCs, the split and the snapshot", len(ops))
	}
	for _, op := range ops {
		for _, reply := range []bool{false, true} {
			for range 100 {
				checkMetaRoundTrip(t, op, reply, randomMetaBody(t, op, reply, rng))
			}
		}
	}
}

// TestMetaRoundTripEdges: the bodies a random generator rarely makes.
func TestMetaRoundTripEdges(t *testing.T) {
	extremes := ExtentKey{PartitionID: math.MaxUint64, ExtentID: 1 << 63, ExtentOffset: 0,
		FileOffset: math.MaxUint64 - 1, Size: math.MaxUint32, CRC: 0xdeadbeef}
	symlink := &Inode{Inode: 77, Type: TypeSymlink, LinkTarget: []byte("../../a/b"), NLink: 1,
		CreateTime: math.MinInt64, ModifyTime: -1}
	inodes := make([]uint64, 100_000)
	infos := make([]*Inode, 2000)
	for i := range inodes {
		inodes[i] = uint64(i) << (i % 64)
	}
	for i := range infos {
		if i%7 != 3 { // a nil element now and then
			infos[i] = &Inode{Inode: uint64(i), Size: uint64(i) * 4096, Extents: []ExtentKey{extremes}}
		}
	}
	children := make([]Dentry, 10_000)
	for i := range children {
		children[i] = Dentry{ParentID: 1, Name: string(rune('a'+i%26)) + "é", Inode: uint64(i), Type: uint32(i % 3)}
	}
	keys := make([]ExtentKey, 4096)
	for i := range keys {
		keys[i] = extremes
		keys[i].FileOffset = uint64(i) * 4096
	}
	for _, c := range []struct {
		op    Op
		reply bool
		body  any
	}{
		{OpMetaInodeGet, true, &InodeGetResp{}},
		{OpMetaCreateInode, true, &CreateInodeResp{}},
		{OpMetaUnlinkInode, true, &UnlinkInodeResp{}},
		{OpMetaLinkInode, true, &LinkInodeResp{}},
		{OpMetaCreateInode, false, &CreateInodeReq{PartitionID: 3, Type: TypeSymlink, LinkTarget: []byte("../../a/b")}},
		{OpMetaCreateInode, true, &CreateInodeResp{Info: symlink}},
		{OpMetaInodeGet, true, &InodeGetResp{Info: &Inode{Inode: 1, LinkTarget: []byte{}, Extents: []ExtentKey{}}}},
		{OpMetaBatchInodeGet, false, &BatchInodeGetReq{PartitionID: 1, Inodes: []uint64{}}},
		{OpMetaBatchInodeGet, false, &BatchInodeGetReq{PartitionID: 1, Inodes: inodes}},
		{OpMetaBatchInodeGet, true, &BatchInodeGetResp{Infos: []*Inode{}}},
		{OpMetaBatchInodeGet, true, &BatchInodeGetResp{Infos: infos}},
		{OpMetaReadDir, true, &ReadDirResp{}},
		{OpMetaReadDir, true, &ReadDirResp{Children: children}},
		{OpMetaAppendExtentKeys, false, &AppendExtentKeysReq{PartitionID: 2, Inode: 9, Extents: keys, Size: math.MaxUint64}},
		{OpMetaSetAttr, false, &SetAttrReq{PartitionID: 1, Inode: 2, Valid: AttrSize | AttrModifyTime, Size: 1 << 40, ModifyTime: math.MinInt64}},
		{OpMetaLookup, false, &LookupReq{PartitionID: 1, ParentID: 1, Name: ""}},
		{OpMetaLookup, true, lookupNotCarried},
		{OpMetaLookup, true, lookupCarried()},
		{OpMetaEvictInode, true, &EvictInodeResp{}},
	} {
		checkMetaRoundTrip(t, c.op, c.reply, c.body)
	}
}

// The two shapes of a Lookup reply: the dentry alone, and the dentry with
// the inode it names, extents included, as the leader of the inode's
// partition answers.
var lookupNotCarried = &LookupResp{Inode: 9, Type: TypeFile}

func lookupCarried() *LookupResp {
	return &LookupResp{Inode: 9, Type: TypeFile, Info: &Inode{
		Inode: 9, Type: TypeFile, NLink: 1, Size: 1 << 20, Gen: 3, CreateTime: 1, ModifyTime: 2,
		Extents: []ExtentKey{
			{PartitionID: 4, ExtentID: 17, Size: 1 << 19, CRC: 0xabc},
			{PartitionID: 5, ExtentID: 2, ExtentOffset: 4096, FileOffset: 1 << 19, Size: 1 << 19},
		},
	}}
}

// TestAppendMetaRefusesOtherBodies: a body that is not its op's request or
// reply, or an op without a layout, is left to gob.
func TestAppendMetaRefusesOtherBodies(t *testing.T) {
	buf := []byte("hdr")
	for _, c := range []struct {
		op    Op
		reply bool
		body  any
	}{
		{OpMetaLookup, false, &InodeGetReq{}},       // another op's request
		{OpMetaLookup, true, &LookupReq{}},          // the request where the reply goes
		{OpMetaLookup, false, LookupReq{}},          // not a pointer
		{OpMetaLookup, false, (*LookupReq)(nil)},    // a nil pointer
		{OpMasterGetVolume, false, &GetVolumeReq{}}, // control plane
		{OpRaftMessage, false, &LookupReq{}},
	} {
		if out, ok := AppendMeta(buf, c.op, c.reply, c.body); ok || !bytes.Equal(out, buf) {
			t.Fatalf("%v reply=%v %T: encoded %q", c.op, c.reply, c.body, out)
		}
	}
	if err := DecodeMetaReply(OpMetaLookup, []byte{1, 1}, &InodeGetResp{}); !errors.Is(err, util.ErrInvalidArgument) {
		t.Fatalf("reply into another op's type: %v", err)
	}
	if _, err := DecodeMetaRequest(OpMasterGetVolume, nil); !errors.Is(err, util.ErrInvalidArgument) {
		t.Fatalf("request of an op without a layout: %v", err)
	}
}

func TestDecodeMetaRejectsMalformed(t *testing.T) {
	full, _ := AppendMeta(nil, OpMetaAppendExtentKeys, false, &AppendExtentKeysReq{
		PartitionID: 1, Inode: 2, Extents: []ExtentKey{{PartitionID: 3, Size: 4096}}, Size: 4096})
	overflow := bytes.Repeat([]byte{0xff}, 10)
	for _, c := range []struct {
		name  string
		op    Op
		reply bool
		data  []byte
	}{
		{"empty", OpMetaLookup, false, nil},
		{"truncated", OpMetaAppendExtentKeys, false, full[:len(full)-1]},
		{"trailing byte", OpMetaAppendExtentKeys, false, append(append([]byte(nil), full...), 0)},
		{"trailing byte on an empty reply", OpMetaSetAttr, true, []byte{0}},
		{"uvarint not shortest", OpMetaLookup, true, []byte{0x81, 0x00, 0x00}},
		{"uvarint overflows", OpMetaDeleteDentry, true, overflow},
		{"uint32 field overflows", OpMetaLookup, true, binary.AppendUvarint([]byte{1}, 1<<32)},
		{"presence flag 2", OpMetaInodeGet, true, []byte{2}},
		{"count past the end", OpMetaBatchInodeGet, false, binary.AppendUvarint([]byte{1}, 1<<40)},
		{"name past the end", OpMetaLookup, false, []byte{1, 1, 5, 'a'}},
		{"extents past the end", OpMetaAppendExtentKeys, false, []byte{1, 2, 2, 0, 0, 0, 0, 0, 0}},
	} {
		if v, err := decodeMetaBody(c.op, c.reply, c.data); !errors.Is(err, util.ErrInvalidArgument) {
			t.Fatalf("%s: decoded %+v, %v", c.name, v, err)
		}
	}
}

type metaSeed struct {
	op    Op
	reply bool
	data  []byte
}

// metaSeeds is one random body per op and direction, for the fuzzer.
func metaSeeds(t testing.TB) []metaSeed {
	rng := rand.New(rand.NewSource(2))
	var out []metaSeed
	for _, op := range metaOps() {
		for _, reply := range []bool{false, true} {
			data, _ := AppendMeta(nil, op, reply, randomMetaBody(t, op, reply, rng))
			out = append(out, metaSeed{op, reply, data})
		}
	}
	return out
}

// FuzzDecodeMetaBody: any input either fails to decode or decodes to a
// body that re-encodes to exactly the input; nothing panics.
func FuzzDecodeMetaBody(f *testing.F) {
	for _, s := range metaSeeds(f) {
		f.Add(uint8(s.op), s.reply, s.data)
	}
	for _, resp := range []*LookupResp{lookupNotCarried, lookupCarried()} {
		data, _ := AppendMeta(nil, OpMetaLookup, true, resp)
		f.Add(uint8(OpMetaLookup), true, data)
	}
	f.Fuzz(func(t *testing.T, op uint8, reply bool, data []byte) {
		if !HasMetaLayout(Op(op)) {
			return
		}
		body, err := decodeMetaBody(Op(op), reply, data)
		if err != nil {
			return
		}
		again, ok := AppendMeta(nil, Op(op), reply, body)
		if !ok || !bytes.Equal(again, data) {
			t.Fatalf("%v reply=%v: %x decoded to %+v, which encodes to %x", Op(op), reply, data, body, again)
		}
	})
}

// BenchmarkMetaCodec encodes and decodes one InodeGet reply (an inode with
// two extent keys, what a cold stat reads) in the binary layout and on a
// warm gob stream, the way the TCP transport carried it before.
func BenchmarkMetaCodec(b *testing.B) {
	resp := &InodeGetResp{Info: &Inode{
		Inode: 1 << 24, Type: TypeFile, NLink: 1, Size: 8192, Gen: 2,
		CreateTime: 1_760_000_000_000_000_000, ModifyTime: 1_760_000_000_000_000_000,
		Extents: []ExtentKey{
			{PartitionID: 7, ExtentID: 1025, Size: 4096, CRC: 0xdeadbeef},
			{PartitionID: 7, ExtentID: 1026, FileOffset: 4096, Size: 4096, CRC: 0xfeedface},
		},
	}}
	b.Run("binary", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for range b.N {
			buf, _ = AppendMeta(buf[:0], OpMetaInodeGet, true, resp)
			var out InodeGetResp
			if err := DecodeMetaReply(OpMetaInodeGet, buf, &out); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(buf)), "body_bytes")
	})
	b.Run("gob", func(b *testing.B) {
		RegisterGob()
		var buf bytes.Buffer
		enc, dec := gob.NewEncoder(&buf), gob.NewDecoder(&buf)
		var v any = resp
		if err := enc.Encode(&v); err != nil { // the type descriptors, once
			b.Fatal(err)
		}
		var out any
		if err := dec.Decode(&out); err != nil {
			b.Fatal(err)
		}
		n := 0
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			if err := enc.Encode(&v); err != nil {
				b.Fatal(err)
			}
			n = buf.Len()
			if err := dec.Decode(&out); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(n), "body_bytes")
	})
}
