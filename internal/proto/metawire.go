package proto

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"cfs/internal/util"
)

// The metadata RPC layout. On TCP the request and the reply of every op in
// metaLayouts cross as one frame body in this layout instead of gob (the
// transport picks it by op on both ends). Every integer is a uvarint in its
// shortest form, an int64 zigzag-encoded first (as binary.AppendVarint
// does); every string and []byte is a uvarint length and its bytes, every
// slice a uvarint count and its elements, and every *Inode a presence
// uvarint (0 nil, 1 set) followed by the inode when set. Fields go in
// struct declaration order, so the shared records are:
//
//	Inode:      Inode Type LinkTarget NLink Flag Size Gen CreateTime ModifyTime Extents
//	ExtentKey:  PartitionID ExtentID ExtentOffset FileOffset Size CRC
//	Dentry:     ParentID Name Inode Type
//
// A reply with no fields is an empty body, and an empty slice decodes as
// nil, as with gob. A decode refuses a read past the end, a leftover byte,
// a uvarint longer than it needs to be, a uint32 field above 32 bits and a
// length or count the rest of the input cannot hold, so whatever decodes
// re-encodes to the same bytes.

// metaBody is a request or reply with a binary layout: wire walks its
// fields in layout order, writing or reading them as the codec says, so
// the encoder and the reader of a type are one method.
type metaBody interface{ wire(c *metaCodec) }

// metaLayout is one op's request and reply.
type metaLayout struct {
	// as returns v as the op's reply (reply set) or request.
	as func(v any, reply bool) (metaBody, bool)
	// zero returns a fresh reply (reply set) or request.
	zero func(reply bool) metaBody
}

func layout[Req, Resp any, PReq interface {
	*Req
	metaBody
}, PResp interface {
	*Resp
	metaBody
}]() metaLayout {
	return metaLayout{
		as: func(v any, reply bool) (metaBody, bool) {
			if reply {
				b, ok := v.(PResp)
				return b, ok && b != nil
			}
			b, ok := v.(PReq)
			return b, ok && b != nil
		},
		zero: func(reply bool) metaBody {
			if reply {
				return PResp(new(Resp))
			}
			return PReq(new(Req))
		},
	}
}

// metaLayouts holds the ops that cross TCP in the binary layout: every
// metadata RPC a client issues and the master's split, which are also
// every meta mutation's Raft entry. Snapshot stays gob.
var metaLayouts = [...]metaLayout{
	OpMetaCreateInode:      layout[CreateInodeReq, CreateInodeResp](),
	OpMetaUnlinkInode:      layout[UnlinkInodeReq, UnlinkInodeResp](),
	OpMetaEvictInode:       layout[EvictInodeReq, EvictInodeResp](),
	OpMetaLinkInode:        layout[LinkInodeReq, LinkInodeResp](),
	OpMetaCreateDentry:     layout[CreateDentryReq, CreateDentryResp](),
	OpMetaDeleteDentry:     layout[DeleteDentryReq, DeleteDentryResp](),
	OpMetaUpdateDentry:     layout[UpdateDentryReq, UpdateDentryResp](),
	OpMetaLookup:           layout[LookupReq, LookupResp](),
	OpMetaInodeGet:         layout[InodeGetReq, InodeGetResp](),
	OpMetaBatchInodeGet:    layout[BatchInodeGetReq, BatchInodeGetResp](),
	OpMetaReadDir:          layout[ReadDirReq, ReadDirResp](),
	OpMetaSetAttr:          layout[SetAttrReq, SetAttrResp](),
	OpMetaAppendExtentKeys: layout[AppendExtentKeysReq, AppendExtentKeysResp](),
	OpMetaSplitPartition:   layout[SplitMetaPartitionReq, SplitMetaPartitionResp](),
}

func metaLayoutOf(op Op) *metaLayout {
	if int(op) >= len(metaLayouts) || metaLayouts[op].as == nil {
		return nil
	}
	return &metaLayouts[op]
}

// HasMetaLayout reports whether op's request and reply have the binary
// layout.
func HasMetaLayout(op Op) bool { return metaLayoutOf(op) != nil }

// AppendMeta appends v to buf in op's layout: as op's reply when reply is
// set, as its request otherwise. ok is false, and buf comes back as it
// was, when op has no layout or v is not that body.
func AppendMeta(buf []byte, op Op, reply bool, v any) (out []byte, ok bool) {
	l := metaLayoutOf(op)
	if l == nil {
		return buf, false
	}
	b, ok := l.as(v, reply)
	if !ok {
		return buf, false
	}
	c := getCodec(buf, false)
	defer putCodec(c)
	b.wire(c)
	return c.buf, true
}

// DecodeMetaRequest decodes op's request from data, which it must fill
// exactly. Strings and byte slices are copied out of data.
func DecodeMetaRequest(op Op, data []byte) (any, error) {
	l := metaLayoutOf(op)
	if l == nil {
		return nil, fmt.Errorf("proto: %w: %v has no binary layout", util.ErrInvalidArgument, op)
	}
	b := l.zero(false)
	if err := decodeMeta(data, b); err != nil {
		return nil, err
	}
	return b, nil
}

// DecodeMetaReply decodes op's reply from data, which it must fill
// exactly, into resp, a pointer to op's reply type. Every field of resp is
// overwritten; after an error their values are unspecified.
func DecodeMetaReply(op Op, data []byte, resp any) error {
	l := metaLayoutOf(op)
	if l == nil {
		return fmt.Errorf("proto: %w: %v has no binary layout", util.ErrInvalidArgument, op)
	}
	b, ok := l.as(resp, true)
	if !ok {
		return fmt.Errorf("proto: %w: %T is not the reply of %v", util.ErrInvalidArgument, resp, op)
	}
	return decodeMeta(data, b)
}

func decodeMeta(data []byte, b metaBody) error {
	c := getCodec(data, true)
	defer putCodec(c)
	b.wire(c)
	if c.err == nil && len(c.buf) > 0 {
		c.err = fmt.Errorf("%d trailing bytes", len(c.buf))
	}
	if c.err != nil {
		return fmt.Errorf("proto: %w: meta body: %v", util.ErrInvalidArgument, c.err)
	}
	return nil
}

// Minimum encoded sizes of a slice element, so a count read from the wire
// never allocates more than the input could fill.
const (
	minExtentKeyBytes = 6
	minDentryBytes    = 4
	minInodePtrBytes  = 1 // a nil *Inode
	minUvarintBytes   = 1
)

// metaCodec walks a body's fields in layout order: it appends them to buf
// when encoding and reads them from buf, the unread input, when decoding.
// A decode's first error sticks and empties buf, so every read after it
// yields zero and the caller checks once, at the end.
type metaCodec struct {
	buf []byte
	dec bool
	err error
}

// codecs recycles codecs: wire is an interface call, so the codec it is
// handed escapes, and a fresh one would cost an allocation per body.
var codecs = sync.Pool{New: func() any { return new(metaCodec) }}

func getCodec(buf []byte, dec bool) *metaCodec {
	c := codecs.Get().(*metaCodec)
	*c = metaCodec{buf: buf, dec: dec}
	return c
}

func putCodec(c *metaCodec) {
	*c = metaCodec{} // drop the caller's buffer
	codecs.Put(c)
}

var errShort = errors.New("truncated")

func (c *metaCodec) fail(err error) {
	c.err = cmp.Or(c.err, err)
	c.buf = nil
}

func (c *metaCodec) u64(v *uint64) {
	if !c.dec {
		c.buf = binary.AppendUvarint(c.buf, *v)
		return
	}
	x, n := binary.Uvarint(c.buf)
	switch {
	case n == 0:
		c.fail(errShort)
	case n < 0:
		c.fail(errors.New("uvarint overflows 64 bits"))
		x = 0
	case n > 1 && c.buf[n-1] == 0:
		c.fail(errors.New("uvarint longer than its shortest form"))
		x = 0
	default:
		c.buf = c.buf[n:]
	}
	*v = x
}

// The field walkers below write through their pointer only when decoding:
// an encode reads the body and nothing else, so a caller may encode one
// request from several goroutines.

func (c *metaCodec) u32(v *uint32) {
	x := uint64(*v)
	if c.u64(&x); !c.dec {
		return
	}
	if x > 1<<32-1 {
		c.fail(fmt.Errorf("%d overflows a 32-bit field", x))
		x = 0
	}
	*v = uint32(x)
}

// i64 zigzag-encodes, so small negative values stay short.
func (c *metaCodec) i64(v *int64) {
	x := uint64(*v<<1) ^ uint64(*v>>63)
	if c.u64(&x); c.dec {
		*v = int64(x>>1) ^ -int64(x&1)
	}
}

// flag is a uvarint that must be 0 or 1.
func (c *metaCodec) flag(v *bool) {
	var x uint64
	if *v {
		x = 1
	}
	if c.u64(&x); !c.dec {
		return
	}
	if x > 1 {
		c.fail(fmt.Errorf("flag %d", x))
		x = 0
	}
	*v = x == 1
}

// count carries a length or element count. A decode refuses one the rest
// of the input cannot hold at min bytes per element.
func (c *metaCodec) count(n, min int) int {
	x := uint64(n)
	c.u64(&x)
	if c.dec && x > uint64(len(c.buf)/min) {
		c.fail(fmt.Errorf("count %d exceeds the %d bytes left", x, len(c.buf)))
		return 0
	}
	return int(x)
}

// bytes decodes a copy of its input, nil when empty.
func (c *metaCodec) bytes(v *[]byte) {
	n := c.count(len(*v), 1)
	if !c.dec {
		c.buf = append(c.buf, *v...)
		return
	}
	*v = nil
	if n > 0 {
		*v = append([]byte(nil), c.buf[:n]...)
		c.buf = c.buf[n:]
	}
}

func (c *metaCodec) str(v *string) {
	n := c.count(len(*v), 1)
	if !c.dec {
		c.buf = append(c.buf, *v...)
		return
	}
	*v = string(c.buf[:n])
	c.buf = c.buf[n:]
}

func (c *metaCodec) inode(p **Inode) {
	set := *p != nil
	c.flag(&set)
	if c.dec {
		*p = nil
		if set {
			*p = new(Inode)
		}
	}
	if set {
		(*p).wire(c)
	}
}

// wireSlice carries a count and then each element.
func wireSlice[T any](c *metaCodec, s *[]T, min int, elem func(*T, *metaCodec)) {
	n := c.count(len(*s), min)
	if c.dec {
		*s = nil
		if n > 0 {
			*s = make([]T, n)
		}
	}
	for i := range *s {
		elem(&(*s)[i], c)
	}
}

func wireUvarint(v *uint64, c *metaCodec)  { c.u64(v) }
func wireInodePtr(p **Inode, c *metaCodec) { c.inode(p) }

// ---------------------------------------------------------------------------
// The shared records.

func (i *Inode) wire(c *metaCodec) {
	c.u64(&i.Inode)
	c.u32(&i.Type)
	c.bytes(&i.LinkTarget)
	c.u32(&i.NLink)
	c.u32(&i.Flag)
	c.u64(&i.Size)
	c.u64(&i.Gen)
	c.i64(&i.CreateTime)
	c.i64(&i.ModifyTime)
	wireSlice(c, &i.Extents, minExtentKeyBytes, (*ExtentKey).wire)
}

func (k *ExtentKey) wire(c *metaCodec) {
	c.u64(&k.PartitionID)
	c.u64(&k.ExtentID)
	c.u64(&k.ExtentOffset)
	c.u64(&k.FileOffset)
	c.u32(&k.Size)
	c.u32(&k.CRC)
}

func (d *Dentry) wire(c *metaCodec) {
	c.u64(&d.ParentID)
	c.str(&d.Name)
	c.u64(&d.Inode)
	c.u32(&d.Type)
}

// ---------------------------------------------------------------------------
// Requests and replies, in op order.

func (m *CreateInodeReq) wire(c *metaCodec) {
	c.u64(&m.PartitionID)
	c.u32(&m.Type)
	c.bytes(&m.LinkTarget)
}
func (m *CreateInodeResp) wire(c *metaCodec) { c.inode(&m.Info) }

func (m *UnlinkInodeReq) wire(c *metaCodec)  { c.u64(&m.PartitionID); c.u64(&m.Inode) }
func (m *UnlinkInodeResp) wire(c *metaCodec) { c.inode(&m.Info) }

func (m *EvictInodeReq) wire(c *metaCodec) { c.u64(&m.PartitionID); c.u64(&m.Inode) }
func (*EvictInodeResp) wire(*metaCodec)    {}

func (m *LinkInodeReq) wire(c *metaCodec)  { c.u64(&m.PartitionID); c.u64(&m.Inode) }
func (m *LinkInodeResp) wire(c *metaCodec) { c.inode(&m.Info) }

func (m *CreateDentryReq) wire(c *metaCodec) {
	c.u64(&m.PartitionID)
	c.u64(&m.ParentID)
	c.str(&m.Name)
	c.u64(&m.Inode)
	c.u32(&m.Type)
}
func (*CreateDentryResp) wire(*metaCodec) {}

func (m *DeleteDentryReq) wire(c *metaCodec) {
	c.u64(&m.PartitionID)
	c.u64(&m.ParentID)
	c.str(&m.Name)
}
func (m *DeleteDentryResp) wire(c *metaCodec) { c.u64(&m.Inode) }

func (m *UpdateDentryReq) wire(c *metaCodec) {
	c.u64(&m.PartitionID)
	c.u64(&m.ParentID)
	c.str(&m.Name)
	c.u64(&m.Inode)
}
func (m *UpdateDentryResp) wire(c *metaCodec) { c.u64(&m.OldInode) }

func (m *LookupReq) wire(c *metaCodec) {
	c.u64(&m.PartitionID)
	c.u64(&m.ParentID)
	c.str(&m.Name)
}
func (m *LookupResp) wire(c *metaCodec) {
	c.u64(&m.Inode)
	c.u32(&m.Type)
	c.inode(&m.Info)
}

func (m *InodeGetReq) wire(c *metaCodec)  { c.u64(&m.PartitionID); c.u64(&m.Inode) }
func (m *InodeGetResp) wire(c *metaCodec) { c.inode(&m.Info) }

func (m *BatchInodeGetReq) wire(c *metaCodec) {
	c.u64(&m.PartitionID)
	wireSlice(c, &m.Inodes, minUvarintBytes, wireUvarint)
}
func (m *BatchInodeGetResp) wire(c *metaCodec) {
	wireSlice(c, &m.Infos, minInodePtrBytes, wireInodePtr)
}

func (m *ReadDirReq) wire(c *metaCodec) { c.u64(&m.PartitionID); c.u64(&m.ParentID) }
func (m *ReadDirResp) wire(c *metaCodec) {
	wireSlice(c, &m.Children, minDentryBytes, (*Dentry).wire)
}

func (m *SetAttrReq) wire(c *metaCodec) {
	c.u64(&m.PartitionID)
	c.u64(&m.Inode)
	c.u32(&m.Valid)
	c.u64(&m.Size)
	c.i64(&m.ModifyTime)
}
func (*SetAttrResp) wire(*metaCodec) {}

func (m *AppendExtentKeysReq) wire(c *metaCodec) {
	c.u64(&m.PartitionID)
	c.u64(&m.Inode)
	wireSlice(c, &m.Extents, minExtentKeyBytes, (*ExtentKey).wire)
	c.u64(&m.Size)
}
func (*AppendExtentKeysResp) wire(*metaCodec) {}

func (m *SplitMetaPartitionReq) wire(c *metaCodec)  { c.u64(&m.PartitionID); c.u64(&m.End) }
func (m *SplitMetaPartitionResp) wire(c *metaCodec) { c.u64(&m.MaxInodeID) }
