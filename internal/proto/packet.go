package proto

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync/atomic"

	"cfs/internal/util"
)

// PacketMagic guards against desynchronized streams.
const PacketMagic uint8 = 0xCF

// MaxReadLen bounds the length one read request may ask for, streamed or
// unary; a data node refuses a longer one, so that a corrupt length cannot
// make it buffer an absurd range.
const MaxReadLen = 8 * util.MB

// Packet is the fixed-header frame used on the data path (Section 2.7.1).
// The client slices file writes into fixed-size packets (128 KB by default)
// and streams them to the replica-array leader; the leader forwards to the
// followers in array order (primary-backup) or proposes through Raft
// (overwrite).
//
// Header layout (big endian), 66 bytes:
//
//	magic(1) op(1) resultCode(1) followerCnt(1)
//	reqID(8) partitionID(8) extentID(8) extentOffset(8)
//	size(4) crc(4) fileOffset(8) committed(6) epoch(8)
//
// followed by followerCnt length-prefixed follower addresses, then size
// bytes of payload. The 6 committed bytes were reserved until the committed
// offset started riding replication hops; 48 bits bound it at 256 TB per
// extent, far above any extent size. The epoch slot was appended when
// master-driven failover introduced the replica-epoch fence.
type Packet struct {
	Op           Op
	ResultCode   uint8
	ReqID        uint64
	PartitionID  uint64
	ExtentID     uint64
	ExtentOffset uint64
	// FileOffset is the packet's position inside the file on write-path
	// frames. Read-session frames (OpDataReadStream) reuse the slot: a
	// request carries the byte count wanted, a response chunk carries the
	// bytes remaining after it (zero marks the request's final chunk).
	FileOffset uint64
	// Committed piggybacks the extent's all-replica committed offset on
	// leader->follower hops (and OpDataCommitted frames) so followers can
	// enforce the Section 2.2.5 clamp. An overwrite's ack carries the
	// extent's overwrite version after it in this slot, and a read request
	// the highest such version its client was acked (the overwrite fence).
	// Zero elsewhere.
	Committed uint64
	// Epoch is the sender's replica epoch for the partition: clients stamp
	// it from their cached view on write-path requests, leaders stamp it on
	// replication hops. A receiver holding a NEWER epoch rejects the frame
	// with ResultErrStaleEpoch - that rejection by followers is what fences
	// a deposed leader out of committing (no all-replica ack can assemble
	// for a stale-epoch hop). Zero means "unfenced" (reads, Raft traffic,
	// legacy callers) and is always accepted.
	Epoch     uint64
	CRC       uint32
	Followers []string // replication order tail; empty on follower hops
	Data      []byte

	// pool, when non-nil, marks Data as a util.GetChunk buffer owned by
	// this packet (and any packets sharing the payload): the last owner's
	// Release returns it. It sits behind a pointer so Packet VALUES can
	// still be struct-copied (the committed-gossip path snapshots one)
	// without copying an atomic.
	pool *poolRef
}

// poolRef counts the owners of one pooled payload chunk.
type poolRef struct{ refs atomic.Int32 }

// MarkPooled hands ownership of p.Data - which must be a util.GetChunk
// buffer - to the packet, with a reference count of one. Ownership then
// moves by the transport contract: Send consumes one reference (the
// transport releases it once the bytes leave, or the send fails), and a
// received packet arrives holding one reference that its consumer must
// Release or TakeData.
func (p *Packet) MarkPooled() {
	r := &poolRef{}
	r.refs.Store(1)
	p.pool = r
}

// SharePool makes p a co-owner of src's pooled payload; p.Data must
// alias src.Data. Each co-owner releases independently. No-op when src
// is unpooled.
func (p *Packet) SharePool(src *Packet) {
	if src.pool == nil {
		return
	}
	src.pool.refs.Add(1)
	p.pool = src.pool
}

// Retain adds n ownership references (a leader fanning one payload out
// to n follower chains retains n-1 beyond the share).
func (p *Packet) Retain(n int32) {
	if p.pool != nil && n > 0 {
		p.pool.refs.Add(n)
	}
}

// Release drops one ownership reference; the last owner returns the
// chunk to the pool. No-op for unpooled payloads, so consumers can call
// it unconditionally.
func (p *Packet) Release() {
	if p.pool == nil {
		return
	}
	switch n := p.pool.refs.Add(-1); {
	case n == 0:
		util.PutChunk(p.Data)
	case n < 0:
		panic("proto: packet payload over-released")
	}
}

// TakeData transfers payload ownership to the caller, who becomes
// responsible for util.PutChunk. Only valid on sole-owner packets
// (receive-path frames); for unpooled payloads it simply detaches Data.
func (p *Packet) TakeData() []byte {
	d := p.Data
	p.Data = nil
	p.pool = nil
	return d
}

// Packet result codes.
const (
	ResultOK uint8 = iota
	ResultErrAgain
	ResultErrNotLeader
	ResultErrCRC
	ResultErrIO
	ResultErrArg
	// ResultErrAborted marks a replication-session abort: every undecided
	// window entry carries it, and so does any traffic rejected after the
	// abort. Clients discard the pooled session on sight and replay the
	// uncommitted tail elsewhere.
	ResultErrAborted
	// ResultErrStaleEpoch rejects a frame whose replica epoch does not
	// match the partition's current one (the failover fence). Retriable:
	// clients refresh the view, re-dial the current leader, and replay.
	ResultErrStaleEpoch
	// ResultErrClamped rejects a read (unary or streamed) that reaches past the
	// replica's committed offset (the Section 2.2.5 clamp). The reply's
	// Committed field carries the refusing replica's horizon so the
	// client can remember how far this replica trails and skip it for
	// hot-tail reads until it catches up.
	ResultErrClamped
	// ResultErrLeaseExpired rejects a read on a node whose master-granted
	// read lease has lapsed (it has not completed a heartbeat for the lease
	// duration). Retriable at another replica: the refuser may be a
	// deposed leader that cannot see the newer epoch, so its extents may
	// already be reassigned or deleted under it.
	ResultErrLeaseExpired
)

// maxCommitted is the largest committed offset the 48-bit header slot holds.
const maxCommitted = 1<<48 - 1

const packetHeaderSize = 66

// NewPacket builds a request packet and stamps the payload CRC.
func NewPacket(op Op, reqID, partitionID, extentID uint64, data []byte) *Packet {
	return &Packet{
		Op:          op,
		ReqID:       reqID,
		PartitionID: partitionID,
		ExtentID:    extentID,
		CRC:         util.CRC(data),
		Data:        data,
	}
}

// AppendHeader appends the packet's wire header - the fixed fields plus
// the follower list, everything but the payload - to dst and returns the
// extended slice. Senders that can gather-write use it to frame a packet
// as header+payload iovecs with no coalescing copy; WriteTo is the
// single-writer fallback over the same encoding.
func (p *Packet) AppendHeader(dst []byte) ([]byte, error) {
	return p.AppendHeaderLen(dst, len(p.Data))
}

// AppendHeaderLen is AppendHeader for a frame whose n payload bytes the
// sender writes from somewhere other than p.Data (a file, with sendfile);
// p.CRC must already cover those bytes.
func (p *Packet) AppendHeaderLen(dst []byte, n int) ([]byte, error) {
	if len(p.Followers) > 255 {
		return dst, fmt.Errorf("proto: %d followers exceeds packet limit", len(p.Followers))
	}
	if n > int(^uint32(0)) {
		return dst, fmt.Errorf("proto: payload of %d bytes exceeds packet limit", n)
	}
	if p.Committed > maxCommitted {
		return dst, fmt.Errorf("proto: committed offset %d exceeds the 48-bit header slot", p.Committed)
	}
	var hdr [packetHeaderSize]byte
	hdr[0] = PacketMagic
	hdr[1] = uint8(p.Op)
	hdr[2] = p.ResultCode
	hdr[3] = uint8(len(p.Followers))
	binary.BigEndian.PutUint64(hdr[4:], p.ReqID)
	binary.BigEndian.PutUint64(hdr[12:], p.PartitionID)
	binary.BigEndian.PutUint64(hdr[20:], p.ExtentID)
	binary.BigEndian.PutUint64(hdr[28:], p.ExtentOffset)
	binary.BigEndian.PutUint32(hdr[36:], uint32(n))
	binary.BigEndian.PutUint32(hdr[40:], p.CRC)
	binary.BigEndian.PutUint64(hdr[44:], p.FileOffset)
	binary.BigEndian.PutUint16(hdr[52:], uint16(p.Committed>>32))
	binary.BigEndian.PutUint32(hdr[54:], uint32(p.Committed))
	binary.BigEndian.PutUint64(hdr[58:], p.Epoch)
	dst = append(dst, hdr[:]...)
	for _, f := range p.Followers {
		var lbuf [2]byte
		binary.BigEndian.PutUint16(lbuf[:], uint16(len(f)))
		dst = append(dst, lbuf[:]...)
		dst = append(dst, f...)
	}
	return dst, nil
}

// WriteTo serializes the packet to w.
func (p *Packet) WriteTo(w io.Writer) (int64, error) {
	hdr, err := p.AppendHeader(nil)
	if err != nil {
		return 0, err
	}
	var total int64
	n, err := w.Write(hdr)
	total += int64(n)
	if err != nil {
		return total, err
	}
	n, err = w.Write(p.Data)
	total += int64(n)
	return total, err
}

// ReadFrom deserializes a packet from r, replacing p's contents.
func (p *Packet) ReadFrom(r io.Reader) (int64, error) {
	return p.readFrom(r, false)
}

// ReadFromPooled deserializes like ReadFrom but reads the payload
// directly into a util.GetChunk buffer owned by the packet (reference
// count one): the consumer must Release or TakeData it. Payloads larger
// than the pool's chunk class fall back to a plain allocation. Only
// stream receive loops should use it - their consumers are audited for
// the release contract; the unary call path keeps GC ownership.
func (p *Packet) ReadFromPooled(r io.Reader) (int64, error) {
	return p.readFrom(r, true)
}

func (p *Packet) readFrom(r io.Reader, pooled bool) (int64, error) {
	var hdr [packetHeaderSize]byte
	var total int64
	n, err := io.ReadFull(r, hdr[:])
	total += int64(n)
	if err != nil {
		return total, err
	}
	if hdr[0] != PacketMagic {
		return total, fmt.Errorf("proto: bad packet magic 0x%02x", hdr[0])
	}
	p.Op = Op(hdr[1])
	p.ResultCode = hdr[2]
	followerCnt := int(hdr[3])
	p.ReqID = binary.BigEndian.Uint64(hdr[4:])
	p.PartitionID = binary.BigEndian.Uint64(hdr[12:])
	p.ExtentID = binary.BigEndian.Uint64(hdr[20:])
	p.ExtentOffset = binary.BigEndian.Uint64(hdr[28:])
	size := binary.BigEndian.Uint32(hdr[36:])
	p.CRC = binary.BigEndian.Uint32(hdr[40:])
	p.FileOffset = binary.BigEndian.Uint64(hdr[44:])
	p.Committed = uint64(binary.BigEndian.Uint16(hdr[52:]))<<32 |
		uint64(binary.BigEndian.Uint32(hdr[54:]))
	p.Epoch = binary.BigEndian.Uint64(hdr[58:])
	p.Followers = nil
	for i := 0; i < followerCnt; i++ {
		var lbuf [2]byte
		n, err = io.ReadFull(r, lbuf[:])
		total += int64(n)
		if err != nil {
			return total, err
		}
		fl := int(binary.BigEndian.Uint16(lbuf[:]))
		fbuf := make([]byte, fl)
		n, err = io.ReadFull(r, fbuf)
		total += int64(n)
		if err != nil {
			return total, err
		}
		p.Followers = append(p.Followers, string(fbuf))
	}
	p.pool = nil
	if size == 0 {
		p.Data = nil
		return total, nil
	}
	if pooled {
		// GetChunk falls back to a plain allocation past the pool class,
		// and Release hands such a buffer to the GC.
		p.Data = util.GetChunk(int(size))
		p.MarkPooled()
	} else {
		p.Data = make([]byte, size)
	}
	n, err = io.ReadFull(r, p.Data)
	total += int64(n)
	if err != nil {
		// The frame never materialized; the packet must not escape with
		// a half-filled pooled chunk attached.
		p.Release()
		p.Data = nil
		p.pool = nil
	}
	return total, err
}

// VerifyCRC reports whether the payload matches the stamped checksum
// (Section 2.2.1: extent CRCs are checked on the data path).
func (p *Packet) VerifyCRC() bool { return util.CRC(p.Data) == p.CRC }

// OKResponse builds the success reply for a request packet, carrying data
// back to the caller (reads) or empty (writes).
func (p *Packet) OKResponse(data []byte) *Packet {
	return &Packet{
		Op:           p.Op,
		ResultCode:   ResultOK,
		ReqID:        p.ReqID,
		PartitionID:  p.PartitionID,
		ExtentID:     p.ExtentID,
		ExtentOffset: p.ExtentOffset,
		FileOffset:   p.FileOffset,
		CRC:          util.CRC(data),
		Data:         data,
	}
}

// ErrResponse builds a failure reply with the given result code and
// human-readable message as payload.
func (p *Packet) ErrResponse(code uint8, msg string) *Packet {
	return &Packet{
		Op:          p.Op,
		ResultCode:  code,
		ReqID:       p.ReqID,
		PartitionID: p.PartitionID,
		ExtentID:    p.ExtentID,
		Data:        []byte(msg),
	}
}

func (p *Packet) String() string {
	return fmt.Sprintf("pkt{op=%s req=%d dp=%d ext=%d eoff=%d len=%d rc=%d}",
		p.Op, p.ReqID, p.PartitionID, p.ExtentID, p.ExtentOffset, len(p.Data), p.ResultCode)
}
