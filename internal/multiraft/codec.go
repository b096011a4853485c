package multiraft

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"

	"cfs/internal/proto"
	"cfs/internal/raft"
	"cfs/internal/util"
)

// The lane's wire layout. On both fabrics a Batch crosses as one frame
// body in this layout (the transport appends it straight into its frame buffer and the
// receiver's handler gets the bytes as transport.Raw); gob never touches
// the lane. Every integer is a uvarint, every []byte and string a uvarint
// length and its bytes:
//
//	batch:     from  nMsgs msg...  nBeats beat...  nBeatResps beatResp...
//	msg:       group  type(1 byte)  mask  field...
//	entry:     index  term  conf(1 byte, 0 or 1)  data
//	beat:      group  term  commit
//	beatResp:  group  term
//
// mask has one bit per Message field that may follow (the has* constants,
// then the integers of msgInts in order), and only the fields whose bit is
// set follow, in bit order: zero fields cost nothing. A message's From and
// To are not sent - every message in a batch is from Batch.From to the
// receiving node, as the heartbeat slots already assume.
const (
	hasGranted = 1 << iota
	hasSuccess
	hasEntries
	hasSnapData
	hasSnapPeers
	firstIntBit // bit of msgInts(m)[0]; the rest follow in order
)

// msgInts lists a message's integer fields in wire order.
func msgInts(m *raft.Message) [10]*uint64 {
	return [10]*uint64{
		&m.Term, &m.Commit, &m.PrevLogIndex, &m.PrevLogTerm, &m.MatchIndex,
		&m.HintIndex, &m.LastLogIndex, &m.LastLogTerm, &m.SnapIndex, &m.SnapTerm,
	}
}

// maskLimit is the first mask bit past the layout.
const maskLimit = firstIntBit << 10

// Minimum encoded sizes: a length read from the wire is refused when the
// rest of the input could not hold that many elements, so a decode never
// allocates more than its input justifies.
const (
	minMsgBytes      = 3 // group, type, mask
	minEntryBytes    = 4 // index, term, conf, data length
	minBeatBytes     = 3
	minBeatRespBytes = 2
	minStringBytes   = 1
)

// AppendBinary implements encoding.BinaryAppender: it appends b to buf in
// the wire layout above. It never fails.
func (b *Batch) AppendBinary(buf []byte) ([]byte, error) {
	buf = appendBytes(buf, b.From)
	buf = binary.AppendUvarint(buf, uint64(len(b.Messages)))
	for _, m := range b.Messages {
		buf = appendMessage(buf, m)
	}
	buf = binary.AppendUvarint(buf, uint64(len(b.Beats)))
	for _, hb := range b.Beats {
		buf = binary.AppendUvarint(buf, hb.GroupID)
		buf = binary.AppendUvarint(buf, hb.Term)
		buf = binary.AppendUvarint(buf, hb.Commit)
	}
	buf = binary.AppendUvarint(buf, uint64(len(b.BeatResps)))
	for _, hr := range b.BeatResps {
		buf = binary.AppendUvarint(buf, hr.GroupID)
		buf = binary.AppendUvarint(buf, hr.Term)
	}
	return buf, nil
}

func appendMessage(buf []byte, m *raft.Message) []byte {
	ints := msgInts(m)
	var mask uint64
	for i, v := range ints {
		if *v != 0 {
			mask |= firstIntBit << i
		}
	}
	if m.Granted {
		mask |= hasGranted
	}
	if m.Success {
		mask |= hasSuccess
	}
	if len(m.Entries) > 0 {
		mask |= hasEntries
	}
	if len(m.SnapData) > 0 {
		mask |= hasSnapData
	}
	if len(m.SnapPeers) > 0 {
		mask |= hasSnapPeers
	}
	buf = binary.AppendUvarint(buf, m.GroupID)
	buf = append(buf, byte(m.Type))
	buf = binary.AppendUvarint(buf, mask)
	for i, v := range ints {
		if mask&(firstIntBit<<i) != 0 {
			buf = binary.AppendUvarint(buf, *v)
		}
	}
	if mask&hasEntries != 0 {
		buf = binary.AppendUvarint(buf, uint64(len(m.Entries)))
		for _, e := range m.Entries {
			buf = binary.AppendUvarint(buf, e.Index)
			buf = binary.AppendUvarint(buf, e.Term)
			conf := byte(0)
			if e.Conf {
				conf = 1
			}
			buf = appendBytes(append(buf, conf), e.Data)
		}
	}
	if mask&hasSnapData != 0 {
		buf = appendBytes(buf, m.SnapData)
	}
	if mask&hasSnapPeers != 0 {
		buf = binary.AppendUvarint(buf, uint64(len(m.SnapPeers)))
		for _, p := range m.SnapPeers {
			buf = appendBytes(buf, p)
		}
	}
	return buf
}

func appendBytes[T string | []byte](buf []byte, s T) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// decodeBatch parses one batch in the wire layout, which must fill data
// exactly. Every message gets the batch's From, and to as its To. Byte
// slices (entry data, snapshot data) alias data, which the caller hands
// over. A malformed batch is an error wrapping util.ErrInvalidArgument.
func decodeBatch(data []byte, to string) (*Batch, error) {
	r := wireReader{buf: data}
	b := &Batch{From: string(r.bytes())}
	if n := r.count(minMsgBytes); n > 0 {
		msgs := make([]raft.Message, n)
		b.Messages = make([]*raft.Message, n)
		for i := range msgs {
			msgs[i].From, msgs[i].To = b.From, to
			r.message(&msgs[i])
			b.Messages[i] = &msgs[i]
		}
	}
	if n := r.count(minBeatBytes); n > 0 {
		b.Beats = make([]proto.RaftHeartbeat, n)
		for i := range b.Beats {
			b.Beats[i] = proto.RaftHeartbeat{GroupID: r.uvarint(), Term: r.uvarint(), Commit: r.uvarint()}
		}
	}
	if n := r.count(minBeatRespBytes); n > 0 {
		b.BeatResps = make([]proto.RaftHeartbeatResp, n)
		for i := range b.BeatResps {
			b.BeatResps[i] = proto.RaftHeartbeatResp{GroupID: r.uvarint(), Term: r.uvarint()}
		}
	}
	if r.err == nil && len(r.buf) > 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.buf))
	}
	if r.err != nil {
		return nil, fmt.Errorf("multiraft: %w: batch: %v", util.ErrInvalidArgument, r.err)
	}
	return b, nil
}

// wireReader reads the wire layout. The first error sticks: every read
// after it returns a zero value, so a decoder checks once, at the end.
type wireReader struct {
	buf []byte
	err error
}

var errShort = errors.New("truncated")

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.err = errShort
		if n < 0 {
			r.err = errors.New("uvarint overflows 64 bits")
		}
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

func (r *wireReader) byte() byte {
	if r.err != nil || len(r.buf) == 0 {
		r.err = cmp.Or(r.err, errShort)
		return 0
	}
	c := r.buf[0]
	r.buf = r.buf[1:]
	return c
}

// bytes reads a length-prefixed byte string, aliasing the input; nil when
// empty.
func (r *wireReader) bytes() []byte {
	n := r.uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	if n > uint64(len(r.buf)) {
		r.err = errShort
		return nil
	}
	out := r.buf[:n:n]
	r.buf = r.buf[n:]
	return out
}

// count reads an element count, refusing one the rest of the input cannot
// hold at min bytes per element.
func (r *wireReader) count(min int) int {
	n := r.uvarint()
	if n > uint64(len(r.buf)/min) {
		r.err = cmp.Or(r.err, fmt.Errorf("count %d exceeds the %d bytes left", n, len(r.buf)))
		return 0
	}
	return int(n)
}

func (r *wireReader) message(m *raft.Message) {
	m.GroupID = r.uvarint()
	m.Type = raft.MsgType(r.byte())
	mask := r.uvarint()
	if mask >= maskLimit {
		r.err = cmp.Or(r.err, fmt.Errorf("unknown message fields %#x", mask))
		return
	}
	for i, v := range msgInts(m) {
		if mask&(firstIntBit<<i) != 0 {
			*v = r.uvarint()
		}
	}
	m.Granted = mask&hasGranted != 0
	m.Success = mask&hasSuccess != 0
	if mask&hasEntries != 0 {
		if n := r.count(minEntryBytes); n > 0 {
			m.Entries = make([]raft.Entry, n)
			for i := range m.Entries {
				e := &m.Entries[i]
				e.Index, e.Term = r.uvarint(), r.uvarint()
				switch r.byte() {
				case 0:
				case 1:
					e.Conf = true
				default:
					r.err = cmp.Or(r.err, errors.New("bad conf flag"))
				}
				e.Data = r.bytes()
			}
		}
	}
	if mask&hasSnapData != 0 {
		m.SnapData = r.bytes()
	}
	if mask&hasSnapPeers != 0 {
		if n := r.count(minStringBytes); n > 0 {
			m.SnapPeers = make([]string, n)
			for i := range m.SnapPeers {
				m.SnapPeers[i] = string(r.bytes())
			}
		}
	}
}
