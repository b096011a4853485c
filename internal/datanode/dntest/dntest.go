// Package dntest is the write fixture for tests that need bytes on a data
// partition: a minimal client of the one write protocol the data node
// serves, OpDataWriteStream, driven one frame at a time. It stamps
// sequences and waits for each ack, so a test reads like the unary calls it
// replaces while exercising the path that ships. Tests that need to see
// the window itself (several frames in flight, ack order) drive a raw
// transport.PacketStream instead.
package dntest

import (
	"fmt"
	"testing"

	"cfs/internal/proto"
	"cfs/internal/transport"
)

// Writer is one replication session to a partition's leader.
type Writer struct {
	// Epoch is stamped on every frame; zero (the default) is unfenced.
	Epoch uint64

	st  transport.PacketStream
	pid uint64
	seq uint64
}

// Dial opens a replication session for partition pid on addr. The session
// holds a live-writer slot on the partition from its first frame until
// Close (or a session abort), which keeps Partition.Recover away.
func Dial(nw transport.PacketStreamNetwork, addr string, pid uint64) (*Writer, error) {
	st, err := nw.DialStream(addr, uint8(proto.OpDataWriteStream))
	if err != nil {
		return nil, err
	}
	return &Writer{st: st, pid: pid}, nil
}

// Close ends the session.
func (w *Writer) Close() { w.st.Close() }

// Do sends pkt as the session's next frame and returns its ack, whatever
// the result code; the error is a transport or protocol failure. Only the
// sequence, partition and epoch are stamped, so a test can hand in a
// deliberately damaged frame.
func (w *Writer) Do(pkt *proto.Packet) (*proto.Packet, error) {
	w.seq++
	pkt.ReqID, pkt.PartitionID, pkt.Epoch = w.seq, w.pid, w.Epoch
	if err := w.st.Send(pkt); err != nil {
		return nil, err
	}
	ack, err := w.st.Recv()
	if err != nil {
		return nil, err
	}
	if ack.ReqID != w.seq {
		return nil, fmt.Errorf("dntest: ack for seq %d, want %d", ack.ReqID, w.seq)
	}
	return ack, nil
}

// CreateExtent asks the leader for a fresh extent; the ack carries its id.
func (w *Writer) CreateExtent() (*proto.Packet, error) {
	return w.Do(&proto.Packet{Op: proto.OpDataCreateExtent})
}

// Append appends data to the extent (extent 0 selects the aggregated
// small-file path); the ack carries the placement.
func (w *Writer) Append(extentID uint64, data []byte) (*proto.Packet, error) {
	return w.Do(proto.NewPacket(proto.OpDataAppend, 0, w.pid, extentID, data))
}

// MustCreateExtent is CreateExtent for tests that need it to succeed.
func (w *Writer) MustCreateExtent(t testing.TB) uint64 {
	t.Helper()
	ack, err := w.CreateExtent()
	return must(t, "create extent", ack, err).ExtentID
}

// MustAppend is Append for tests that need it to commit; it returns where
// the bytes landed.
func (w *Writer) MustAppend(t testing.TB, extentID uint64, data []byte) (extent, offset uint64) {
	t.Helper()
	ack, err := w.Append(extentID, data)
	ack = must(t, "append", ack, err)
	return ack.ExtentID, ack.ExtentOffset
}

func must(t testing.TB, what string, ack *proto.Packet, err error) *proto.Packet {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if ack.ResultCode != proto.ResultOK {
		t.Fatalf("%s refused: rc=%d %s", what, ack.ResultCode, ack.Data)
	}
	return ack
}
