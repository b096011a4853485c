// Package transport provides the RPC fabric every CFS node speaks over.
//
// One wire, two ways to make a connection:
//
//   - TCP: a length-prefixed gob/binary protocol over net.Conn used by the
//     cmd/cfs-server daemons. Metadata RPCs cross in proto's binary meta
//     layout and reach the handler as their typed requests; a body that
//     encodes itself (encoding.BinaryAppender) reaches it as Raw bytes;
//     the control plane rides one gob stream per connection and
//     direction, so type descriptors cross it once.
//   - Memory: the same framing, codecs, pools and stream code over
//     in-process byte connections, with configurable simulated latency
//     and fault injection. Benchmarks and integration tests run the whole
//     cluster in one process on top of it, which keeps protocol behavior
//     identical to a real deployment while removing kernel networking
//     from the measurement (DESIGN.md Section 4).
//
// Handlers receive the decoded request: their own copy, on either fabric,
// as the caller receives its own copy of the reply.
package transport

import (
	"errors"
	"fmt"
	"reflect"

	"cfs/internal/proto"
	"cfs/internal/util"
)

// Handler processes one RPC. The returned response must be a pointer to the
// op's response struct (or *proto.Packet for data-path ops).
type Handler func(op uint8, req any) (any, error)

// Listener is a bound service endpoint.
type Listener interface {
	Close() error
	Addr() string
}

// Network abstracts the RPC fabric.
type Network interface {
	// Listen binds h at addr. Listening twice on one addr is an error.
	Listen(addr string, h Handler) (Listener, error)
	// Call sends req to addr and decodes the reply into resp, which must
	// be a non-nil pointer of the same type the handler returns (resp may
	// be nil when the caller discards the reply body).
	Call(addr string, op uint8, req, resp any) error
}

// Stream is a long-lived, order-preserving, one-way path to one peer for
// callers that talk to the same destination continuously (the MultiRaft
// manager sends every Raft batch for a peer node down one such stream).
// Sends are best-effort: nothing is sent back, so the receiver's handler
// result - its error included - never reaches the sender, and only a
// transport failure surfaces as the returned error (on TCP possibly a send
// or two late, once the kernel notices the peer is gone).
// The caller's protocol must tolerate loss, which Raft does. A Stream must
// not be used concurrently.
type Stream interface {
	// Send hands one request to the peer's handler and does not wait for it.
	Send(op uint8, req any) error
	Close() error
}

// Raw is the body a handler receives for a request that encoded itself
// (an encoding.BinaryAppender such as multiraft.Batch): a copy of its bytes
// that the handler owns, to be decoded by the package that encoded it.
type Raw []byte

// StreamNetwork is implemented by networks that can pin per-peer streams;
// both TCP and Memory do.
type StreamNetwork interface {
	Network
	// OpenStream returns a dedicated stream to addr. The connection is
	// dialed lazily and re-dialed after errors, so OpenStream itself
	// never fails on an unreachable peer.
	OpenStream(addr string) Stream
}

// PacketStream is a duplex, order-preserving stream of data-path packets.
// It is the pipelining primitive of the sequential-write path: the sender
// pushes request frames without waiting for replies, and a separate
// goroutine collects ack frames, so many packets are in flight at once
// (the paper's Figure 4 chain without per-packet round trips).
//
// Send and Recv are each serialized internally, so one goroutine may Send
// while another Recvs, but two goroutines must not Send (or Recv)
// concurrently. Recv returns io.EOF (or a transport error) once the peer
// closes its end. Close tears down both directions.
type PacketStream interface {
	Send(pkt *proto.Packet) error
	Recv() (*proto.Packet, error)
	Close() error
}

// StreamHandler serves one accepted packet stream. It runs on its own
// goroutine and owns the stream until it returns; the transport closes the
// stream afterwards. op is the opcode the dialer opened the stream with.
type StreamHandler func(op uint8, s PacketStream)

// PacketStreamNetwork is implemented by networks that support duplex
// packet streams in addition to request/response calls; both TCP and
// Memory do. The data path needs them: client.Mount and datanode.Start
// refuse a network without.
type PacketStreamNetwork interface {
	Network
	// DialStream opens a duplex packet stream to addr. Unlike OpenStream,
	// dialing is eager: an unreachable peer fails here. A peer without a
	// stream handler drops the connection, so the first Recv fails.
	DialStream(addr string, op uint8) (PacketStream, error)
	// ListenStream registers h to serve streams dialed to addr. The addr
	// must already be listening (Listen binds the request handler first);
	// closing that listener unregisters h.
	ListenStream(addr string, h StreamHandler) error
}

// RemoteError carries an error across the wire while preserving errors.Is
// matching for the shared sentinel kinds in package util.
type RemoteError struct {
	Msg  string
	Kind int // index into sentinels, -1 if unclassified
}

func (e *RemoteError) Error() string { return e.Msg }

// Unwrap maps the remote kind back onto the local sentinel so errors.Is
// works across the RPC boundary.
func (e *RemoteError) Unwrap() error {
	if e.Kind >= 0 && e.Kind < len(sentinels) {
		return sentinels[e.Kind]
	}
	return nil
}

// sentinels is the closed set of error kinds understood on both sides of
// the wire. Order is part of the wire protocol; append only.
var sentinels = []error{
	util.ErrNotFound,
	util.ErrExist,
	util.ErrNotDir,
	util.ErrIsDir,
	util.ErrNotEmpty,
	util.ErrReadOnly,
	util.ErrFull,
	util.ErrNotLeader,
	util.ErrNoAvailableNode,
	util.ErrTimeout,
	util.ErrCRCMismatch,
	util.ErrStale,
	util.ErrClosed,
	util.ErrRetryLimit,
	util.ErrInvalidArgument,
	util.ErrOutOfRange,
	util.ErrBusy,
}

// EncodeError classifies err against the sentinel set.
func EncodeError(err error) *RemoteError {
	kind := -1
	for i, s := range sentinels {
		if errors.Is(err, s) {
			kind = i
			break
		}
	}
	return &RemoteError{Msg: err.Error(), Kind: kind}
}

// copyInto assigns the handler result src into the caller-provided pointer
// dst. Both must be pointers to the same concrete type.
func copyInto(dst, src any) error {
	if dst == nil {
		return nil
	}
	dv := reflect.ValueOf(dst)
	sv := reflect.ValueOf(src)
	if dv.Kind() != reflect.Pointer || dv.IsNil() {
		return fmt.Errorf("transport: resp must be a non-nil pointer, got %T", dst)
	}
	if sv.Kind() != reflect.Pointer || sv.IsNil() {
		return fmt.Errorf("transport: handler returned %T, want pointer", src)
	}
	if dv.Type() != sv.Type() {
		return fmt.Errorf("transport: resp type %T does not match handler result %T", dst, src)
	}
	dv.Elem().Set(sv.Elem())
	return nil
}
