package client

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cfs/internal/proto"
	"cfs/internal/transport"
	"cfs/internal/util"
)

// The read user of the session engine (transport.Session): one pinned
// OpDataReadStream per (replica address, replica epoch), shared by every
// ExtentReader the client points at that replica and kept SEPARATE from
// the write sessions, so a large scan's chunk stream can never
// head-of-line-block write acks. A request stays at the FIFO head while
// its chunk frames arrive and completes on the last one.
//
// A per-request error reply (committed-clamp refusal, unknown extent)
// fails only that request - the session and later requests are fine,
// which is what makes follower fallback cheap. A bad chunk CRC or a short
// reply is session-fatal on top of the engine's own list.

// readReq is one in-flight read request of a session.
type readReq struct {
	pool   *readPool
	s      *session
	length uint32

	// chunks collects the reply payloads in order. The session's
	// dispatcher owns them until done closes; then ownership transfers to
	// the waiter, which recycles them into the shared chunk pool after
	// consumption.
	chunks [][]byte
	got    uint32
	err    error
	done   chan struct{}

	// fate hands the chunk buffers of a request abandoned before it
	// completed (reader reset/failover) to whichever of complete and
	// abandon comes second: inFlight until one of them claims it.
	fate atomic.Int32
}

// readReq fates.
const (
	inFlight int32 = iota
	completed
	discarded
)

// read pushes one request onto s, carrying acked, the overwrite version
// the client was acked for the extent (DataClient.ackedVersion). The
// returned request completes (done closes) when its final chunk or error
// reply arrives, or when the session fails.
func (p *readPool) read(s *session, pid, extentID, off uint64, length uint32, epoch, acked uint64) (*readReq, error) {
	req := &readReq{pool: p, s: s, length: length, done: make(chan struct{})}
	err := s.Send(req, &proto.Packet{
		Op:           proto.OpDataRead,
		PartitionID:  pid,
		ExtentID:     extentID,
		ExtentOffset: off,
		FileOffset:   uint64(length), // requested length rides the slot
		Committed:    acked,
		Epoch:        epoch,
	})
	if err != nil {
		return nil, err
	}
	return req, nil
}

// Reply implements transport.Request: an error reply or the last chunk
// completes the request; a data chunk before that just accumulates.
func (req *readReq) Reply(f *proto.Packet) (bool, error) {
	addr := req.s.pin.addr
	switch {
	case f.ResultCode == proto.ResultErrStaleEpoch:
		// Retriable for this request; the engine retires the session.
		req.err = fmt.Errorf("client: read via %s: %s: %w", addr, f.Data, util.ErrStale)
	case f.ResultCode == proto.ResultErrClamped:
		// Committed-clamp refusal: per-request like any refusal, but the
		// reply carries the replica's committed horizon - remember it so
		// hot-tail reads stop offloading to this trailing follower until
		// it catches up (or the note expires).
		req.pool.noteClamp(addr, f.PartitionID, f.ExtentID, f.Committed)
		req.err = fmt.Errorf("client: read via %s: %s", addr, f.Data)
	case f.ResultCode != proto.ResultOK:
		// Unknown extent, store error: the owner falls back to another
		// replica; the session is fine.
		req.err = fmt.Errorf("client: read via %s: %s", addr, f.Data)
	case !f.VerifyCRC():
		return false, util.ErrCRCMismatch
	default:
		// Detach the payload from the frame: the chunk list owns the
		// buffer from here (recycleChunks returns it to the pool).
		chunk := f.TakeData()
		req.chunks = append(req.chunks, chunk)
		req.got += uint32(len(chunk))
		if f.FileOffset != 0 {
			return false, nil // more chunks follow
		}
		if req.got != req.length {
			return false, fmt.Errorf("got %d of %d bytes: %w", req.got, req.length, util.ErrTimeout)
		}
	}
	req.complete()
	return true, nil
}

// Abort implements transport.Request: the session died with the request
// in flight.
func (req *readReq) Abort(err error) {
	if req.err == nil {
		req.err = err
	}
	req.complete()
}

// complete wakes the waiter. Chunks of a request nobody waits for
// anymore go back to the pool here; the fate is settled before done
// closes, so a waiter that wakes finds the request completed.
func (req *readReq) complete() {
	if !req.fate.CompareAndSwap(inFlight, completed) {
		recycleChunks(req)
	}
	close(req.done)
}

// abandon releases a request the reader no longer wants (reset, failover):
// completed requests recycle immediately, in-flight ones are marked so the
// dispatcher recycles them on completion.
func (req *readReq) abandon() {
	if !req.fate.CompareAndSwap(inFlight, discarded) {
		recycleChunks(req)
	}
}

func recycleChunks(req *readReq) {
	for _, c := range req.chunks {
		util.PutChunk(c)
	}
	req.chunks = nil
}

// readPool is the read sessions plus what their refusals taught the
// client: which replicas recently refused which ranges (the clamp
// horizons).
type readPool struct {
	*sessionPool[sessionPin]

	hmu      sync.Mutex // guards horizons; a leaf lock, taken under session mutexes
	horizons map[clampKey]clampHorizon
}

// clampKey names the scope of one committed-clamp refusal: a replica's
// view of one extent.
type clampKey struct {
	addr   string
	pid    uint64
	extent uint64
}

// clampHorizon is what the refusal taught us: the replica's committed
// offset at refusal time. Offsets at or below it are still servable
// there; the tail beyond it is not, until the follower catches up.
type clampHorizon struct {
	committed uint64
	at        time.Time
}

// clampTTL bounds how long a refusal horizon steers replica choice.
// Gossip re-advances a healthy follower's committed offset within a
// round trip or two, so a stale note must expire quickly or a caught-up
// follower would keep losing hot-tail reads it can now serve.
const clampTTL = 250 * time.Millisecond

func newReadPool(nw transport.PacketStreamNetwork, cfg *Config) *readPool {
	return &readPool{
		sessionPool: newSessionPool[sessionPin](nw, cfg, proto.OpDataReadStream, "read"),
		horizons:    make(map[clampKey]clampHorizon),
	}
}

// session returns the pooled read session to addr at the view's epoch.
// The pin is the key: an epoch bump (failover, reconfiguration) gives
// readers on the fresh view a fresh session while the stale one idles out.
func (p *readPool) session(addr string, epoch uint64) (*session, error) {
	pin := sessionPin{addr: addr, epoch: epoch}
	return p.get(pin, pin)
}

// noteClamp records a committed-clamp refusal from addr. Monotonic per
// key within the TTL: a refusal can only raise the known horizon (a
// reordered stale reply must not shrink what we know the replica holds).
func (p *readPool) noteClamp(addr string, pid, extent, committed uint64) {
	k := clampKey{addr: addr, pid: pid, extent: extent}
	now := time.Now()
	p.hmu.Lock()
	if cur, ok := p.horizons[k]; !ok || now.Sub(cur.at) > clampTTL || committed >= cur.committed {
		p.horizons[k] = clampHorizon{committed: committed, at: now}
	}
	// Opportunistic expiry keeps the map bounded by the working set.
	if len(p.horizons) > 1024 {
		for k, h := range p.horizons {
			if now.Sub(h.at) > clampTTL {
				delete(p.horizons, k)
			}
		}
	}
	p.hmu.Unlock()
}

// clampedBelow reports whether a fresh refusal horizon says addr cannot
// serve extent bytes up to end. False on expiry: the replica gets probed
// again and either serves the range or refreshes the note.
func (p *readPool) clampedBelow(addr string, pid, extent, end uint64) bool {
	k := clampKey{addr: addr, pid: pid, extent: extent}
	p.hmu.Lock()
	h, ok := p.horizons[k]
	p.hmu.Unlock()
	return ok && time.Since(h.at) <= clampTTL && h.committed < end
}
