package client

import (
	"fmt"
	"sync"
	"time"

	"cfs/internal/proto"
	"cfs/internal/transport"
	"cfs/internal/util"
)

// The client's two users of the session engine (transport.Session): one
// pinned packet stream to a data node, shared by every writer (pool.go)
// or reader (readpool.go) the client points at it, so neither a small
// file, an extent roll nor a scan pays a fresh dial. The engine owns the
// FIFO, dispatch, liveness and the fail path; this file adds what only
// the client needs - the pin a session was dialed for and the pool that
// hands sessions out and forgets the failed ones.

// sessionPin is where and when a session was dialed: the data node, the
// partition's ReplicaEpoch in the dialer's view and, for per-partition
// write sessions, the partition its keepalives are routed by (zero on
// per-replica read sessions). A view that moves past the pin (failover,
// reconfiguration) gets a fresh session: frames at the old epoch would
// only earn retriable stale-epoch rejects.
type sessionPin struct {
	addr  string
	epoch uint64
	pid   uint64
}

func (p sessionPin) String() string {
	if p.pid != 0 {
		return fmt.Sprintf("dp %d at %s", p.pid, p.addr)
	}
	return p.addr
}

// session is one pooled engine session and the pin it was dialed for.
type session struct {
	*transport.Session
	pin sessionPin
}

// serves reports whether a pool may hand s out for pin.
func (s *session) serves(pin sessionPin) bool {
	return s != nil && s.pin == pin && s.Err() == nil
}

// shut fails the session on its pool's or owner's initiative and waits
// for its dispatcher to exit. Owner shutdown passes ErrClosed (the
// application chose to stop); a pool replacing the session passes
// retriable ErrStale, so users still on it move to the successor.
func (s *session) shut(why string, kind error) {
	s.Close(why, kind)
	<-s.Done()
}

// packetTime is how long one 128 KiB packet takes at the highest rate one
// stream should sustain: 50 us is 2.5 GiB/s, above what a stream reaches
// on TCP loopback. A depth beyond the round trip divided by packetTime
// cannot raise the rate; it only queues packets - on a read, received
// chunks that the copy-out then finds in cold memory, on a write, packets
// that wait at the leader and make each ack that much later
// (EXPERIMENTS.md "Readahead depth follows the least round trip" and
// "Writes keep in flight what the round trip needs").
const packetTime = 50 * time.Microsecond

// depthFloor is the least depth, whatever the round trip: four packets
// keep a data node's stages busy at once - on a read its reply queue
// (readaheadFrames, 4 frames), so its store reads overlap its socket
// writes; on a write the leader's store append, its forward down the
// chain and the acks coming back.
const depthFloor = 4

// streamDepth is how many packets a sequential reader or writer keeps in
// flight over a session whose least round trip is rtt: enough to cover
// the round trip at packetTime each, at least depthFloor, at most win
// (util.DefaultReadWindow or util.DefaultWriteWindow; a window pinned
// below the floor, like WriteSmallFile's 1, stays pinned). The least round trip of anything the session
// exchanged, the dial handshake and keepalives included, because every
// other sample also counts a queue - the one the depth itself builds and,
// on a busy box, the CPU's - that more depth does not cover: a depth
// sized from those would feed its own growth. On a write session the
// lightest exchange is with the leader alone, not down the chain; timing
// only replicated appends kept the depth at the cap on loopback
// (EXPERIMENTS.md "Writes keep in flight what the round trip needs").
func streamDepth(win int, rtt time.Duration) int {
	n := int((rtt + packetTime - 1) / packetTime)
	return min(win, max(depthFloor, n))
}

// sessionPool caches one session per key.
type sessionPool[K comparable] struct {
	nw    transport.PacketStreamNetwork
	cfg   *Config
	op    proto.Op // the stream opcode sessions dial with
	label string   // what the streams carry, for error text

	mu       sync.Mutex
	sessions map[K]*session
	closed   bool
}

func newSessionPool[K comparable](nw transport.PacketStreamNetwork, cfg *Config, op proto.Op, label string) *sessionPool[K] {
	return &sessionPool[K]{nw: nw, cfg: cfg, op: op, label: label, sessions: make(map[K]*session)}
}

// get returns the pooled session for key, dialing one when the cache is
// empty, the cached session failed, or the view moved past its pin.
func (p *sessionPool[K]) get(key K, pin sessionPin) (*session, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("client: %s session pool: %w", p.label, util.ErrClosed)
	}
	cached := p.sessions[key]
	if cached.serves(pin) {
		p.mu.Unlock()
		cached.Touch()
		return cached, nil
	}
	delete(p.sessions, key)
	p.mu.Unlock()
	if cached != nil {
		// Users still streaming on the replaced session retry on its
		// successor (ErrStale).
		cached.shut("retired: view moved", util.ErrStale)
	}
	s, err := p.dial(key, pin)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		s.shut("closed", util.ErrClosed)
		return nil, fmt.Errorf("client: %s session pool: %w", p.label, util.ErrClosed)
	}
	if cur := p.sessions[key]; cur.serves(pin) {
		p.mu.Unlock()
		s.shut("closed", util.ErrClosed) // lost the dial race; reuse the winner
		cur.Touch()
		return cur, nil
	}
	p.sessions[key] = s
	p.mu.Unlock()
	return s, nil
}

// dial opens a session that retires itself when idle and forgets itself
// in the pool when it fails.
func (p *sessionPool[K]) dial(key K, pin sessionPin) (*session, error) {
	s := &session{pin: pin}
	es, err := transport.DialSession(p.nw, pin.addr, uint8(p.op), p.cfg.AckDeadline, p.cfg.KeepaliveInterval, transport.SessionUser{
		Name:       fmt.Sprintf("client: %s stream to %s", p.label, pin),
		Ping:       proto.Packet{Op: proto.OpDataPing, PartitionID: pin.pid},
		RetireIdle: true,
		Failed: func(error) {
			p.mu.Lock()
			if p.sessions[key] == s {
				delete(p.sessions, key)
			}
			p.mu.Unlock()
		},
	})
	if err != nil {
		return nil, err
	}
	s.Session = es
	return s, nil
}

// close shuts every pooled session; called from Client.Close.
func (p *sessionPool[K]) close() {
	p.mu.Lock()
	p.closed = true
	sessions := p.sessions
	p.sessions = make(map[K]*session)
	p.mu.Unlock()
	for _, s := range sessions {
		s.shut("closed", util.ErrClosed)
	}
}
