// Package util provides small shared helpers for the CFS reproduction:
// error kinds used across subsystems, size constants, checksums, and a
// deterministic PRNG used by placement and workload generation.
package util

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Size constants used throughout the system.
const (
	KB = 1 << 10
	MB = 1 << 20
	GB = 1 << 30

	// DefaultSmallFileThreshold is the paper's default threshold t
	// (Section 2.2.1): files of size <= t are "small files" and are
	// aggregated into shared extents.
	DefaultSmallFileThreshold = 128 * KB

	// DefaultPacketSize is the fixed packet size used by the sequential
	// write pipeline (Section 2.7.1). It is aligned with the small-file
	// threshold to avoid packet assembly or splitting. It is also the
	// payload size of one streamed-read chunk frame and the size class of
	// the shared chunk-buffer pool.
	DefaultPacketSize = 128 * KB

	// DefaultWriteWindow is the most packets a streaming writer keeps in
	// flight before blocking on acks (window x packet = 2 MB of
	// accepted-but-uncommitted bytes per writer), and DefaultReadWindow the
	// most read requests a streaming reader keeps ahead of a sequential
	// consumer (at most 4 MB of prefetch per reader). Both are caps: below
	// them the depth covers the session's least round trip, so on a short
	// one it is less (client.streamDepth). The caps were chosen by
	// measurement: EXPERIMENTS.md "Fixed vs adaptive window (PR 20)".
	DefaultWriteWindow = 16
	DefaultReadWindow  = 32

	// ReadChunkSize is the chunk pool's size class under its old name,
	// kept for code outside the internal packages that still spells it so.
	//
	// Deprecated: use DefaultPacketSize.
	ReadChunkSize = DefaultPacketSize
)

// chunkPool recycles payload buffers across the data path. It has one size
// class, DefaultPacketSize, so a streamed-write packet, a replication hop
// and a streamed-read chunk each fit one buffer. Whoever fills a buffer
// Gets it - the client writer copying a packet, a socket receive loop
// reading a frame, a data node reading a chunk from its store - and
// whoever holds the last reference once the bytes are no longer needed
// Puts it back: the writer on the packet's all-replica ack, a frame's last
// owner through proto.Packet.Release, the client reader after copying the
// bytes out. Every hop recycles its own buffers: on either fabric a frame
// crosses as bytes, and its receiver fills a buffer of its own. Losing a
// Put is always safe - the GC is the backstop - but a buffer must never be
// Put while any reference to it can still be read.
//
// The pool is a bounded free list in front of a sync.Pool. The GC empties
// a sync.Pool every other cycle (and the race detector drops a quarter of
// its Puts), so on its own a sustained stream - which fills and empties a
// buffer on each side of every hop - would keep allocating; the free list
// keeps chunkFreeCap buffers the GC cannot take, and the sync.Pool holds
// what a burst needs beyond them. Both hold array pointers, not slices: a
// pointer fits as it is, where putting &b of a slice would move its
// header to the heap on every call.
const chunkFreeCap = 64

var (
	chunkFree = make(chan *[DefaultPacketSize]byte, chunkFreeCap)
	chunkPool = sync.Pool{New: func() any { return new([DefaultPacketSize]byte) }}
)

// chunkGets and chunkPuts count pool-class Get/Put pairs. Their
// difference is the number of pool buffers currently checked out; tests
// snapshot it around a workload to assert the hot path leaks nothing
// (a leaked buffer is recoverable - the GC collects it - but it means a
// release path is missing and the pool degrades to plain allocation).
var chunkGets, chunkPuts atomic.Int64

// ChunkStats reports the pool-class chunk buffers handed out and
// returned so far. gets-puts is the current outstanding count.
func ChunkStats() (gets, puts int64) {
	return chunkGets.Load(), chunkPuts.Load()
}

// GetChunk returns a length-n payload buffer, pooled when n fits the
// chunk size class.
func GetChunk(n int) []byte {
	if n > DefaultPacketSize {
		return make([]byte, n)
	}
	chunkGets.Add(1)
	select {
	case c := <-chunkFree:
		return c[:n]
	default:
		return chunkPool.Get().(*[DefaultPacketSize]byte)[:n]
	}
}

// PutChunk returns a buffer obtained from GetChunk to the pool. Buffers
// outside the chunk size class (or sliced foreign memory) are left to the
// GC.
func PutChunk(b []byte) {
	if cap(b) != DefaultPacketSize {
		return
	}
	chunkPuts.Add(1)
	c := (*[DefaultPacketSize]byte)(b[:DefaultPacketSize])
	select {
	case chunkFree <- c:
	default:
		chunkPool.Put(c)
	}
}

// Error kinds shared across subsystems. Wrap these with %w so callers can
// test with errors.Is regardless of which node produced the error.
var (
	ErrNotFound        = errors.New("not found")
	ErrExist           = errors.New("already exists")
	ErrNotDir          = errors.New("not a directory")
	ErrIsDir           = errors.New("is a directory")
	ErrNotEmpty        = errors.New("directory not empty")
	ErrReadOnly        = errors.New("partition is read-only")
	ErrFull            = errors.New("partition is full")
	ErrNotLeader       = errors.New("not the leader")
	ErrNoAvailableNode = errors.New("no available node")
	ErrTimeout         = errors.New("request timed out")
	ErrCRCMismatch     = errors.New("crc mismatch")
	ErrStale           = errors.New("stale data")
	ErrClosed          = errors.New("closed")
	ErrRetryLimit      = errors.New("retry limit exceeded")
	ErrInvalidArgument = errors.New("invalid argument")
	ErrOutOfRange      = errors.New("offset out of range")
	ErrBusy            = errors.New("busy; retry later")
	// ErrStaleEpoch marks a request or replication hop carrying a replica
	// epoch older than the partition's current one (the failover fence).
	// Retriable: the holder refreshes its view and re-dials the new leader.
	ErrStaleEpoch = errors.New("stale replica epoch")
)

// CRC computes the IEEE CRC-32 checksum of data. Extent stores cache this
// per extent to speed up integrity checks (Section 2.2.1).
func CRC(data []byte) uint32 { return crc32.ChecksumIEEE(data) }

// Rand is a small, fast, deterministic PRNG (xorshift64*). It is safe to
// copy and cheap to seed, which matters for reproducible placement decisions
// and workload generation. It is NOT safe for concurrent use; give each
// goroutine its own instance.
type Rand struct{ state uint64 }

// NewRand returns a Rand seeded with seed (zero is remapped internally).
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next pseudo-random 64-bit value.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("util: Intn called with n=%d", n))
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a pseudo-random int64 in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic(fmt.Sprintf("util: Int63n called with n=%d", n))
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Shuffle pseudo-randomly permutes n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Min returns the smaller of a and b.
func Min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Max returns the larger of a and b.
func Max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// MinU64 returns the smaller of a and b.
func MinU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// MaxU64 returns the larger of a and b.
func MaxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// WriteFileAtomic writes data via a uniquely named temp file + rename:
// a crash mid-write leaves the previous file intact, and two concurrent
// writers (e.g. a debounced snapshot timer racing a shutdown snapshot)
// each publish a complete file instead of interleaving into a corrupt
// one - last rename wins. Shared by every snapshot writer (meta
// partition snapshots, data-partition lifecycle metadata) so further
// hardening (fsync before rename) lands once.
func WriteFileAtomic(path string, data []byte) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, base+".tmp-")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Chmod(tmp, 0o644); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
