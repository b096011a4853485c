// Package storage implements the extent store, the per-data-partition
// storage engine of CFS (paper Section 2.2, Figure 2).
//
// An extent store is a directory of extent files plus in-memory metadata
// (sizes and a table of per-block CRCs). Two kinds of content live in
// extents:
//
//   - Large files: a sequence of extents, each used by exactly one file,
//     written from offset zero, never padded (Section 2.2.2).
//   - Small files (<= the configured threshold): many files aggregated
//     into one shared extent; deletion frees their ranges with the
//     fallocate punch-hole interface instead of a garbage collector
//     (Section 2.2.3).
package storage

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"cfs/internal/util"
)

// DefaultExtentSize is the capacity of one extent. Small-file aggregation
// rolls to a new extent when the current one reaches it.
const DefaultExtentSize = 64 * util.MB

// PunchHoler frees a byte range of an open file, keeping logical offsets
// valid (the paper's fallocate(FALLOC_FL_PUNCH_HOLE) usage, Section 2.2.3).
type PunchHoler interface {
	PunchHole(f *os.File, off, length int64) error
}

// Extent metadata kept in memory per extent (Figure 2: "Extent Metadata").
type extentMeta struct {
	id    uint64
	size  uint64 // append watermark: next append lands here
	holed uint64 // bytes released by punch holes
	// blocks covers [0, size) in BlockSize steps; the extent's CRC is
	// their sums folded in order (crcOf).
	blocks []blockSum
}

// BlockSize is the span of one entry of an extent's block table: the
// data path's packet size, so a streamed read's chunk is one block.
const BlockSize = util.DefaultPacketSize

// blockSum is the CRC-32 of the first n bytes of one block. An append
// inside a block at its folded end extends the sum in O(1) with the
// append's own sum (util.CRCCombine); any other write makes the block
// unknown, and it stays unknown until the store is reopened - a read of it
// is served correctly without a sum, and Info rescans the file.
type blockSum struct {
	crc uint32
	n   uint32 // bytes folded from the block's start; unknownBlock: no sum
}

const unknownBlock = ^uint32(0)

// appended accounts an append of n bytes with CRC sum at off, the old
// watermark. The append extends the block it lies in when it starts at
// that block's folded end; otherwise every block it touches becomes
// unknown.
func (m *extentMeta) appended(off, n uint64, sum uint32) {
	m.size += n
	if n == 0 {
		return
	}
	first, last := off/BlockSize, (off+n-1)/BlockSize
	if first == last {
		if first == uint64(len(m.blocks)) && off%BlockSize == 0 {
			m.blocks = append(m.blocks, blockSum{})
		}
		if b := &m.blocks[first]; b.n != unknownBlock && first*BlockSize+uint64(b.n) == off {
			b.crc = util.CRCCombine(b.crc, sum, int64(n))
			b.n += uint32(n)
			return
		}
	}
	m.forgetBlocks(off, n)
}

// forgetBlocks marks every block that [off, off+n) touches unknown,
// extending the table to cover it.
func (m *extentMeta) forgetBlocks(off, n uint64) {
	if n == 0 {
		return
	}
	last := (off + n - 1) / BlockSize
	for uint64(len(m.blocks)) <= last {
		m.blocks = append(m.blocks, blockSum{n: unknownBlock})
	}
	for i := off / BlockSize; i <= last; i++ {
		m.blocks[i] = blockSum{n: unknownBlock}
	}
}

// foldSums returns the CRC of the bytes blocks cover, or false when a
// block has no sum.
func foldSums(blocks []blockSum) (uint32, bool) {
	var crc uint32
	for _, b := range blocks {
		if b.n == unknownBlock {
			return 0, false
		}
		crc = util.CRCCombine(crc, b.crc, int64(b.n))
	}
	return crc, true
}

// ExtentInfo is the externally visible summary of one extent, used by
// replica alignment during failure recovery (Section 2.2.5).
type ExtentInfo struct {
	ID    uint64
	Size  uint64
	CRC   uint32
	Holed uint64
}

// Options tunes an ExtentStore.
type Options struct {
	// ExtentSize caps each extent. Zero means DefaultExtentSize.
	ExtentSize uint64
	// PunchHoler frees deleted small-file ranges. Nil selects the
	// platform implementation (real fallocate on Linux, zero-fill
	// elsewhere).
	PunchHoler PunchHoler
}

// ExtentStore is the storage engine of one data partition.
type ExtentStore struct {
	dir        string
	extentSize uint64
	puncher    PunchHoler

	mu       sync.RWMutex
	files    map[uint64]*os.File
	metas    map[uint64]*extentMeta
	nextID   uint64
	smallExt uint64 // extent currently aggregating small files; 0 = none
	holesLog *os.File
	closed   bool
}

const holesLogName = "holes.log"

// Open loads (or creates) an extent store rooted at dir.
func Open(dir string, opts Options) (*ExtentStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &ExtentStore{
		dir:        dir,
		extentSize: opts.ExtentSize,
		puncher:    opts.PunchHoler,
		files:      make(map[uint64]*os.File),
		metas:      make(map[uint64]*extentMeta),
	}
	if s.extentSize == 0 {
		s.extentSize = DefaultExtentSize
	}
	if s.puncher == nil {
		s.puncher = platformPunchHoler()
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	if err := s.replayHoles(); err != nil {
		return nil, err
	}
	hl, err := os.OpenFile(filepath.Join(dir, holesLogName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	s.holesLog = hl
	return s, nil
}

func extentName(id uint64) string { return fmt.Sprintf("ext_%d", id) }

func (s *ExtentStore) scan() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "ext_") {
			continue
		}
		id, err := strconv.ParseUint(strings.TrimPrefix(name, "ext_"), 10, 64)
		if err != nil {
			continue
		}
		f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_RDWR, 0o644)
		if err != nil {
			return err
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return err
		}
		// The block table is rebuilt by scanning the extent once at open;
		// afterwards appends maintain it incrementally.
		blocks, err := scanExtent(f, fi.Size())
		if err != nil {
			f.Close()
			return err
		}
		s.files[id] = f
		s.metas[id] = &extentMeta{id: id, size: uint64(fi.Size()), blocks: blocks}
		if id >= s.nextID {
			s.nextID = id + 1
		}
	}
	if s.nextID == 0 {
		s.nextID = 1
	}
	return nil
}

// scanExtent reads the first size bytes of f once and returns their
// block table.
func scanExtent(f *os.File, size int64) ([]blockSum, error) {
	var blocks []blockSum
	buf := make([]byte, util.MinU64(uint64(size), BlockSize))
	for off := int64(0); off < size; off += int64(len(buf)) {
		buf = buf[:util.MinU64(uint64(size-off), BlockSize)]
		if _, err := f.ReadAt(buf, off); err != nil {
			return nil, err
		}
		blocks = append(blocks, blockSum{crc: util.CRC(buf), n: uint32(len(buf))})
	}
	return blocks, nil
}

func (s *ExtentStore) replayHoles() error {
	f, err := os.Open(filepath.Join(s.dir, holesLogName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	var rec [24]byte
	for {
		if _, err := io.ReadFull(f, rec[:]); err != nil {
			return nil // torn tail is fine; holes accounting is advisory
		}
		id := binary.BigEndian.Uint64(rec[0:])
		length := binary.BigEndian.Uint64(rec[16:])
		if m, ok := s.metas[id]; ok {
			m.holed += length
		}
	}
}

func (s *ExtentStore) logHole(id, off, length uint64) {
	var rec [24]byte
	binary.BigEndian.PutUint64(rec[0:], id)
	binary.BigEndian.PutUint64(rec[8:], off)
	binary.BigEndian.PutUint64(rec[16:], length)
	s.holesLog.Write(rec[:]) // best-effort; advisory accounting only
}

// Create allocates a new empty extent with the given id (the replication
// leader assigns ids and forwards them so replicas agree). Use NextID to
// obtain a fresh id on the leader.
func (s *ExtentStore) Create(id uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return util.ErrClosed
	}
	if _, ok := s.metas[id]; ok {
		return fmt.Errorf("storage: extent %d: %w", id, util.ErrExist)
	}
	f, err := os.OpenFile(filepath.Join(s.dir, extentName(id)), os.O_CREATE|os.O_RDWR|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	s.files[id] = f
	s.metas[id] = &extentMeta{id: id}
	if id >= s.nextID {
		s.nextID = id + 1
	}
	return nil
}

// NextID reserves and returns a fresh extent id (does not create the file).
func (s *ExtentStore) NextID() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextID
	s.nextID++
	return id
}

// Append writes data at the extent's current watermark and returns the
// offset it landed at. New files always start at offset zero of a fresh
// extent (Section 2.2.2), which this API guarantees structurally.
func (s *ExtentStore) Append(id uint64, data []byte) (uint64, error) {
	return s.AppendSum(id, data, util.CRC(data))
}

// AppendSum is Append for callers that already hold data's verified
// CRC-32 (e.g. a data node that just ran VerifyCRC on the wire frame):
// the store folds sum into the extent's running CRC by combination
// instead of re-scanning the payload, keeping the hot write path at one
// checksum pass per chunk per node.
func (s *ExtentStore) AppendSum(id uint64, data []byte, sum uint32) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(id, data, sum)
}

func (s *ExtentStore) appendLocked(id uint64, data []byte, sum uint32) (uint64, error) {
	if s.closed {
		return 0, util.ErrClosed
	}
	f, m, err := s.get(id)
	if err != nil {
		return 0, err
	}
	if m.size+uint64(len(data)) > s.extentSize {
		return 0, fmt.Errorf("storage: extent %d: %w", id, util.ErrFull)
	}
	off := m.size
	if _, err := f.WriteAt(data, int64(off)); err != nil {
		return 0, fmt.Errorf("storage: append extent %d: %w", id, err)
	}
	m.appended(off, uint64(len(data)), sum)
	return off, nil
}

// AppendAt writes data at exactly off, which must equal the current
// watermark; replicas use it to apply forwarded appends deterministically.
// A duplicate of an already-applied append (off+len <= watermark) succeeds
// idempotently.
func (s *ExtentStore) AppendAt(id uint64, off uint64, data []byte) error {
	return s.AppendAtSum(id, off, data, util.CRC(data))
}

// AppendAtSum is AppendAt with a caller-verified payload CRC; see
// AppendSum.
func (s *ExtentStore) AppendAtSum(id uint64, off uint64, data []byte, sum uint32) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return util.ErrClosed
	}
	f, m, err := s.get(id)
	if err != nil {
		return err
	}
	if off+uint64(len(data)) <= m.size {
		return nil // duplicate delivery; already applied
	}
	if off != m.size {
		return fmt.Errorf("storage: extent %d: append at %d but watermark %d: %w",
			id, off, m.size, util.ErrStale)
	}
	if m.size+uint64(len(data)) > s.extentSize {
		return fmt.Errorf("storage: extent %d: %w", id, util.ErrFull)
	}
	if _, err := f.WriteAt(data, int64(off)); err != nil {
		return fmt.Errorf("storage: append extent %d: %w", id, err)
	}
	m.appended(off, uint64(len(data)), sum)
	return nil
}

// WriteAt overwrites bytes inside the written region (in-place random
// write, Section 2.7.2). The range must not extend the extent.
func (s *ExtentStore) WriteAt(id uint64, off uint64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return util.ErrClosed
	}
	f, m, err := s.get(id)
	if err != nil {
		return err
	}
	if off+uint64(len(data)) > m.size {
		return fmt.Errorf("storage: extent %d: overwrite [%d,%d) beyond size %d: %w",
			id, off, off+uint64(len(data)), m.size, util.ErrOutOfRange)
	}
	if _, err := f.WriteAt(data, int64(off)); err != nil {
		return fmt.Errorf("storage: overwrite extent %d: %w", id, err)
	}
	m.forgetBlocks(off, uint64(len(data)))
	return nil
}

// ReadAt reads length bytes at off. Reads beyond the watermark fail with
// util.ErrOutOfRange: replication guarantees the caller only asks for
// committed ranges (Section 2.2.5).
func (s *ExtentStore) ReadAt(id uint64, off uint64, length uint32) ([]byte, error) {
	buf := make([]byte, length)
	if err := s.ReadInto(id, off, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadInto reads len(buf) bytes at off of an extent into a caller-provided
// buffer, so hot read paths (the streamed read session's pooled chunk
// buffers) avoid a per-block allocation inside the store.
func (s *ExtentStore) ReadInto(id uint64, off uint64, buf []byte) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return util.ErrClosed
	}
	f, m, err := s.get(id)
	if err != nil {
		return err
	}
	if off+uint64(len(buf)) > m.size {
		return fmt.Errorf("storage: extent %d: read [%d,%d) beyond size %d: %w",
			id, off, off+uint64(len(buf)), m.size, util.ErrOutOfRange)
	}
	if len(buf) == 0 {
		return nil
	}
	if _, err := f.ReadAt(buf, int64(off)); err != nil {
		return fmt.Errorf("storage: read extent %d: %w", id, err)
	}
	return nil
}

// BlockSum returns the stored CRC-32 of [off, off+n) of an extent when
// that range is one whole block the store holds a sum for: off is a
// multiple of BlockSize and n is every byte folded into the block so far
// (BlockSize, or less for the tail block). The sum was verified on ingest,
// so a caller serving the range needs no checksum pass of its own; bytes
// that changed on disk since then fail the reader's check instead of
// being served with a fresh sum of the wrong bytes.
//
// f is the extent's file, for a caller that sends the range straight from
// it (sendfile). The store may close f at any time afterwards (Delete,
// Close); a caller pins it through f.SyscallConn, never Fd, so a closed f
// fails the read instead of touching a reused descriptor.
func (s *ExtentStore) BlockSum(id, off, n uint64) (sum uint32, f *os.File, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m := s.metas[id]
	if s.closed || m == nil || off%BlockSize != 0 || off/BlockSize >= uint64(len(m.blocks)) {
		return 0, nil, false
	}
	b := m.blocks[off/BlockSize]
	if b.n == unknownBlock || uint64(b.n) != n {
		return 0, nil, false
	}
	return b.crc, s.files[id], true
}

// AppendSmallFile aggregates data into the store's current small-file
// extent, rolling to a fresh one as needed, and returns the (extent id,
// offset) recorded in the file's metadata (Section 2.2.3).
func (s *ExtentStore) AppendSmallFile(data []byte) (uint64, uint64, error) {
	return s.AppendSmallFileSum(data, util.CRC(data))
}

// AppendSmallFileSum is AppendSmallFile with a caller-verified payload
// CRC; see AppendSum.
func (s *ExtentStore) AppendSmallFileSum(data []byte, sum uint32) (uint64, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, 0, util.ErrClosed
	}
	if uint64(len(data)) > s.extentSize {
		return 0, 0, fmt.Errorf("storage: small file of %d bytes exceeds extent size: %w",
			len(data), util.ErrInvalidArgument)
	}
	if s.smallExt != 0 {
		if m := s.metas[s.smallExt]; m != nil && m.size+uint64(len(data)) <= s.extentSize {
			off, err := s.appendLocked(s.smallExt, data, sum)
			return s.smallExt, off, err
		}
	}
	// Roll to a fresh aggregation extent.
	id := s.nextID
	s.nextID++
	f, err := os.OpenFile(filepath.Join(s.dir, extentName(id)), os.O_CREATE|os.O_RDWR|os.O_EXCL, 0o644)
	if err != nil {
		return 0, 0, err
	}
	s.files[id] = f
	s.metas[id] = &extentMeta{id: id}
	s.smallExt = id
	off, err := s.appendLocked(id, data, sum)
	return id, off, err
}

// SmallFileAt writes small-file content at an exact (extent, offset)
// position chosen by the replication leader; replicas create the extent on
// demand. Duplicate deliveries are idempotent.
func (s *ExtentStore) SmallFileAt(id uint64, off uint64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return util.ErrClosed
	}
	if _, ok := s.metas[id]; !ok {
		f, err := os.OpenFile(filepath.Join(s.dir, extentName(id)), os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return err
		}
		s.files[id] = f
		s.metas[id] = &extentMeta{id: id}
		if id >= s.nextID {
			s.nextID = id + 1
		}
	}
	f, m, err := s.get(id)
	if err != nil {
		return err
	}
	// Offsets are assigned by the replication leader and never overlap,
	// so out-of-order arrival is safe: write at the exact offset and
	// advance the watermark monotonically. A transient gap below the
	// watermark is filled when the delayed packet lands; clients only
	// read ranges that all replicas acknowledged. Duplicate deliveries
	// rewrite identical bytes, which is idempotent by construction.
	if _, err := f.WriteAt(data, int64(off)); err != nil {
		return err
	}
	if end := off + uint64(len(data)); end > m.size {
		m.size = end
	}
	m.forgetBlocks(off, uint64(len(data))) // arrival order is not offset order
	return nil
}

// PunchHole asynchronously frees [off, off+length) of a shared small-file
// extent (Section 2.2.3). The logical size is unchanged; reads of the holed
// range return zeros on Linux and zeroed bytes with the fallback puncher.
func (s *ExtentStore) PunchHole(id uint64, off, length uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return util.ErrClosed
	}
	return s.punchLocked(id, off, length)
}

func (s *ExtentStore) punchLocked(id uint64, off, length uint64) error {
	f, m, err := s.get(id)
	if err != nil {
		return err
	}
	if off+length > m.size {
		return fmt.Errorf("storage: extent %d: punch [%d,%d) beyond size %d: %w",
			id, off, off+length, m.size, util.ErrOutOfRange)
	}
	if err := s.puncher.PunchHole(f, int64(off), int64(length)); err != nil {
		return fmt.Errorf("storage: punch hole extent %d: %w", id, err)
	}
	m.holed += length
	m.forgetBlocks(off, length)
	s.logHole(id, off, length)
	return nil
}

// Truncate discards the extent's tail beyond size, moving the watermark
// back. Failure recovery uses it to drop a replica's DIVERGENT uncommitted
// tail after a leader promotion (Section 2.2.5): the promoted leader's
// watermark defines the truth, and a follower that applied forwards the new
// leader never saw must shed them before appends can continue
// deterministically. Truncating at or above the watermark is a no-op.
func (s *ExtentStore) Truncate(id uint64, size uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return util.ErrClosed
	}
	f, m, err := s.get(id)
	if err != nil {
		return err
	}
	if size >= m.size {
		return nil // nothing beyond size to discard
	}
	if err := f.Truncate(int64(size)); err != nil {
		return fmt.Errorf("storage: truncate extent %d: %w", id, err)
	}
	m.size = size
	m.holed = util.MinU64(m.holed, size)
	m.blocks = m.blocks[:(size+BlockSize-1)/BlockSize]
	if size%BlockSize != 0 {
		m.forgetBlocks(size, 1) // the cut block
	}
	return nil
}

// Delete removes a whole extent (large-file delete, Section 2.2.3: "the
// extents of the file can be removed directly from the disk").
func (s *ExtentStore) Delete(id uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return util.ErrClosed
	}
	return s.deleteLocked(id)
}

// Release frees [off, off+length) of an extent for a removed file and is
// the one place that chooses how (Sections 2.2.3, 2.7.3): a range covering
// the whole extent, [0, watermark), is deleted with the extent unless the
// extent is the open small-file aggregation extent; any other range is
// punched, since the bytes around it may belong to other files. The choice
// and the action share one lock hold, so no small-file append can land in
// between. deleted reports which was taken.
func (s *ExtentStore) Release(id uint64, off, length uint64) (deleted bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, util.ErrClosed
	}
	_, m, err := s.get(id)
	if err != nil {
		return false, err
	}
	if off == 0 && length == m.size && id != s.smallExt {
		return true, s.deleteLocked(id)
	}
	return false, s.punchLocked(id, off, length)
}

func (s *ExtentStore) deleteLocked(id uint64) error {
	f, _, err := s.get(id)
	if err != nil {
		return err
	}
	f.Close()
	delete(s.files, id)
	delete(s.metas, id)
	if s.smallExt == id {
		s.smallExt = 0
	}
	return os.Remove(filepath.Join(s.dir, extentName(id)))
}

// Info returns the metadata summary for one extent.
func (s *ExtentStore) Info(id uint64) (ExtentInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.metas[id]
	if !ok {
		return ExtentInfo{}, fmt.Errorf("storage: extent %d: %w", id, util.ErrNotFound)
	}
	return ExtentInfo{ID: m.id, Size: m.size, CRC: s.crcOf(m), Holed: m.holed}, nil
}

// crcOf returns the extent's CRC: its block sums folded in order, or a
// rescan of the file when a write left a block without a sum. Caller
// holds at least the read lock.
func (s *ExtentStore) crcOf(m *extentMeta) uint32 {
	if crc, ok := foldSums(m.blocks); ok {
		return crc
	}
	blocks, err := scanExtent(s.files[m.id], int64(m.size))
	if err != nil {
		return 0
	}
	crc, _ := foldSums(blocks)
	return crc
}

// Infos returns all extents ascending by id.
func (s *ExtentStore) Infos() []ExtentInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ExtentInfo, 0, len(s.metas))
	for _, m := range s.metas {
		out = append(out, ExtentInfo{ID: m.id, Size: m.size, CRC: s.crcOf(m), Holed: m.holed})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ExtentCount returns the number of live extents.
func (s *ExtentStore) ExtentCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.metas)
}

// Used returns logical bytes stored minus punched holes - the utilization
// figure data nodes report to the resource manager (Section 2.3.1).
func (s *ExtentStore) Used() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var used uint64
	for _, m := range s.metas {
		used += m.size - util.MinU64(m.holed, m.size)
	}
	return used
}

// Flush fsyncs every extent file.
func (s *ExtentStore) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, f := range s.files {
		if err := f.Sync(); err != nil {
			return fmt.Errorf("storage: sync extent %d: %w", id, err)
		}
	}
	return nil
}

// Close releases all file handles.
func (s *ExtentStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	for _, f := range s.files {
		f.Close()
	}
	return s.holesLog.Close()
}

func (s *ExtentStore) get(id uint64) (*os.File, *extentMeta, error) {
	m, ok := s.metas[id]
	if !ok {
		return nil, nil, fmt.Errorf("storage: extent %d: %w", id, util.ErrNotFound)
	}
	return s.files[id], m, nil
}
