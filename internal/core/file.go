package core

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"cfs/internal/client"
	"cfs/internal/proto"
	"cfs/internal/util"
)

// File is an open CFS file. It follows the paper's client write model:
//
//   - Sequential writes stream through the primary-backup chain into the
//     file's current extent over a pipelined replication session, rolling
//     to a fresh extent on a new partition when needed (Figure 4). Extent
//     keys accumulate locally and sync to the meta node on Fsync/Close or
//     periodically (Section 2.7.1).
//   - Random writes are split at the current EOF: the overlapping part
//     overwrites in place through Raft (no metadata update needed, Figure
//     5); the rest is appended (Section 2.7.2).
//   - Whole small files (size <= threshold) skip extent creation and go
//     straight into a shared aggregated extent (Sections 2.2.3, 4.4).
//
// A File is safe for concurrent use by multiple goroutines, but CFS
// provides no cross-client locking: concurrent writers to overlapping
// ranges race (Section 2.7).
type File struct {
	fs   *FileSystem
	path string

	mu      sync.Mutex
	inode   uint64
	size    uint64
	pos     uint64
	extents []proto.ExtentKey // committed + locally pending, FileOffset order
	dirty   []proto.ExtentKey // committed to data nodes, not yet on the meta node
	dirtySz uint64            // size to report on next flush

	// Append state. w is the open writer on the current append target
	// (Figure 4 step 3: a partition chosen randomly, reused until full);
	// size runs ahead of committedSize while packets are in flight, and
	// every read/overwrite/seek/close settles the window first so clients
	// never observe uncommitted bytes.
	w             *client.ExtentWriter
	committedSize uint64 // all-replica acked watermark backing rollback

	// Streaming read state: a per-file reader holding the cross-ReadAt
	// readahead buffer, invalidated on every write/overwrite so reads
	// observe the file's own mutations (read-your-writes). lastReadEnd is
	// the sequentiality detector feeding the hybrid routing: reads that
	// continue where the previous one ended (or are block-sized anyway)
	// stream with readahead, small random reads take the one-round-trip
	// unary path.
	r           *client.ExtentReader
	lastReadEnd uint64
	// knownEnds memoizes extentKnownEnd per extent between writes: a
	// streamed writer leaves one key per packet, so a scan would
	// otherwise re-derive the same contiguous span once per key -
	// quadratic in the key count. Dropped with the readahead buffer on
	// every write.
	knownEnds map[extentRef]uint64

	closed bool
}

// extentRef names one extent for the per-file caches.
type extentRef struct{ pid, extent uint64 }

func newFile(fs *FileSystem, p string, ino *proto.Inode) *File {
	f := &File{
		fs:            fs,
		path:          p,
		inode:         ino.Inode,
		size:          ino.Size,
		committedSize: ino.Size,
		extents:       append([]proto.ExtentKey(nil), ino.Extents...),
	}
	sort.Slice(f.extents, func(i, j int) bool {
		return f.extents[i].FileOffset < f.extents[j].FileOffset
	})
	return f
}

// Path returns the path the file was opened with.
func (f *File) Path() string { return f.path }

// Inode returns the file's inode id.
func (f *File) Inode() uint64 { return f.inode }

// Size returns the current file size (including unflushed appends).
func (f *File) Size() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size
}

// Write appends/overwrites at the current position (io.Writer).
func (f *File) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.writeAtLocked(f.pos, p)
	f.pos += uint64(n)
	return n, err
}

// WriteAt writes at an absolute offset (io.WriterAt).
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("core: negative offset: %w", util.ErrInvalidArgument)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.writeAtLocked(uint64(off), p)
}

func (f *File) writeAtLocked(off uint64, p []byte) (int, error) {
	if f.closed {
		return 0, util.ErrClosed
	}
	if len(p) == 0 {
		return 0, nil
	}
	if off > f.size {
		return 0, fmt.Errorf("core: write at %d past EOF %d: %w", off, f.size, util.ErrOutOfRange)
	}
	// Read-your-writes for the readahead buffer, after validation so a
	// rejected write does not cost warm read state: an overwrite mutates
	// extent bytes in place and an append extends spans the reader may
	// have half-prefetched, so any buffered chunks are stale now - and
	// so are the memoized contiguous-span ends.
	if f.r != nil {
		f.r.Invalidate()
	}
	f.knownEnds = nil
	written := 0
	// Overwrite the part overlapping existing content in place
	// (Section 2.7.2). Bytes below the optimistic size may still be in
	// flight on the append pipeline; settle the window first so the
	// overwrite targets committed extents.
	if off < f.size {
		if err := f.flushWriterLocked(); err != nil {
			return written, err
		}
		overlap := util.MinU64(f.size-off, uint64(len(p)))
		if err := f.overwriteLocked(off, p[:overlap]); err != nil {
			return written, err
		}
		written += int(overlap)
		off += overlap
		p = p[overlap:]
	}
	if len(p) == 0 {
		return written, nil
	}
	// Append the rest sequentially.
	n, err := f.appendLocked(off, p)
	written += n
	return written, err
}

// appendLocked appends data at off == f.size.
func (f *File) appendLocked(off uint64, p []byte) (int, error) {
	cfg := f.fs.c.Config()
	// Whole-small-file fast path: one packet, no extent-creation RPC.
	if off == 0 && len(p) <= cfg.SmallFileThreshold {
		ek, err := f.fs.c.Data.WriteSmallFile(0, p)
		if err != nil {
			return 0, err
		}
		f.noteWritten(ek)
		return len(p), nil
	}
	// Everything else goes through the pipelined replication session:
	// packets enter the writer's in-flight window and the call returns
	// once they are ACCEPTED, not committed - commit acks drain in the
	// background and are settled at the next flush point (Close, Fsync,
	// Seek, a read, or an overwrite). A window failure replays the
	// uncommitted tail on a fresh extent.
	written := 0
	for written < len(p) {
		if f.w == nil {
			if err := f.openWriterLocked(); err != nil {
				return written, err
			}
		}
		n, werr := f.w.Write(off+uint64(written), p[written:])
		written += n
		if end := off + uint64(written); end > f.size {
			f.size = end // optimistic; rolled back if the flush fails hard
		}
		if werr != nil {
			// The writer is poisoned (extent full, partition read-only,
			// replica failure, ...); settle and replay its window.
			if err := f.flushWriterLocked(); err != nil {
				return written, err
			}
		}
	}
	return written, nil
}

// openWriterLocked starts a streaming writer on a random writable
// partition, refreshing the view once when the first choice fails
// (Section 2.3.3 exception handling).
func (f *File) openWriterLocked() error {
	dp, err := f.fs.c.Data.PickWritable()
	if err != nil {
		return err
	}
	w, err := f.fs.c.Data.NewExtentWriter(dp)
	if err != nil {
		_ = f.fs.c.Refresh()
		dp, err = f.fs.c.Data.PickWritable()
		if err != nil {
			return err
		}
		w, err = f.fs.c.Data.NewExtentWriter(dp)
		if err != nil {
			return err
		}
	}
	f.w = w
	return nil
}

// flushWriterLocked settles the streaming window: commits become extent
// keys, and an uncommitted tail is replayed on fresh extents/partitions
// while the failure is retriable (the paper's "resend a write request for
// the remaining k-p MB to the extents in different data partitions"). On a
// hard failure the optimistic size rolls back to the all-replica committed
// watermark and the error surfaces - like a failed fsync, later than the
// Write that accepted the bytes, but never silently.
func (f *File) flushWriterLocked() error {
	if f.w == nil {
		return nil
	}
	var carry []client.PendingWrite
	for attempt := 0; ; attempt++ {
		keys, pend, err := f.w.Drain()
		for _, ek := range keys {
			f.noteWritten(ek)
		}
		if err == nil && len(carry) == 0 {
			return nil // window fully committed; the writer stays open
		}
		f.w.Close()
		f.w = nil
		carry = append(pend, carry...)
		if len(keys) > 0 {
			// Progress was made; rolling to the next extent is the normal
			// course of a large write, not a retry. Only a stuck window
			// burns attempts.
			attempt = 0
		}
		if (err != nil && !retriableAppendErr(err)) || attempt >= f.fs.c.Config().MaxRetries {
			f.size = f.committedSize
			return err
		}
		if errors.Is(err, util.ErrStale) {
			// Staleness means the VIEW is behind (session retired under a
			// leader move, or the replica epoch advanced past ours after a
			// failover); replaying against the cached record would earn
			// the same reject, so re-pull before re-dialing.
			_ = f.fs.c.Refresh()
		}
		if oerr := f.openWriterLocked(); oerr != nil {
			f.size = f.committedSize
			return oerr
		}
		// Replay the uncommitted tail in order; a partial replay loops
		// back to Drain, which reports what stuck and what to carry on.
		for len(carry) > 0 {
			pw := carry[0]
			n, werr := f.w.Write(pw.FileOffset, pw.Data)
			if n == len(pw.Data) {
				carry = carry[1:]
				if werr == nil {
					continue
				}
			} else {
				carry[0] = client.PendingWrite{FileOffset: pw.FileOffset + uint64(n), Data: pw.Data[n:]}
			}
			break // writer failed again; next Drain sorts it out
		}
	}
}

// noteWritten records a committed extent key locally (pending meta sync).
func (f *File) noteWritten(ek proto.ExtentKey) {
	f.extents = append(f.extents, ek)
	f.dirty = append(f.dirty, ek)
	if ek.End() > f.size {
		f.size = ek.End()
	}
	if ek.End() > f.committedSize {
		f.committedSize = ek.End()
	}
	if ek.End() > f.dirtySz {
		f.dirtySz = ek.End()
	}
}

// overwriteLocked rewrites [off, off+len(p)) which lies fully below size.
func (f *File) overwriteLocked(off uint64, p []byte) error {
	for len(p) > 0 {
		ek, ok := f.keyCovering(off)
		if !ok {
			return fmt.Errorf("core: no extent covers offset %d of %s: %w", off, f.path, util.ErrNotFound)
		}
		span := util.MinU64(ek.End()-off, uint64(len(p)))
		extOff := ek.ExtentOffset + (off - ek.FileOffset)
		if err := f.fs.c.Data.Overwrite(ek, extOff, p[:span]); err != nil {
			return err
		}
		off += span
		p = p[span:]
	}
	return nil
}

// keyCovering finds the newest extent key covering a file offset.
func (f *File) keyCovering(off uint64) (proto.ExtentKey, bool) {
	// Later keys win (appends never overlap, but truncate+rewrite can
	// produce stale earlier keys).
	for i := len(f.extents) - 1; i >= 0; i-- {
		ek := f.extents[i]
		if ek.FileOffset <= off && off < ek.End() {
			return ek, true
		}
	}
	return proto.ExtentKey{}, false
}

// Read reads from the current position (io.Reader).
func (f *File) Read(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.readAtLocked(f.pos, p)
	f.pos += uint64(n)
	return n, err
}

// ReadAt reads at an absolute offset (io.ReaderAt).
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("core: negative offset: %w", util.ErrInvalidArgument)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.readAtLocked(uint64(off), p)
}

func (f *File) readAtLocked(off uint64, p []byte) (int, error) {
	if f.closed {
		return 0, util.ErrClosed
	}
	// Read-your-writes: settle the in-flight append window so every byte
	// below f.size is backed by an all-replica committed extent key.
	if f.w != nil && !f.w.Idle() {
		if err := f.flushWriterLocked(); err != nil {
			return 0, err
		}
	}
	if off >= f.size {
		return 0, io.EOF
	}
	want := util.MinU64(uint64(len(p)), f.size-off)
	// Sequential-run detection for the hybrid read routing: a read that
	// picks up where the last one ended is a scan worth streaming with
	// readahead even when its blocks are small.
	sequential := off > 0 && off == f.lastReadEnd
	read := uint64(0)
	for read < want {
		cur := off + read
		ek, ok := f.keyCovering(cur)
		if !ok {
			// Hole (e.g. truncate landed mid-extent): zeros.
			p[read] = 0
			read++
			continue
		}
		span := util.MinU64(ek.End()-cur, want-read)
		extOff := ek.ExtentOffset + (cur - ek.FileOffset)
		n, err := f.readSpanLocked(ek, extOff, p[read:read+span], sequential)
		read += uint64(n)
		if err != nil {
			f.lastReadEnd = off + read
			return int(read), err
		}
	}
	f.lastReadEnd = off + read
	var err error
	if int(read) < len(p) {
		err = io.EOF
	}
	return int(read), err
}

// readSpanLocked fetches one extent-backed span. Sequential runs and
// block-sized spans stream through the read session (pooled per replica,
// sliding readahead, committed-clamped follower offload); small random
// reads keep the unary Call - one round trip beats a stream's
// request+reply pair when there is no contiguity to prefetch, the same
// reason OS readahead turns itself off on random access. The unary path
// is also the fallback when the reader has exhausted its replicas - the
// belt-and-suspenders that keeps degraded clusters exactly as readable
// as before the pipeline.
func (f *File) readSpanLocked(ek proto.ExtentKey, extOff uint64, p []byte, sequential bool) (int, error) {
	stream := sequential || len(p) >= f.fs.c.Config().PacketSize/2
	if stream {
		if f.r == nil {
			f.r = f.fs.c.Data.NewExtentReader()
		}
		known := f.extentKnownEnd(ek)
		n, err := f.r.ReadAt(ek, extOff, p, known)
		// Point the reader at the file's next extent run AFTER the read:
		// when the scan later rolls onto it, the promoted run is adopted
		// first and only then is the hint re-derived for the extent after
		// that - so the readahead window straddles every extent boundary.
		f.setNextHintLocked(ek, known)
		if err == nil || n > 0 {
			// Partial progress: the caller's loop re-enters for the rest.
			return n, nil
		}
	}
	// One unary request asks for at most proto.MaxReadLen; the caller's
	// loop re-enters for the rest.
	p = p[:min(len(p), proto.MaxReadLen)]
	data, err := f.fs.c.Data.Read(ek, extOff, uint32(len(p)))
	if err != nil {
		return 0, err
	}
	copy(p, data)
	return len(data), nil
}

// setNextHintLocked derives where the file continues after ek's known
// contiguous span and hands it to the streaming reader as its
// cross-extent readahead target. Cleared when nothing follows (EOF, a
// hole) or when the span continues on the same extent (ordinary
// same-extent readahead covers that).
func (f *File) setNextHintLocked(ek proto.ExtentKey, known uint64) {
	nextFileOff := ek.FileOffset + (known - ek.ExtentOffset)
	nek, ok := f.keyCovering(nextFileOff)
	if !ok || (nek.PartitionID == ek.PartitionID && nek.ExtentID == ek.ExtentID) {
		f.r.ClearNextHint()
		return
	}
	start := nek.ExtentOffset + (nextFileOff - nek.FileOffset)
	f.r.SetNextHint(nek, start, f.extentKnownEnd(nek))
}

// extentKnownEnd returns the end of the contiguous byte span the file's
// extent keys prove exists in ek's extent starting from ek itself - the
// readahead bound: a streamed writer leaves one key per packet on the
// same extent, so sequential scans prefetch across key boundaries up to
// this limit (all keyed bytes are all-replica committed by construction).
// Memoized per extent until the next write: the derivation walks the
// whole key list, and a scan asks once per covering key.
func (f *File) extentKnownEnd(ek proto.ExtentKey) uint64 {
	ref := extentRef{ek.PartitionID, ek.ExtentID}
	if cached, ok := f.knownEnds[ref]; ok && cached >= ek.ExtentOffset+uint64(ek.Size) {
		return cached
	}
	end := ek.ExtentOffset + uint64(ek.Size)
	var tails []proto.ExtentKey
	for _, k := range f.extents {
		if k.PartitionID == ek.PartitionID && k.ExtentID == ek.ExtentID &&
			k.ExtentOffset+uint64(k.Size) > end {
			tails = append(tails, k)
		}
	}
	sort.Slice(tails, func(i, j int) bool { return tails[i].ExtentOffset < tails[j].ExtentOffset })
	for _, k := range tails {
		if k.ExtentOffset <= end {
			end = k.ExtentOffset + uint64(k.Size)
		}
	}
	if f.knownEnds == nil {
		f.knownEnds = make(map[extentRef]uint64)
	}
	f.knownEnds[ref] = end
	return end
}

// Seek implements io.Seeker. Seeking settles the in-flight append window
// first so SeekEnd lands on a committed size.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.flushWriterLocked(); err != nil {
		return 0, err
	}
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = int64(f.pos)
	case io.SeekEnd:
		base = int64(f.size)
	default:
		return 0, fmt.Errorf("core: bad whence %d: %w", whence, util.ErrInvalidArgument)
	}
	np := base + offset
	if np < 0 {
		return 0, fmt.Errorf("core: seek before start: %w", util.ErrInvalidArgument)
	}
	f.pos = uint64(np)
	return np, nil
}

// Fsync settles the in-flight append window, then pushes pending extent
// keys and the new size to the meta node (Figure 4 step 8; triggered by
// the application's fsync in the paper).
func (f *File) Fsync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.flushWriterLocked(); err != nil {
		return err
	}
	return f.fsyncLocked()
}

func (f *File) fsyncLocked() error {
	if len(f.dirty) == 0 {
		return nil
	}
	if err := f.fs.c.Meta.AppendExtentKeys(f.inode, f.dirty, f.dirtySz); err != nil {
		return err
	}
	f.dirty = nil
	f.dirtySz = 0
	return nil
}

// Close settles the append window, flushes metadata, and invalidates the
// handle. The handle is invalidated even when a flush fails, so the error
// reports data loss rather than leaving a half-usable file open.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	ferr := f.flushWriterLocked()
	if f.w != nil {
		f.w.Close()
		f.w = nil
	}
	if f.r != nil {
		f.r.Close() // releases readahead buffers; pooled sessions stay
		f.r = nil
	}
	serr := f.fsyncLocked()
	if ferr != nil {
		return ferr
	}
	return serr
}

// retriableAppendErr reports whether an append failure means "roll to
// another partition/extent" rather than a hard error. Timeouts qualify: a
// hung, crashed, or aborted replication session (ack deadline, half-open
// replica, stream EOF) surfaces as util.ErrTimeout with the uncommitted
// tail attached, and the right response is to replay that tail on a
// different partition. Staleness qualifies too: the session pool retires
// sessions under idle writers (or when the leader moves), and the
// replacement session is one reopen away.
func retriableAppendErr(err error) bool {
	return errors.Is(err, util.ErrFull) || errors.Is(err, util.ErrReadOnly) ||
		errors.Is(err, util.ErrTimeout) || errors.Is(err, util.ErrStale)
}
