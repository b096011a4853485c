package storage

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"cfs/internal/util"
)

func openStore(t *testing.T, opts Options) *ExtentStore {
	t.Helper()
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestCreateAppendRead(t *testing.T) {
	s := openStore(t, Options{})
	id := s.NextID()
	if err := s.Create(id); err != nil {
		t.Fatal(err)
	}
	off, err := s.Append(id, []byte("hello "))
	if err != nil || off != 0 {
		t.Fatalf("Append: off=%d err=%v", off, err)
	}
	off, err = s.Append(id, []byte("world"))
	if err != nil || off != 6 {
		t.Fatalf("second Append: off=%d err=%v", off, err)
	}
	got, err := s.ReadAt(id, 0, 11)
	if err != nil || string(got) != "hello world" {
		t.Fatalf("ReadAt = %q, %v", got, err)
	}
	got, err = s.ReadAt(id, 6, 5)
	if err != nil || string(got) != "world" {
		t.Fatalf("partial ReadAt = %q, %v", got, err)
	}
}

func TestCreateDuplicateFails(t *testing.T) {
	s := openStore(t, Options{})
	id := s.NextID()
	if err := s.Create(id); err != nil {
		t.Fatal(err)
	}
	if err := s.Create(id); !errors.Is(err, util.ErrExist) {
		t.Fatalf("duplicate create: %v", err)
	}
}

func TestReadBeyondWatermarkFails(t *testing.T) {
	s := openStore(t, Options{})
	id := s.NextID()
	s.Create(id)
	s.Append(id, []byte("12345"))
	if _, err := s.ReadAt(id, 3, 5); !errors.Is(err, util.ErrOutOfRange) {
		t.Fatalf("read past watermark: %v", err)
	}
}

func TestAppendAtExactOffset(t *testing.T) {
	s := openStore(t, Options{})
	id := s.NextID()
	s.Create(id)
	if err := s.AppendAt(id, 0, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	// Duplicate delivery is idempotent.
	if err := s.AppendAt(id, 0, []byte("abc")); err != nil {
		t.Fatalf("duplicate AppendAt: %v", err)
	}
	// Gap is rejected.
	if err := s.AppendAt(id, 10, []byte("zzz")); !errors.Is(err, util.ErrStale) {
		t.Fatalf("gapped AppendAt: %v", err)
	}
	if err := s.AppendAt(id, 3, []byte("def")); err != nil {
		t.Fatal(err)
	}
	got, _ := s.ReadAt(id, 0, 6)
	if string(got) != "abcdef" {
		t.Fatalf("content = %q", got)
	}
}

func TestOverwriteInPlace(t *testing.T) {
	s := openStore(t, Options{})
	id := s.NextID()
	s.Create(id)
	s.Append(id, []byte("aaaaaaaaaa"))
	if err := s.WriteAt(id, 3, []byte("XYZ")); err != nil {
		t.Fatal(err)
	}
	got, _ := s.ReadAt(id, 0, 10)
	if string(got) != "aaaXYZaaaa" {
		t.Fatalf("content = %q", got)
	}
	// Overwrite must not extend the extent.
	if err := s.WriteAt(id, 8, []byte("LONG")); !errors.Is(err, util.ErrOutOfRange) {
		t.Fatalf("extending overwrite: %v", err)
	}
}

func TestExtentFullOnAppend(t *testing.T) {
	s := openStore(t, Options{ExtentSize: 16})
	id := s.NextID()
	s.Create(id)
	if _, err := s.Append(id, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(id, []byte("x")); !errors.Is(err, util.ErrFull) {
		t.Fatalf("overfull append: %v", err)
	}
}

func TestCRCTracksAppends(t *testing.T) {
	s := openStore(t, Options{})
	id := s.NextID()
	s.Create(id)
	s.Append(id, []byte("hello "))
	s.Append(id, []byte("world"))
	info, err := s.Info(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.CRC != util.CRC([]byte("hello world")) {
		t.Fatalf("incremental CRC mismatch: %x", info.CRC)
	}
}

func TestCRCRescanAfterOverwrite(t *testing.T) {
	s := openStore(t, Options{})
	id := s.NextID()
	s.Create(id)
	s.Append(id, []byte("hello world"))
	s.WriteAt(id, 0, []byte("HELLO"))
	info, _ := s.Info(id)
	if info.CRC != util.CRC([]byte("HELLO world")) {
		t.Fatalf("post-overwrite CRC mismatch")
	}
}

func TestSmallFileAggregation(t *testing.T) {
	s := openStore(t, Options{ExtentSize: 64})
	type loc struct {
		id, off uint64
		data    string
	}
	var locs []loc
	for i := 0; i < 10; i++ {
		data := fmt.Sprintf("file-%02d-content", i) // 15 bytes
		id, off, err := s.AppendSmallFile([]byte(data))
		if err != nil {
			t.Fatal(err)
		}
		locs = append(locs, loc{id, off, data})
	}
	// 64-byte extents hold 4 files of 15 bytes; expect rolling.
	first := locs[0].id
	var rolled bool
	for _, l := range locs {
		if l.id != first {
			rolled = true
		}
		got, err := s.ReadAt(l.id, l.off, uint32(len(l.data)))
		if err != nil || string(got) != l.data {
			t.Fatalf("small file at (%d,%d) = %q, %v", l.id, l.off, got, err)
		}
	}
	if !rolled {
		t.Fatal("aggregation never rolled to a new extent")
	}
}

func TestSmallFileAtReplica(t *testing.T) {
	s := openStore(t, Options{})
	if err := s.SmallFileAt(42, 0, []byte("aaa")); err != nil {
		t.Fatal(err)
	}
	if err := s.SmallFileAt(42, 3, []byte("bbb")); err != nil {
		t.Fatal(err)
	}
	if err := s.SmallFileAt(42, 0, []byte("aaa")); err != nil {
		t.Fatalf("duplicate small-file write: %v", err)
	}
	got, _ := s.ReadAt(42, 0, 6)
	if string(got) != "aaabbb" {
		t.Fatalf("content = %q", got)
	}
	// Out-of-order delivery (leader-assigned disjoint offsets) is
	// accepted; the gap fills when the delayed packet arrives.
	if err := s.SmallFileAt(42, 9, []byte("ddd")); err != nil {
		t.Fatalf("out-of-order small-file write: %v", err)
	}
	if err := s.SmallFileAt(42, 6, []byte("ccc")); err != nil {
		t.Fatalf("gap-filling small-file write: %v", err)
	}
	got, _ = s.ReadAt(42, 0, 12)
	if string(got) != "aaabbbcccddd" {
		t.Fatalf("content after reorder = %q", got)
	}
}

func TestPunchHoleZeroesAndAccounts(t *testing.T) {
	puncher := &CountingPuncher{}
	s := openStore(t, Options{PunchHoler: puncher})
	id, off, err := s.AppendSmallFile([]byte("delete-me!"))
	if err != nil {
		t.Fatal(err)
	}
	s.AppendSmallFile([]byte("keep-me---"))
	usedBefore := s.Used()
	if err := s.PunchHole(id, off, 10); err != nil {
		t.Fatal(err)
	}
	if puncher.Calls != 1 || puncher.Bytes != 10 {
		t.Fatalf("puncher calls=%d bytes=%d", puncher.Calls, puncher.Bytes)
	}
	if got := s.Used(); got != usedBefore-10 {
		t.Fatalf("Used = %d, want %d", got, usedBefore-10)
	}
	// Logical size unchanged; holed range reads as zeros.
	got, err := s.ReadAt(id, off, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 10)) {
		t.Fatalf("holed range = %q", got)
	}
	// Neighbor content is intact.
	got2, _ := s.ReadAt(id, off+10, 10)
	if string(got2) != "keep-me---" {
		t.Fatalf("neighbor = %q", got2)
	}
}

func TestPunchHoleOutOfRange(t *testing.T) {
	s := openStore(t, Options{})
	id, off, _ := s.AppendSmallFile([]byte("1234"))
	if err := s.PunchHole(id, off, 99); !errors.Is(err, util.ErrOutOfRange) {
		t.Fatalf("oversized punch: %v", err)
	}
}

func TestDeleteExtent(t *testing.T) {
	s := openStore(t, Options{})
	id := s.NextID()
	s.Create(id)
	s.Append(id, []byte("data"))
	if err := s.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadAt(id, 0, 4); !errors.Is(err, util.ErrNotFound) {
		t.Fatalf("read of deleted extent: %v", err)
	}
	if s.ExtentCount() != 0 {
		t.Fatalf("ExtentCount = %d", s.ExtentCount())
	}
}

// TestReleaseDeletesOnlyWholeClosedExtents tables the store's one
// delete-vs-punch rule: only a range covering [0, watermark) of an extent
// that is not the open small-file aggregation extent deletes it.
func TestReleaseDeletesOnlyWholeClosedExtents(t *testing.T) {
	closed := func(s *ExtentStore) uint64 {
		id := s.NextID()
		s.Create(id)
		s.Append(id, []byte("0123456789"))
		return id
	}
	aggregating := func(s *ExtentStore) uint64 {
		id, _, _ := s.AppendSmallFile([]byte("0123456789"))
		return id
	}
	for _, tc := range []struct {
		name        string
		extent      func(*ExtentStore) uint64
		off, length uint64
		wantDeleted bool
		wantErr     error
		wantUsed    uint64
	}{
		{"covering range, closed extent", closed, 0, 10, true, nil, 0},
		{"covering range, open aggregation extent", aggregating, 0, 10, false, nil, 0},
		{"partial range", closed, 2, 4, false, nil, 6},
		{"range past the watermark", closed, 0, 11, false, util.ErrOutOfRange, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := openStore(t, Options{})
			id := tc.extent(s)
			deleted, err := s.Release(id, tc.off, tc.length)
			if deleted != tc.wantDeleted || !errors.Is(err, tc.wantErr) {
				t.Fatalf("Release = %v, %v; want %v, %v", deleted, err, tc.wantDeleted, tc.wantErr)
			}
			if _, err := s.Info(id); errors.Is(err, util.ErrNotFound) != tc.wantDeleted {
				t.Fatalf("extent present after Release: %v", err)
			}
			if got := s.Used(); got != tc.wantUsed {
				t.Fatalf("Used = %d, want %d", got, tc.wantUsed)
			}
		})
	}
}

func TestReopenRecoversState(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	id := s.NextID()
	s.Create(id)
	s.Append(id, []byte("persistent data"))
	sid, soff, _ := s.AppendSmallFile([]byte("small1"))
	s.PunchHole(sid, soff, 6)
	wantUsed := s.Used()
	infoBefore, _ := s.Info(id)
	s.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.ReadAt(id, 0, 15)
	if err != nil || string(got) != "persistent data" {
		t.Fatalf("reopened read = %q, %v", got, err)
	}
	infoAfter, err := s2.Info(id)
	if err != nil {
		t.Fatal(err)
	}
	if infoAfter.Size != infoBefore.Size || infoAfter.CRC != infoBefore.CRC {
		t.Fatalf("reopened info %+v != %+v", infoAfter, infoBefore)
	}
	if s2.Used() != wantUsed {
		t.Fatalf("reopened Used = %d, want %d (hole accounting lost)", s2.Used(), wantUsed)
	}
	// New ids never collide with recovered ones.
	nid := s2.NextID()
	if nid <= sid || nid <= id {
		t.Fatalf("NextID %d collides with recovered extents", nid)
	}
}

func TestInfosSorted(t *testing.T) {
	s := openStore(t, Options{})
	for i := 0; i < 5; i++ {
		id := s.NextID()
		s.Create(id)
		s.Append(id, []byte{byte(i)})
	}
	infos := s.Infos()
	if len(infos) != 5 {
		t.Fatalf("Infos len = %d", len(infos))
	}
	for i := 1; i < len(infos); i++ {
		if infos[i].ID <= infos[i-1].ID {
			t.Fatalf("Infos not sorted: %v", infos)
		}
	}
}

func TestClosedStore(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Append(1, nil); !errors.Is(err, util.ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestQuickReadYourWrites(t *testing.T) {
	s := openStore(t, Options{ExtentSize: 1 << 20})
	id := s.NextID()
	s.Create(id)
	var mirror []byte
	prop := func(chunk []byte) bool {
		if len(chunk) == 0 {
			return true
		}
		if uint64(len(mirror)+len(chunk)) > 1<<20 {
			return true
		}
		off, err := s.Append(id, chunk)
		if err != nil || off != uint64(len(mirror)) {
			return false
		}
		mirror = append(mirror, chunk...)
		got, err := s.ReadAt(id, 0, uint32(len(mirror)))
		return err == nil && bytes.Equal(got, mirror)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickOverwriteMirror(t *testing.T) {
	s := openStore(t, Options{ExtentSize: 1 << 16})
	id := s.NextID()
	s.Create(id)
	const size = 4096
	mirror := make([]byte, size)
	s.Append(id, make([]byte, size))
	prop := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		o := uint64(off) % size
		if o+uint64(len(data)) > size {
			data = data[:size-o]
		}
		if len(data) == 0 {
			return true
		}
		if err := s.WriteAt(id, o, data); err != nil {
			return false
		}
		copy(mirror[o:], data)
		got, err := s.ReadAt(id, 0, size)
		return err == nil && bytes.Equal(got, mirror)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAppend128K(b *testing.B) {
	s, err := Open(b.TempDir(), Options{ExtentSize: 1 << 40})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	id := s.NextID()
	s.Create(id)
	data := make([]byte, 128*util.KB)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Append(id, data); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTruncateDiscardsTail(t *testing.T) {
	s := openStore(t, Options{})
	id := s.NextID()
	if err := s.Create(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(id, []byte("keep-these|drop-these")); err != nil {
		t.Fatal(err)
	}
	if err := s.Truncate(id, 10); err != nil {
		t.Fatal(err)
	}
	info, err := s.Info(id)
	if err != nil || info.Size != 10 {
		t.Fatalf("size after truncate = %d, %v", info.Size, err)
	}
	if got, err := s.ReadAt(id, 0, 10); err != nil || string(got) != "keep-these" {
		t.Fatalf("surviving bytes = %q, %v", got, err)
	}
	// The watermark moved back: the next replicated append lands AT the
	// truncation point deterministically (the promotion-alignment use).
	if err := s.AppendAt(id, 10, []byte("!new")); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.ReadAt(id, 0, 14); string(got) != "keep-these!new" {
		t.Fatalf("post-truncate append = %q", got)
	}
	// At-or-above the watermark is a no-op, and unknown extents error.
	if err := s.Truncate(id, 100); err != nil {
		t.Fatalf("no-op truncate: %v", err)
	}
	if err := s.Truncate(999, 0); !errors.Is(err, util.ErrNotFound) {
		t.Fatalf("truncate of unknown extent: %v", err)
	}
}

func TestReadIntoBoundsAndContent(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id := s.NextID()
	if err := s.Create(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(id, []byte("read-into-me")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if err := s.ReadInto(id, 5, buf); err != nil || string(buf) != "into" {
		t.Fatalf("ReadInto = %q, %v", buf, err)
	}
	if err := s.ReadInto(id, 10, make([]byte, 4)); err == nil {
		t.Fatal("ReadInto past the watermark succeeded")
	}
	if err := s.ReadInto(id, 12, nil); err != nil {
		t.Fatalf("zero-length ReadInto at the watermark: %v", err)
	}
}
