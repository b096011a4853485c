package storage

import (
	"bytes"
	"hash/crc32"
	"testing"

	"cfs/internal/util"
)

// pattern returns n bytes that differ from block to block.
func pattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i*7+i/BlockSize)
	}
	return b
}

// wantBlockSum asserts the store's stored sum of [off, off+len(want)) is
// the CRC-32 of want.
func wantBlockSum(t *testing.T, s *ExtentStore, id, off uint64, want []byte) {
	t.Helper()
	sum, f, ok := s.BlockSum(id, off, uint64(len(want)))
	if !ok {
		t.Fatalf("BlockSum(%d, %d, %d): no stored sum", id, off, len(want))
	}
	if f == nil {
		t.Fatalf("BlockSum(%d, %d, %d): no file", id, off, len(want))
	}
	if sum != crc32.ChecksumIEEE(want) {
		t.Fatalf("BlockSum(%d, %d, %d) = %08x, want %08x", id, off, len(want), sum, crc32.ChecksumIEEE(want))
	}
}

func wantNoBlockSum(t *testing.T, s *ExtentStore, id, off, n uint64) {
	t.Helper()
	if _, _, ok := s.BlockSum(id, off, n); ok {
		t.Fatalf("BlockSum(%d, %d, %d): stored sum after a change that should forget it", id, off, n)
	}
}

// TestBlockSumTracksAppends: appends that carry their verified sum build
// the block table in O(1) per append - whole aligned blocks, a block
// filled by two halves (the leader's AppendSum and a follower's
// AppendAtSum alike) and a short tail block - and each stored sum is the
// CRC of the block's bytes.
func TestBlockSumTracksAppends(t *testing.T) {
	s := openStore(t, Options{})
	id := s.NextID()
	if err := s.Create(id); err != nil {
		t.Fatal(err)
	}
	data := pattern(3*BlockSize+BlockSize/4, 1)
	whole := data[:2*BlockSize]
	for off := 0; off < len(whole); off += BlockSize {
		chunk := whole[off : off+BlockSize]
		if _, err := s.AppendSum(id, chunk, util.CRC(chunk)); err != nil {
			t.Fatal(err)
		}
	}
	half := BlockSize / 2
	first, second := data[2*BlockSize:2*BlockSize+half], data[2*BlockSize+half:3*BlockSize]
	if err := s.AppendAtSum(id, 2*BlockSize, first, util.CRC(first)); err != nil {
		t.Fatal(err)
	}
	// The half block is a whole block of the table until it grows.
	wantBlockSum(t, s, id, 2*BlockSize, first)
	if err := s.AppendAtSum(id, 2*BlockSize+uint64(half), second, util.CRC(second)); err != nil {
		t.Fatal(err)
	}
	tail := data[3*BlockSize:]
	if _, err := s.AppendSum(id, tail, util.CRC(tail)); err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(data); off += BlockSize {
		end := min(off+BlockSize, len(data))
		wantBlockSum(t, s, id, uint64(off), data[off:end])
	}
	// Only whole blocks have a stored sum: not a prefix of one, not a
	// range that starts inside one, not one past the watermark.
	wantNoBlockSum(t, s, id, 0, BlockSize/2)
	wantNoBlockSum(t, s, id, 4096, BlockSize)
	wantNoBlockSum(t, s, id, 4*BlockSize, BlockSize)

	// Small files folded with their sums get the same table, and so do
	// appends whose sum the store computes itself.
	sid, soff, err := s.AppendSmallFileSum(first, util.CRC(first))
	if err != nil || soff != 0 {
		t.Fatalf("AppendSmallFileSum: off %d, %v", soff, err)
	}
	wantBlockSum(t, s, sid, 0, first)
	id2 := s.NextID()
	s.Create(id2)
	if _, err := s.Append(id2, tail); err != nil {
		t.Fatal(err)
	}
	wantBlockSum(t, s, id2, 0, tail)

	// The extent's CRC is its block sums folded together.
	info, err := s.Info(id)
	if err != nil || info.CRC != util.CRC(data) {
		t.Fatalf("Info CRC %08x, want %08x (%v)", info.CRC, util.CRC(data), err)
	}
}

// TestBlockSumForgottenByChanges: every write that is not an append inside
// one block makes the blocks it touches unknown, and leaves the others
// alone.
func TestBlockSumForgottenByChanges(t *testing.T) {
	s := openStore(t, Options{})
	data := pattern(4*BlockSize, 9)
	fresh := func() uint64 {
		t.Helper()
		id := s.NextID()
		if err := s.Create(id); err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(data); off += BlockSize {
			chunk := data[off : off+BlockSize]
			if _, err := s.AppendSum(id, chunk, util.CRC(chunk)); err != nil {
				t.Fatal(err)
			}
		}
		return id
	}
	block := func(i int) []byte { return data[i*BlockSize : (i+1)*BlockSize] }

	t.Run("crossing append", func(t *testing.T) {
		id := s.NextID()
		s.Create(id)
		head := data[:BlockSize/2]
		if _, err := s.AppendSum(id, head, util.CRC(head)); err != nil {
			t.Fatal(err)
		}
		cross := data[BlockSize/2 : BlockSize+BlockSize/2]
		if _, err := s.AppendSum(id, cross, util.CRC(cross)); err != nil {
			t.Fatal(err)
		}
		wantNoBlockSum(t, s, id, 0, BlockSize)
		wantNoBlockSum(t, s, id, BlockSize, BlockSize/2)
	})
	t.Run("WriteAt", func(t *testing.T) {
		id := fresh()
		if err := s.WriteAt(id, BlockSize+100, []byte("overwrite")); err != nil {
			t.Fatal(err)
		}
		wantNoBlockSum(t, s, id, BlockSize, BlockSize)
		wantBlockSum(t, s, id, 0, block(0))
		wantBlockSum(t, s, id, 2*BlockSize, block(2))
	})
	t.Run("punch", func(t *testing.T) {
		id := fresh()
		if err := s.PunchHole(id, 2*BlockSize-10, 20); err != nil {
			t.Fatal(err)
		}
		wantNoBlockSum(t, s, id, BlockSize, BlockSize)
		wantNoBlockSum(t, s, id, 2*BlockSize, BlockSize)
		wantBlockSum(t, s, id, 0, block(0))
		wantBlockSum(t, s, id, 3*BlockSize, block(3))
	})
	t.Run("truncate", func(t *testing.T) {
		id := fresh()
		if err := s.Truncate(id, 2*BlockSize+BlockSize/2); err != nil {
			t.Fatal(err)
		}
		wantNoBlockSum(t, s, id, 2*BlockSize, BlockSize/2)
		wantBlockSum(t, s, id, BlockSize, block(1))
		// A cut on a block boundary keeps the blocks below it, and the
		// next verified append starts a fresh block.
		if err := s.Truncate(id, BlockSize); err != nil {
			t.Fatal(err)
		}
		wantBlockSum(t, s, id, 0, block(0))
		if err := s.AppendAtSum(id, BlockSize, block(3), util.CRC(block(3))); err != nil {
			t.Fatal(err)
		}
		wantBlockSum(t, s, id, BlockSize, block(3))
		want := append(append([]byte(nil), block(0)...), block(3)...)
		if info, _ := s.Info(id); info.CRC != util.CRC(want) {
			t.Fatalf("Info CRC %08x after truncate and append, want %08x", info.CRC, util.CRC(want))
		}
	})
	t.Run("SmallFileAt", func(t *testing.T) {
		id := s.NextID()
		if err := s.SmallFileAt(id, 0, block(0)); err != nil {
			t.Fatal(err)
		}
		wantNoBlockSum(t, s, id, 0, BlockSize)
	})
}

// TestBlockSumRebuiltOnReopen: the table is rebuilt from the disk bytes
// by the scan that computes each extent's CRC at open, so a reopened
// store has the same sums - and sums for the blocks that writes had made
// unknown.
func TestBlockSumRebuiltOnReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	id := s.NextID()
	s.Create(id)
	data := pattern(2*BlockSize+1000, 3)
	for off := 0; off < len(data); off += BlockSize {
		chunk := data[off:min(off+BlockSize, len(data))]
		if _, err := s.AppendSum(id, chunk, util.CRC(chunk)); err != nil {
			t.Fatal(err)
		}
	}
	before := make(map[uint64]uint32)
	for off := uint64(0); off < uint64(len(data)); off += BlockSize {
		sum, _, ok := s.BlockSum(id, off, util.MinU64(BlockSize, uint64(len(data))-off))
		if !ok {
			t.Fatalf("block at %d has no sum", off)
		}
		before[off] = sum
	}
	if err := s.WriteAt(id, 10, []byte("XYZ")); err != nil {
		t.Fatal(err)
	}
	copy(data[10:], "XYZ")
	s.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for off := uint64(0); off < uint64(len(data)); off += BlockSize {
		end := util.MinU64(off+BlockSize, uint64(len(data)))
		wantBlockSum(t, s2, id, off, data[off:end])
		if sum, _, _ := s2.BlockSum(id, off, end-off); off > 0 && sum != before[off] {
			t.Fatalf("block at %d: reopened sum %08x, before %08x", off, sum, before[off])
		}
	}
	got, err := s2.ReadAt(id, 0, uint32(len(data)))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("reopened content differs: %v", err)
	}
}
