package util

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func TestCRCDeterministic(t *testing.T) {
	a := CRC([]byte("hello"))
	b := CRC([]byte("hello"))
	if a != b {
		t.Fatalf("CRC not deterministic: %d != %d", a, b)
	}
	if CRC([]byte("hello")) == CRC([]byte("world")) {
		t.Fatalf("CRC collision on trivial inputs")
	}
}

func TestCRCEmpty(t *testing.T) {
	if CRC(nil) != CRC([]byte{}) {
		t.Fatalf("CRC(nil) != CRC(empty)")
	}
}

func TestErrorWrapping(t *testing.T) {
	err := fmt.Errorf("lookup inode 42: %w", ErrNotFound)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("wrapped error does not match ErrNotFound")
	}
	if errors.Is(err, ErrExist) {
		t.Fatalf("wrapped error incorrectly matches ErrExist")
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed rands diverged at step %d", i)
		}
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatalf("zero seed produced zero stream")
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(42)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) out of range: %d", v)
		}
	}
}

func TestRandIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRandPermIsPermutation(t *testing.T) {
	r := NewRand(5)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRandIntnUniformish(t *testing.T) {
	// Each bucket of 10 should get roughly n/10 hits; allow wide slack.
	r := NewRand(11)
	const n = 100000
	counts := make([]int, 10)
	for i := 0; i < n; i++ {
		counts[r.Intn(10)]++
	}
	for i, c := range counts {
		if c < n/10-n/50 || c > n/10+n/50 {
			t.Fatalf("bucket %d count %d too far from uniform", i, c)
		}
	}
}

func TestMinMax(t *testing.T) {
	if Min(3, 5) != 3 || Min(5, 3) != 3 {
		t.Fatal("Min wrong")
	}
	if Max(3, 5) != 5 || Max(5, 3) != 5 {
		t.Fatal("Max wrong")
	}
	if MinU64(3, 5) != 3 || MaxU64(3, 5) != 5 {
		t.Fatal("MinU64/MaxU64 wrong")
	}
}

func TestQuickMinMaxProperties(t *testing.T) {
	prop := func(a, b int) bool {
		lo, hi := Min(a, b), Max(a, b)
		return lo <= hi && (lo == a || lo == b) && (hi == a || hi == b)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCRCStability(t *testing.T) {
	prop := func(data []byte) bool {
		c := CRC(data)
		cp := make([]byte, len(data))
		copy(cp, data)
		return CRC(cp) == c
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChunkPoolRoundTrip(t *testing.T) {
	b := GetChunk(100)
	if len(b) != 100 || cap(b) != DefaultPacketSize {
		t.Fatalf("GetChunk(100) len=%d cap=%d", len(b), cap(b))
	}
	PutChunk(b)
	// Oversized requests bypass the pool and oversized puts are dropped.
	big := GetChunk(DefaultPacketSize + 1)
	if len(big) != DefaultPacketSize+1 {
		t.Fatalf("oversized GetChunk len=%d", len(big))
	}
	PutChunk(big)             // no-op: wrong size class
	PutChunk(make([]byte, 7)) // no-op: foreign buffer
	if c := GetChunk(DefaultPacketSize); len(c) != DefaultPacketSize || cap(c) != DefaultPacketSize {
		t.Fatalf("full-size GetChunk len=%d cap=%d", len(c), cap(c))
	}
}

// TestChunkPoolGetPutAllocatesNothing: a Get+Put pair of a pool-class
// buffer allocates nothing once the pool is warm. Under the race detector
// sync.Pool drops a random share of Puts on purpose, so the count is only
// meaningful without it.
func TestChunkPoolGetPutAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	PutChunk(GetChunk(DefaultPacketSize)) // warm
	allocs := testing.AllocsPerRun(100, func() {
		PutChunk(GetChunk(DefaultPacketSize / 2))
	})
	if allocs != 0 {
		t.Fatalf("GetChunk+PutChunk = %v allocs, want 0", allocs)
	}
}
