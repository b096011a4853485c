package storage

import (
	"fmt"
	"testing"

	"cfs/internal/util"
)

// benchSpan is how many bytes the read and overwrite benchmarks touch, and
// where the append benchmark rewinds its extent: large enough to leave the
// CPU caches, small enough that a long run does not fill the disk.
const benchSpan = 64 * util.MB

// benchExtent opens a store in a temporary directory with one extent of
// size bytes, written in 128 KiB appends.
func benchExtent(b *testing.B, size int) (*ExtentStore, uint64) {
	b.Helper()
	s, err := Open(b.TempDir(), Options{ExtentSize: 1 << 40})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	id := s.NextID()
	if err := s.Create(id); err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 128*util.KB)
	for off := 0; off < size; off += len(data) {
		if _, err := s.Append(id, data); err != nil {
			b.Fatal(err)
		}
	}
	return s, id
}

// BenchmarkAppendSum128K is the replica's append: a 128 KiB packet whose
// CRC the caller already verified on the wire, folded into the extent's
// running CRC without a second pass.
func BenchmarkAppendSum128K(b *testing.B) {
	s, id := benchExtent(b, 0)
	data := make([]byte, util.DefaultPacketSize)
	sum := util.CRC(data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off, err := s.AppendSum(id, data, sum)
		if err != nil {
			b.Fatal(err)
		}
		if off+uint64(len(data)) >= benchSpan {
			b.StopTimer()
			if err := s.Truncate(id, 0); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

// BenchmarkReadInto reads into a caller buffer the way the streamed read
// session fills a pooled chunk: 128 KiB sequential chunks and 4 KiB
// random-read blocks, walking benchSpan in order.
func BenchmarkReadInto(b *testing.B) {
	s, id := benchExtent(b, benchSpan)
	for _, size := range []int{4 * util.KB, 128 * util.KB} {
		b.Run(fmt.Sprintf("size=%dKiB", size/util.KB), func(b *testing.B) {
			buf := make([]byte, size)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := uint64(i*size) % benchSpan
				if err := s.ReadInto(id, off, buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWriteAt4K is the in-place overwrite of a random-write block
// (Section 2.7.2), walking benchSpan in order.
func BenchmarkWriteAt4K(b *testing.B) {
	s, id := benchExtent(b, benchSpan)
	data := make([]byte, 4*util.KB)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.WriteAt(id, uint64(i*len(data))%benchSpan, data); err != nil {
			b.Fatal(err)
		}
	}
}
