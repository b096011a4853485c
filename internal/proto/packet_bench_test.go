package proto

import (
	"bytes"
	"fmt"
	"testing"

	"cfs/internal/util"
)

// BenchmarkReadFromPooled decodes one append frame per op the way a stream
// receive loop does - ReadFromPooled, then Release - at a small-file size
// and at the packet size. allocs/op is the decoder's allocations per
// packet; B/op shows whether the payload came from the chunk pool.
func BenchmarkReadFromPooled(b *testing.B) {
	for _, size := range []int{4 * util.KB, util.DefaultPacketSize} {
		b.Run(fmt.Sprintf("size=%dKiB", size/util.KB), func(b *testing.B) {
			var frame bytes.Buffer
			if _, err := NewPacket(OpDataAppend, 1, 2, 3, make([]byte, size)).WriteTo(&frame); err != nil {
				b.Fatal(err)
			}
			r := bytes.NewReader(frame.Bytes())
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Reset(frame.Bytes())
				var p Packet
				if _, err := p.ReadFromPooled(r); err != nil {
					b.Fatal(err)
				}
				p.Release()
			}
		})
	}
}

// BenchmarkAppendHeader encodes the wire header of a client append - the
// fixed fields plus two follower addresses - into a reused buffer, the
// way a gather-writing sender frames every packet. allocs/op must be 0.
func BenchmarkAppendHeader(b *testing.B) {
	p := NewPacket(OpDataAppend, 1, 2, 3, make([]byte, util.DefaultPacketSize))
	p.Followers = []string{"10.0.0.2:17310", "10.0.0.3:17310"}
	hdr, err := p.AppendHeader(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ReqID = uint64(i)
		if hdr, err = p.AppendHeader(hdr[:0]); err != nil {
			b.Fatal(err)
		}
	}
}
