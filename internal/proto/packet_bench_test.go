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
