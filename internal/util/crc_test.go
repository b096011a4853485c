package util

import "testing"

// TestCRCCombine checks the GF(2) combine against a direct checksum over
// every split of several buffer shapes, including the empty edges and
// pool-class chunk sizes.
func TestCRCCombine(t *testing.T) {
	r := NewRand(0xC3C)
	sizes := []int{0, 1, 7, 64, 1000, 4096, DefaultPacketSize, DefaultPacketSize + 13}
	for _, total := range sizes {
		buf := make([]byte, total)
		for i := range buf {
			buf[i] = byte(r.Uint64())
		}
		splits := []int{0, total / 3, total / 2, total}
		for _, cut := range splits {
			a, b := buf[:cut], buf[cut:]
			got := CRCCombine(CRC(a), CRC(b), int64(len(b)))
			if want := CRC(buf); got != want {
				t.Fatalf("CRCCombine split %d of %d: got %08x want %08x", cut, total, got, want)
			}
		}
	}
	// Repeated same-length combines exercise the cached operator.
	run := []byte("abcdefgh")
	acc := uint32(0)
	var all []byte
	for i := 0; i < 50; i++ {
		acc = CRCCombine(acc, CRC(run), int64(len(run)))
		all = append(all, run...)
	}
	if want := CRC(all); acc != want {
		t.Fatalf("iterated combine: got %08x want %08x", acc, want)
	}
}
