package main

import (
	"bytes"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"os"
	"syscall"
)

// rng is splitmix64: tiny, seedable, and good enough to spread offsets and
// sizes. Every op list of the benchmark is drawn from one, so the same
// -seed always yields the same inputs.
type rng struct{ s uint64 }

func newRNG(parts ...uint64) *rng {
	r := &rng{s: 0x9e3779b97f4a7c15}
	for _, p := range parts {
		r.s ^= p
		r.next()
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

const (
	pageSize   = 4096
	pageHeader = 24 // file id, page index, version
)

// content generates and verifies file bytes. Every 4 KiB page of every file
// is a seeded base page with a 24-byte stamp (file, page index, version)
// over its head, so content = f(seed, file, page, version): a read that
// returns another file's bytes, another offset's bytes or a stale version
// fails verification, while generation stays a memcpy so the load
// generator does not compete with the cluster for the box's two cores.
type content struct {
	base [pageSize]byte
}

func newContent(seed uint64) *content {
	c := &content{}
	r := newRNG(seed, 0xc0ffee)
	for i := 0; i < pageSize; i += 8 {
		binary.LittleEndian.PutUint64(c.base[i:], r.next())
	}
	return c
}

// fill writes the content of file at byte offset off (page aligned unless
// the buffer is a whole small file starting at 0) into p.
func (c *content) fill(p []byte, file uint64, off uint64, version uint32) {
	page := off / pageSize
	for len(p) > 0 {
		n := copy(p, c.base[:])
		if n >= pageHeader {
			binary.LittleEndian.PutUint64(p[0:], file)
			binary.LittleEndian.PutUint64(p[8:], page)
			binary.LittleEndian.PutUint32(p[16:], version)
			binary.LittleEndian.PutUint32(p[20:], ^version)
		}
		p = p[n:]
		page++
	}
}

// verify reports whether p holds exactly what fill would have written.
func (c *content) verify(p []byte, file uint64, off uint64, version uint32) bool {
	page := off / pageSize
	var hdr [pageHeader]byte
	for len(p) > 0 {
		n := len(p)
		if n > pageSize {
			n = pageSize
		}
		body := 0
		if n >= pageHeader {
			binary.LittleEndian.PutUint64(hdr[0:], file)
			binary.LittleEndian.PutUint64(hdr[8:], page)
			binary.LittleEndian.PutUint32(hdr[16:], version)
			binary.LittleEndian.PutUint32(hdr[20:], ^version)
			if !bytes.Equal(p[:pageHeader], hdr[:]) {
				return false
			}
			body = pageHeader
		}
		if !bytes.Equal(p[body:n], c.base[body:n]) {
			return false
		}
		p = p[n:]
		page++
	}
	return true
}

// opHash folds an op list into one number, so a test (and a reader of two
// runs' output) can tell that the same seed produced the same inputs.
type opHash struct{ h hash.Hash64 }

func newOpHash() *opHash { return &opHash{h: fnv.New64a()} }

func (o *opHash) add(vals ...uint64) {
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], v)
		o.h.Write(b[:])
	}
}

// addString folds in s and its length, so that "ab","c" and "a","bc" differ.
func (o *opHash) addString(s string) {
	o.add(uint64(len(s)))
	o.h.Write([]byte(s))
}

// allocatedBytes is the disk space a file occupies (st_blocks), which is
// what shrinks when the store punches a hole; Size would not.
func allocatedBytes(info os.FileInfo) int64 {
	if st, ok := info.Sys().(*syscall.Stat_t); ok {
		return st.Blocks * 512
	}
	return info.Size()
}
