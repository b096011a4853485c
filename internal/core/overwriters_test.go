package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cfs/internal/proto"
	"cfs/internal/util"
)

// TestConcurrentOverwritersKeepLeaders: two mounts overwrite 4 KiB blocks
// of their own files at once for 2 s, on the Memory fabric and on TCP. No
// overwrite may fail, and no data partition's Raft term may rise once the
// groups have settled. Concurrent overwriters used to cost a resend of
// every unacked entry per proposal and per answer; the flood starved the
// followers' event loops of heartbeats until they ran elections, and the
// proposals in flight failed.
func TestConcurrentOverwritersKeepLeaders(t *testing.T) {
	for _, fabric := range []string{"memory", "tcp"} {
		t.Run(fabric, func(t *testing.T) {
			const fileSize, block = util.MB, 4 * util.KB
			e := startEnvOn(t, fabric, MountOptions{})
			fs2, err := Mount(e.Net(), e.MasterAddr(), "vol", MountOptions{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(fs2.Unmount)
			var files []*File
			for i, fs := range []*FileSystem{e.fs, fs2} {
				f, err := fs.Create(fmt.Sprintf("/ow%d", i))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write(make([]byte, fileSize)); err != nil {
					t.Fatal(err)
				}
				if err := f.Fsync(); err != nil {
					t.Fatal(err)
				}
				// Warm-up: the first overwrite finds the group's leader.
				if _, err := f.WriteAt(make([]byte, block), 0); err != nil {
					t.Fatal(err)
				}
				files = append(files, f)
			}
			before := e.settledDataTerms()

			var ops, failed atomic.Int64
			var wg sync.WaitGroup
			stop := time.Now().Add(2 * time.Second)
			for i, f := range files {
				wg.Add(1)
				go func(i int, f *File) {
					defer wg.Done()
					r := util.NewRand(uint64(i + 1))
					buf := make([]byte, block)
					for time.Now().Before(stop) {
						buf[0]++
						off := int64(r.Intn(fileSize/block)) * block
						if _, err := f.WriteAt(buf, off); err != nil {
							if failed.Add(1) == 1 {
								t.Errorf("overwrite at %d of %s: %v", off, f.Path(), err)
							}
						}
						ops.Add(1)
					}
				}(i, f)
			}
			wg.Wait()
			t.Logf("%s: %d overwrites in 2 s by two mounts, %d failed", fabric, ops.Load(), failed.Load())
			if failed.Load() != 0 {
				t.Fatalf("%d of %d concurrent overwrites failed", failed.Load(), ops.Load())
			}
			after, _ := e.dataTerms()
			for k, term := range after {
				if term != before[k] {
					t.Errorf("%s: term %d -> %d during concurrent overwrites", k, before[k], term)
				}
			}
		})
	}
}

// dataTerms maps "node/dpN" to that replica's Raft term for every data
// partition replica, and reports whether every partition's replicas agree
// on one term and know its leader.
func (e *testEnv) dataTerms() (terms map[string]uint64, settled bool) {
	var view proto.GetVolumeResp
	if err := e.Net().Call(e.MasterAddr(), uint8(proto.OpMasterGetVolume), &proto.GetVolumeReq{Name: "vol"}, &view); err != nil {
		e.t.Fatal(err)
	}
	terms, settled = map[string]uint64{}, true
	for _, dp := range view.View.DataPartitions {
		var first *uint64
		for _, dn := range e.DataNodes() {
			p := dn.Partition(dp.PartitionID)
			if p == nil {
				continue
			}
			st := p.RaftStatus()
			terms[fmt.Sprintf("%s/dp%d", dn.Addr(), dp.PartitionID)] = st.Term
			if first == nil {
				first = &st.Term
			}
			settled = settled && st.Leader != "" && st.Term == *first
		}
	}
	return terms, settled
}

// settledDataTerms waits until dataTerms reports settled groups.
func (e *testEnv) settledDataTerms() map[string]uint64 {
	e.t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		terms, settled := e.dataTerms()
		if settled {
			return terms
		}
		if time.Now().After(deadline) {
			e.t.Fatalf("data partition Raft groups never settled: %v", terms)
		}
	}
}
