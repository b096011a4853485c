package client

import (
	"fmt"
	"testing"
	"time"

	"cfs/internal/proto"
	"cfs/internal/util"
)

// Ablations of two client optimizations (DESIGN.md Section 7), each on
// a cluster boot of four meta and eight data partitions: the same work
// with the optimization on and off.

// BenchmarkAblation_ReaddirBatchVsSingle isolates batchInodeGet (the
// DirStat win of Section 4.2): one listing of 64 files, ReadDir plus the
// entries' inodes, with and without batching.
func BenchmarkAblation_ReaddirBatchVsSingle(b *testing.B) {
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"batch", Config{}},
		{"single", Config{disableBatchInodeGet: true, CacheTTL: -1}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			c := bootCluster(b, "memory", "ablate", 4, 8)
			cl, err := Mount(c.Net(), c.MasterAddr(), "ablate", mode.cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			dir, err := cl.Meta.Create(proto.RootInodeID, "dir", proto.TypeDir, nil)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 64; i++ {
				if _, err := cl.Meta.Create(dir.Inode, fmt.Sprintf("f%03d", i), proto.TypeFile, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for range b.N {
				ents, err := cl.Meta.ReadDir(dir.Inode)
				if err != nil {
					b.Fatal(err)
				}
				ids := make([]uint64, len(ents))
				for i, d := range ents {
					ids[i] = d.Inode
				}
				if _, err := cl.Meta.BatchInodeGet(ids); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_LeaderCache is meant to isolate the client leader
// cache (Section 2.4): 4 KiB unary reads at 50 µs one-way latency with the
// cache probe the replica that served last; without it they walk the
// replica list. It isolates nothing while Members[0] leads every
// partition, as it does in every cluster boot: probe-all then reads from
// the first replica it tries, as leader-cache does. It measures the cache
// once leaders are spread over the replicas (ROADMAP direction 15).
func BenchmarkAblation_LeaderCache(b *testing.B) {
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"leader-cache", Config{}},
		{"probe-all", Config{disableLeaderCache: true, CacheTTL: -1}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			c := bootCluster(b, "memory", "ablate", 4, 8)
			c.Memory().SetLatency(50 * time.Microsecond)
			cl, err := Mount(c.Net(), c.MasterAddr(), "ablate", mode.cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			dp, err := cl.Data.PickWritable()
			if err != nil {
				b.Fatal(err)
			}
			ek := writeCommitted(b, cl, c.DataNodes(), dp, make([]byte, 512*util.KB))
			const block = 4 * util.KB
			b.ResetTimer()
			for i := range b.N {
				off := ek.ExtentOffset + uint64(i%(int(ek.Size)/block)*block)
				if _, err := cl.Data.Read(ek, off, block); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
