package client

import (
	"fmt"
	"testing"

	"cfs/internal/proto"
)

// Ablation of a client optimization (DESIGN.md Section 7) on a cluster
// boot of four meta and eight data partitions: the same work with the
// optimization on and off.

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
