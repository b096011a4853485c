// Large files: sequential streaming writes through primary-backup
// replication (Figure 4) and in-place random overwrites through Raft
// (Figure 5) on one multi-megabyte file - the two write scenarios behind
// CFS's scenario-aware replication (Section 2.2.4).
//
//	go run ./examples/largefiles
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"cfs/internal/cluster"
	"cfs/internal/core"
	"cfs/internal/util"
)

func main() {
	c, err := cluster.Boot(cluster.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	if _, err := c.CreateVolume("warehouse", 4, 8); err != nil {
		log.Fatal(err)
	}

	fs, err := core.Mount(c.Net(), c.MasterAddr(), "warehouse", core.MountOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer fs.Unmount()

	if err := fs.MkdirAll("/warehouse"); err != nil {
		log.Fatal(err)
	}
	f, err := fs.Create("/warehouse/orders.dat")
	if err != nil {
		log.Fatal(err)
	}

	// Sequential load: stream 8 MB in 128 KB packets (the paper's packet
	// size). The client appends through the replica chain and records
	// extent keys, synced to the meta node on Fsync.
	const total = 8 * util.MB
	block := bytes.Repeat([]byte("order-record|"), 128*util.KB/13+1)[:128*util.KB]
	start := time.Now()
	for off := 0; off < total; off += len(block) {
		if _, err := f.Write(block); err != nil {
			log.Fatal(err)
		}
	}
	if err := f.Fsync(); err != nil {
		log.Fatal(err)
	}
	seqDur := time.Since(start)
	fmt.Printf("sequential write: %d MB in %v (%.1f MB/s)\n",
		total/util.MB, seqDur.Round(time.Millisecond),
		float64(total)/util.MB/seqDur.Seconds())

	// The file's extents: distributed across data partitions.
	info, _ := fs.Stat("/warehouse/orders.dat")
	ino, err := fs.Client().Meta.InodeGet(info.Inode, true)
	if err != nil {
		log.Fatal(err)
	}
	parts := map[uint64]bool{}
	for _, ek := range ino.Extents {
		parts[ek.PartitionID] = true
	}
	fmt.Printf("file spans %d extent keys across %d data partitions\n",
		len(ino.Extents), len(parts))

	// Random updates: overwrite 4 KB records in place. No extent is
	// created, no metadata changes - the write replicates through the
	// partition's Raft group.
	record := bytes.Repeat([]byte("U"), 4*util.KB)
	r := util.NewRand(2024)
	const updates = 64
	start = time.Now()
	for i := 0; i < updates; i++ {
		off := r.Int63n(total/(4*util.KB)) * 4 * util.KB
		if _, err := f.WriteAt(record, off); err != nil {
			log.Fatal(err)
		}
	}
	randDur := time.Since(start)
	fmt.Printf("random in-place overwrite: %d x 4KB in %v (%.0f IOPS)\n",
		updates, randDur.Round(time.Millisecond), updates/randDur.Seconds())

	// Size unchanged by in-place writes.
	if f.Size() != uint64(total) {
		log.Fatalf("size changed by overwrite: %d", f.Size())
	}

	// Verify one overwritten region round-trips.
	probe := make([]byte, 4*util.KB)
	if _, err := f.WriteAt(record, 1*util.MB); err != nil {
		log.Fatal(err)
	}
	if _, err := f.ReadAt(probe, 1*util.MB); err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(probe, record) {
		log.Fatal("overwritten region did not read back")
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("largefiles complete")
}
