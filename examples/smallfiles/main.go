// Small files: the paper's product-image scenario (Section 4.4) - many
// kilobyte-sized files written once and never modified. Demonstrates the
// aggregated small-file path: whole files go straight into shared extents
// with no extent-creation round trip, and deletion frees space with punch
// holes instead of a garbage collector (Section 2.2.3).
//
//	go run ./examples/smallfiles
package main

import (
	"fmt"
	"log"

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
	if _, err := c.CreateVolume("catalog", 4, 8); err != nil {
		log.Fatal(err)
	}

	fs, err := core.Mount(c.Net(), c.MasterAddr(), "catalog", core.MountOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer fs.Unmount()

	if err := fs.MkdirAll("/products/images"); err != nil {
		log.Fatal(err)
	}

	// Upload 200 "product images" of 4 KB each.
	img := make([]byte, 4*util.KB)
	for i := range img {
		img[i] = byte(i * 7)
	}
	const count = 200
	for i := 0; i < count; i++ {
		f, err := fs.Create(fmt.Sprintf("/products/images/sku-%05d.jpg", i))
		if err != nil {
			log.Fatal(err)
		}
		if _, err := f.Write(img); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("wrote %d small files of %d bytes\n", count, len(img))

	// The files aggregate into a handful of shared extents, not one
	// extent each: inspect the extent keys of a few inodes.
	extents := map[uint64]bool{}
	for i := 0; i < count; i++ {
		info, err := fs.Stat(fmt.Sprintf("/products/images/sku-%05d.jpg", i))
		if err != nil {
			log.Fatal(err)
		}
		ino, err := fs.Client().Meta.InodeGet(info.Inode, true)
		if err != nil {
			log.Fatal(err)
		}
		for _, ek := range ino.Extents {
			extents[ek.PartitionID<<32|ek.ExtentID] = true
		}
	}
	fmt.Printf("%d files share %d extents (aggregation at work)\n", count, len(extents))
	if len(extents) >= count {
		log.Fatal("expected aggregation into shared extents")
	}

	// Read one back and verify.
	f, err := fs.Open("/products/images/sku-00042.jpg")
	if err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, len(img))
	if _, err := f.ReadAt(buf, 0); err != nil {
		log.Fatal(err)
	}
	f.Close()
	for i := range buf {
		if buf[i] != img[i] {
			log.Fatalf("image content mismatch at byte %d", i)
		}
	}
	fmt.Println("read-back verified")

	// Delete half the catalog: content is freed asynchronously by
	// punching holes in the shared extents - offsets of surviving files
	// never move, so no GC or compaction is needed.
	for i := 0; i < count; i += 2 {
		if err := fs.Remove(fmt.Sprintf("/products/images/sku-%05d.jpg", i)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("deleted %d files (punch-hole cleanup runs asynchronously)\n", count/2)

	// Survivors still read correctly.
	f2, err := fs.Open("/products/images/sku-00043.jpg")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := f2.ReadAt(buf, 0); err != nil {
		log.Fatal(err)
	}
	f2.Close()
	fmt.Println("surviving files intact after neighbor deletion")
	fmt.Println("smallfiles complete")
}
