// Quickstart: assemble a complete in-process CFS cluster - resource
// manager, three meta nodes, three data nodes - create a volume, mount
// it, and run through the basic file operations.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"cfs/internal/cluster"
	"cfs/internal/core"
)

func main() {
	// 1. A resource manager (Section 2.3), three meta nodes (Section 2.1)
	// and three data nodes (Section 2.2) on the in-process network.
	// Production runs 3 manager replicas; one is plenty for a demo.
	c, err := cluster.Boot(cluster.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// 2. Create a volume: a set of meta + data partitions (Section 2).
	view, err := c.CreateVolume("demo", 2, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("volume %q: %d meta partitions, %d data partitions\n",
		"demo", len(view.MetaPartitions), len(view.DataPartitions))

	// 3. Mount and use it.
	fs, err := core.Mount(c.Net(), c.MasterAddr(), "demo", core.MountOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer fs.Unmount()

	if err := fs.MkdirAll("/app/logs"); err != nil {
		log.Fatal(err)
	}
	f, err := fs.Create("/app/logs/today.log")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := f.Write([]byte("hello from a containerized app\n")); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}

	f2, err := fs.Open("/app/logs/today.log")
	if err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, f2.Size())
	if _, err := f2.ReadAt(buf, 0); err != nil {
		log.Fatal(err)
	}
	f2.Close()
	fmt.Printf("read back: %q\n", buf)

	infos, err := fs.ReadDirPlus("/app/logs")
	if err != nil {
		log.Fatal(err)
	}
	for _, info := range infos {
		fmt.Printf("  %-12s %6d bytes  inode %d\n", info.Name, info.Size, info.Inode)
	}
	fmt.Println("quickstart complete")
}
