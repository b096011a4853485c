// Shared volume: the paper's core container-platform motivation
// (Section 1) - one volume mounted by multiple clients simultaneously,
// the way several containers share persisted state. Demonstrates that a
// file written and fsynced by one client is immediately visible to
// another, and that two clients writing NON-overlapping regions of one
// file are both preserved (the consistency CFS promises in Section 3.3).
//
//	go run ./examples/sharedvolume
package main

import (
	"bytes"
	"fmt"
	"log"

	"cfs/internal/cluster"
	"cfs/internal/core"
)

func main() {
	// The in-process cluster every example and test boots: a master,
	// three meta nodes and three data nodes, then one volume.
	c, err := cluster.Boot(cluster.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	if _, err := c.CreateVolume("shared", 4, 8); err != nil {
		log.Fatal(err)
	}

	// Two independent mounts = two containers.
	c1, err := core.Mount(c.Net(), c.MasterAddr(), "shared", core.MountOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer c1.Unmount()
	c2, err := core.Mount(c.Net(), c.MasterAddr(), "shared", core.MountOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer c2.Unmount()

	// Container 1 publishes a config file.
	if err := c1.MkdirAll("/shared"); err != nil {
		log.Fatal(err)
	}
	f, err := c1.Create("/shared/config.yaml")
	if err != nil {
		log.Fatal(err)
	}
	f.Write([]byte("replicas: 3\nregion: cn-north\n"))
	if err := f.Close(); err != nil { // close = fsync metadata to the meta node
		log.Fatal(err)
	}

	// Container 2 sees it immediately.
	g, err := c2.Open("/shared/config.yaml")
	if err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, g.Size())
	g.ReadAt(buf, 0)
	g.Close()
	fmt.Printf("container 2 reads config written by container 1:\n%s\n", buf)

	// Non-overlapping concurrent writes to one file: each client owns a
	// half; both halves survive (Section 3.3's consistency model).
	h1, err := c1.Create("/shared/halves.bin")
	if err != nil {
		log.Fatal(err)
	}
	const half = 256 * 1024
	if _, err := h1.Write(make([]byte, 2*half)); err != nil { // lay out the file
		log.Fatal(err)
	}
	if err := h1.Fsync(); err != nil {
		log.Fatal(err)
	}
	h2, err := c2.Open("/shared/halves.bin")
	if err != nil {
		log.Fatal(err)
	}

	done := make(chan error, 2)
	go func() {
		_, err := h1.WriteAt(bytes.Repeat([]byte{0xAA}, half), 0)
		done <- err
	}()
	go func() {
		_, err := h2.WriteAt(bytes.Repeat([]byte{0xBB}, half), half)
		done <- err
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			log.Fatal(err)
		}
	}
	h1.Close()
	h2.Close()

	check, _ := c1.Open("/shared/halves.bin")
	out := make([]byte, 2*half)
	check.ReadAt(out, 0)
	check.Close()
	okA := bytes.Equal(out[:half], bytes.Repeat([]byte{0xAA}, half))
	okB := bytes.Equal(out[half:], bytes.Repeat([]byte{0xBB}, half))
	fmt.Printf("client 1's half intact: %v, client 2's half intact: %v\n", okA, okB)
	if !okA || !okB {
		log.Fatal("non-overlapping concurrent writes were not both preserved")
	}
	fmt.Println("sharedvolume complete")
}
