// Command cfs-server runs one CFS node over real TCP: the resource
// manager (master), a meta node, or a data node. A laptop-scale cluster is
// a handful of these processes plus a client using core.Mount with
// transport.NewTCP().
//
// Usage:
//
//	cfs-server -role master -addr 127.0.0.1:17010 -dir /tmp/cfs/master
//	cfs-server -role meta   -addr 127.0.0.1:17210 -master 127.0.0.1:17010 -dir /tmp/cfs/mn0
//	cfs-server -role data   -addr 127.0.0.1:17310 -master 127.0.0.1:17010 -dir /tmp/cfs/dn0
//
// Create a volume with -create-volume (on any running master):
//
//	cfs-server -role volume -master 127.0.0.1:17010 -volume vol1 -meta-partitions 3 -data-partitions 8
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"cfs/internal/datanode"
	"cfs/internal/master"
	"cfs/internal/meta"
	"cfs/internal/proto"
	"cfs/internal/transport"
	"cfs/internal/util"
)

func main() {
	role := flag.String("role", "", "master | meta | data | volume")
	addr := flag.String("addr", "", "listen address (host:port)")
	masterAddr := flag.String("master", "", "resource manager address")
	dir := flag.String("dir", "", "data directory")
	volume := flag.String("volume", "", "volume name (role=volume)")
	metaPartitions := flag.Int("meta-partitions", 3, "initial meta partitions (role=volume)")
	dataPartitions := flag.Int("data-partitions", 8, "initial data partitions (role=volume)")
	total := flag.Uint64("capacity", 64*util.GB, "advertised node capacity in bytes")
	flag.Parse()

	nw := transport.NewTCP()
	switch *role {
	case "master":
		requireFlags(map[string]string{"addr": *addr})
		m, err := master.Start(nw, master.Config{Addr: *addr, Dir: *dir})
		if err != nil {
			log.Fatalf("start master: %v", err)
		}
		log.Printf("resource manager listening on %s (state dir %q)", *addr, *dir)
		waitSignal()
		m.Close()

	case "meta":
		requireFlags(map[string]string{"addr": *addr, "master": *masterAddr})
		mn, err := meta.Start(nw, meta.Config{
			Addr: *addr, MasterAddr: *masterAddr, Dir: *dir, Total: *total,
		})
		if err != nil {
			log.Fatalf("start meta node: %v", err)
		}
		log.Printf("meta node %s registered with %s", *addr, *masterAddr)
		waitSignal()
		mn.Close()

	case "data":
		requireFlags(map[string]string{"addr": *addr, "master": *masterAddr, "dir": *dir})
		dn, err := datanode.Start(nw, datanode.Config{
			Addr: *addr, MasterAddr: *masterAddr, Dir: *dir, Total: *total,
		})
		if err != nil {
			log.Fatalf("start data node: %v", err)
		}
		log.Printf("data node %s registered with %s (extents in %q)", *addr, *masterAddr, *dir)
		waitSignal()
		dn.Close()

	case "volume":
		requireFlags(map[string]string{"master": *masterAddr, "volume": *volume})
		var resp proto.CreateVolumeResp
		err := nw.Call(*masterAddr, uint8(proto.OpMasterCreateVolume), &proto.CreateVolumeReq{
			Name:               *volume,
			MetaPartitionCount: *metaPartitions,
			DataPartitionCount: *dataPartitions,
		}, &resp)
		if err != nil {
			log.Fatalf("create volume: %v", err)
		}
		fmt.Printf("volume %q created: %d meta partitions, %d data partitions\n",
			*volume, len(resp.View.MetaPartitions), len(resp.View.DataPartitions))

	default:
		fmt.Fprintln(os.Stderr, "missing or unknown -role (master | meta | data | volume)")
		flag.Usage()
		os.Exit(2)
	}
}

func requireFlags(flags map[string]string) {
	for name, v := range flags {
		if v == "" {
			fmt.Fprintf(os.Stderr, "-%s is required for this role\n", name)
			os.Exit(2)
		}
	}
}

func waitSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	log.Printf("shutting down")
}
