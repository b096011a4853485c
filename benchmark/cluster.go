package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cfs/internal/core"
	"cfs/internal/datanode"
	"cfs/internal/master"
	"cfs/internal/meta"
	"cfs/internal/proto"
	"cfs/internal/transport"
)

// Cluster shape. Fixed, not flags: numbers are only comparable between
// commits while the shape stays the same.
const (
	numMetaNodes      = 3
	numDataNodes      = 3
	numMetaPartitions = 4
	numDataPartitions = 8
	numWorkers        = 2 // this box has nproc=2; fixed, not derived
	volumeName        = "bench"
	memLatency        = time.Millisecond // one-way, seq_stream_lat only
)

type fabricKind int

const (
	fabricTCP fabricKind = iota // real loopback sockets
	fabricMem                   // in-process Memory at memLatency one-way
)

// cluster is one booted CFS deployment plus one mount per worker. Nodes are
// configured the way cmd/cfs-server configures them: addresses and dirs
// only, everything else the product default (heartbeats on, master scans
// on, default Raft flush and tick); mounts use the zero client.Config.
type cluster struct {
	dir        string
	masterAddr string
	mem        *transport.Memory // nil on TCP
	m          *master.Master
	metas      []*meta.MetaNode
	datas      []*datanode.DataNode
	dataAddrs  []string
	nets       []transport.Network // one per worker; every mount of a worker shares it
	mounts     []*core.FileSystem  // one long-lived mount per worker
	tr         *tracer             // nil on untraced runs
}

// network returns the transport handle for one labelled endpoint (a node
// or a mount). On TCP each endpoint gets its own transport.TCP, as separate
// cfs-server processes would; on Memory all share the one fabric. A traced
// run wraps the handle in a tracenet labelled with the endpoint's name.
func (c *cluster) network(label string, role nodeRole, worker int) transport.Network {
	var nw transport.Network
	if c.mem != nil {
		nw = c.mem
	} else {
		nw = transport.NewTCP()
	}
	if c.tr != nil {
		return newTraceNet(nw, c.tr, label, role, worker)
	}
	return nw
}

// Listen ports come from below the kernel's ephemeral range (32768 and up
// by default), so an outgoing connection of a node that is already running
// can never be handed a port a later node is about to bind. nextPort walks
// the range; the start depends on the pid so that two benchmark processes
// seldom collide, and a collision only costs a retry.
var nextPort = 12000 + os.Getpid()%16000

// allocAddrs returns n loopback addresses that were free a moment ago.
func allocAddrs(n int) ([]string, error) {
	addrs := make([]string, 0, n)
	for tries := 0; len(addrs) < n; tries++ {
		if tries > 200+n {
			return nil, fmt.Errorf("no free loopback ports")
		}
		nextPort++
		if nextPort >= 30000 {
			nextPort = 12000
		}
		addr := fmt.Sprintf("127.0.0.1:%d", nextPort)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			continue
		}
		ln.Close()
		addrs = append(addrs, addr)
	}
	return addrs, nil
}

// bootCluster starts 1 master, 3 metanodes and 3 datanodes under a fresh
// directory below base, creates the volume and mounts one client per
// worker. tr may be nil.
func bootCluster(fabric fabricKind, base string, tr *tracer) (*cluster, error) {
	for attempt := 0; ; attempt++ {
		c, err := bootOnce(fabric, base, tr)
		// Another process may take a port between allocAddrs and the
		// node's own Listen; new ports, not a failed run, are the answer.
		if err == nil || attempt == 3 || !strings.Contains(err.Error(), "address already in use") {
			return c, err
		}
	}
}

func bootOnce(fabric fabricKind, base string, tr *tracer) (*cluster, error) {
	dir, err := os.MkdirTemp(base, "cluster-")
	if err != nil {
		return nil, err
	}
	c := &cluster{dir: dir, tr: tr}
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()

	c.masterAddr = "master"
	var metaAddrs []string
	for i := 0; i < numMetaNodes; i++ {
		metaAddrs = append(metaAddrs, fmt.Sprintf("mn%d", i))
	}
	for i := 0; i < numDataNodes; i++ {
		c.dataAddrs = append(c.dataAddrs, fmt.Sprintf("dn%d", i))
	}
	if fabric == fabricMem {
		c.mem = transport.NewMemory()
	} else {
		addrs, err := allocAddrs(1 + numMetaNodes + numDataNodes)
		if err != nil {
			return nil, err
		}
		c.masterAddr = addrs[0]
		copy(metaAddrs, addrs[1:])
		copy(c.dataAddrs, addrs[1+numMetaNodes:])
	}

	c.m, err = master.Start(c.network("master", roleMaster, -1), master.Config{
		Addr: c.masterAddr, Dir: filepath.Join(dir, "master"),
	})
	if err != nil {
		return nil, fmt.Errorf("start master: %w", err)
	}
	if !c.m.WaitLeader(10 * time.Second) {
		return nil, fmt.Errorf("master election timed out")
	}
	for i, addr := range metaAddrs {
		label := fmt.Sprintf("mn%d", i)
		mn, err := meta.Start(c.network(label, roleMeta, -1), meta.Config{
			Addr: addr, MasterAddr: c.masterAddr, Dir: filepath.Join(dir, label),
		})
		if err != nil {
			return nil, fmt.Errorf("start %s: %w", label, err)
		}
		c.metas = append(c.metas, mn)
	}
	for i, addr := range c.dataAddrs {
		label := fmt.Sprintf("dn%d", i)
		dn, err := datanode.Start(c.network(label, roleData, -1), datanode.Config{
			Addr: addr, MasterAddr: c.masterAddr, Dir: filepath.Join(dir, label),
		})
		if err != nil {
			return nil, fmt.Errorf("start %s: %w", label, err)
		}
		c.datas = append(c.datas, dn)
	}

	admin := c.network("admin", roleClient, -1)
	var resp proto.CreateVolumeResp
	if err := admin.Call(c.masterAddr, uint8(proto.OpMasterCreateVolume), &proto.CreateVolumeReq{
		Name:               volumeName,
		MetaPartitionCount: numMetaPartitions,
		DataPartitionCount: numDataPartitions,
	}, &resp); err != nil {
		return nil, fmt.Errorf("create volume: %w", err)
	}
	for _, dp := range resp.View.DataPartitions {
		if len(dp.Members) > 0 && tr != nil {
			tr.leader.Store(dp.PartitionID, dp.Members[0])
		}
	}
	// Provisioning runs at zero latency; the emulated link delay applies
	// to everything a mounted client does, warm-up included.
	if c.mem != nil {
		c.mem.SetLatency(memLatency)
	}
	for w := 0; w < numWorkers; w++ {
		c.nets = append(c.nets, c.network(fmt.Sprintf("client%d", w), roleClient, w))
		fs, err := c.mount(w)
		if err != nil {
			return nil, fmt.Errorf("mount client%d: %w", w, err)
		}
		c.mounts = append(c.mounts, fs)
	}
	ok = true
	return c, nil
}

// mount mounts the volume once more for worker w, over the worker's own
// network handle: a new client with empty caches, sharing connections with
// the worker's other mounts. The caller unmounts it.
func (c *cluster) mount(w int) (*core.FileSystem, error) {
	return core.Mount(c.nets[w], c.masterAddr, volumeName, core.MountOptions{})
}

// close unmounts, stops every node and removes the cluster directory.
func (c *cluster) close() {
	if c.mem != nil {
		c.mem.SetLatency(0)
	}
	for _, fs := range c.mounts {
		fs.Unmount()
	}
	for _, dn := range c.datas {
		dn.Close()
	}
	for _, mn := range c.metas {
		mn.Close()
	}
	if c.m != nil {
		c.m.Close()
	}
	os.RemoveAll(c.dir)
}

// diskBytes sums the allocated (not apparent) size of every file under the
// datanodes' extent directories, so punched holes do not count.
func (c *cluster) diskBytes() int64 {
	var total int64
	for i := range c.datas {
		root := filepath.Join(c.dir, fmt.Sprintf("dn%d", i))
		_ = filepath.Walk(root, func(_ string, info os.FileInfo, err error) error {
			if err == nil && info.Mode().IsRegular() {
				total += allocatedBytes(info)
			}
			return nil
		})
	}
	return total
}
