// Package cluster boots a whole CFS deployment in one process - the
// resource manager, meta nodes and data nodes (paper §2) - on the Memory
// fabric or on loopback TCP, and carves volumes out of it. It is the one
// boot sequence the examples, the experiment harness and the core and
// client tests share. It imports neither client nor core, so their
// in-package tests can use it: mount with core.Mount(c.Net(),
// c.MasterAddr(), ...) or client.Mount.
package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"time"

	"cfs/internal/clock"
	"cfs/internal/datanode"
	"cfs/internal/master"
	"cfs/internal/meta"
	"cfs/internal/proto"
	"cfs/internal/transport"
	"cfs/internal/util"
)

// Options shapes a cluster. The zero value is three meta nodes and three
// data nodes on the Memory fabric; every node runs at its shipped defaults
// apart from the fields below and its clock (see Cluster).
type Options struct {
	// Fabric is "memory" (or empty) for the in-process network, "tcp" for
	// loopback sockets.
	Fabric string
	// MetaNodes and DataNodes count the nodes. Zero means 3.
	MetaNodes int
	DataNodes int
	// ExtentSize caps each data node's extents. Zero means the data
	// node's default.
	ExtentSize uint64
	// NodeTimeout is how long the master waits on a silent node before
	// declaring it dead. Zero means the master's default.
	NodeTimeout time.Duration
}

// Cluster is a booted deployment. The master and every node run on one
// clock.Manual, so no heartbeat, snapshot or maintenance loop runs unless
// the caller advances Clock and drives them.
type Cluster struct {
	nw     transport.PacketStreamNetwork
	mem    *transport.Memory // nil on TCP
	clk    *clock.Manual
	dir    string
	master *master.Master
	metas  []*meta.MetaNode
	datas  []*datanode.DataNode
}

// loopbackAddrs hands out TCP addresses; a test swaps it to hand out a
// port that is already taken.
var loopbackAddrs = transport.LoopbackAddrs

// Boot starts the master, waits until it has a leader, then starts the
// meta and data nodes, which register with it as they start.
func Boot(opts Options) (*Cluster, error) {
	if opts.MetaNodes == 0 {
		opts.MetaNodes = 3
	}
	if opts.DataNodes == 0 {
		opts.DataNodes = 3
	}
	dir, err := os.MkdirTemp("", "cfs-cluster-")
	if err != nil {
		return nil, err
	}
	c := &Cluster{clk: clock.NewManual(time.Now()), dir: dir}
	switch opts.Fabric {
	case "", "memory":
		c.mem = transport.NewMemory()
		c.nw = c.mem
	case "tcp":
		c.nw = transport.NewTCP()
	default:
		c.Close()
		return nil, fmt.Errorf("cluster: %w: unknown fabric %q", util.ErrInvalidArgument, opts.Fabric)
	}
	if err := c.boot(opts); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

func (c *Cluster) boot(opts Options) error {
	err := c.start("master", func(nw transport.Network, addr string) (err error) {
		c.master, err = master.Start(nw, master.Config{Addr: addr, NodeTimeout: opts.NodeTimeout, Clock: c.clk})
		return err
	})
	if err != nil {
		return err
	}
	if !c.master.WaitLeader(10 * time.Second) {
		return errors.New("cluster: master elected no leader in 10s")
	}
	for i := 0; i < opts.MetaNodes; i++ {
		err := c.start(fmt.Sprintf("mn%d", i), func(nw transport.Network, addr string) error {
			mn, err := meta.Start(nw, meta.Config{Addr: addr, MasterAddr: c.MasterAddr(), Clock: c.clk})
			if err == nil {
				c.metas = append(c.metas, mn)
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	for i := 0; i < opts.DataNodes; i++ {
		name := fmt.Sprintf("dn%d", i)
		err := c.start(name, func(nw transport.Network, addr string) error {
			dn, err := datanode.Start(nw, datanode.Config{
				Addr: addr, MasterAddr: c.MasterAddr(), Dir: filepath.Join(c.dir, name),
				ExtentSize: opts.ExtentSize, Clock: c.clk,
			})
			if err == nil {
				c.datas = append(c.datas, dn)
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// start boots one node. On Memory, name is its address and the node
// speaks through its own endpoint, so Partition(name) cuts the calls it
// makes as well as the calls made to it. On TCP the node gets a fresh
// loopback address, and another one if a different process bound that
// port between allocation and the node's own bind.
func (c *Cluster) start(name string, boot func(nw transport.Network, addr string) error) error {
	var err error
	if c.mem != nil {
		err = boot(c.mem.Endpoint(name), name)
	}
	for attempt := 0; c.mem == nil && attempt < 4; attempt++ {
		addrs, aerr := loopbackAddrs(1)
		if aerr != nil {
			return aerr
		}
		if err = boot(c.nw, addrs[0]); !errors.Is(err, syscall.EADDRINUSE) {
			break
		}
	}
	if err != nil {
		return fmt.Errorf("cluster: start %s: %w", name, err)
	}
	return nil
}

// CreateVolume carves a volume of metaParts meta and dataParts data
// partitions. It returns the volume's view once every partition in it has
// a leader, so a mount made next finds each one serving - the one
// readiness wait a caller needs.
func (c *Cluster) CreateVolume(name string, metaParts, dataParts int) (*proto.VolumeView, error) {
	var resp proto.CreateVolumeResp
	if err := c.nw.Call(c.MasterAddr(), uint8(proto.OpMasterCreateVolume), &proto.CreateVolumeReq{
		Name: name, MetaPartitionCount: metaParts, DataPartitionCount: dataParts,
	}, &resp); err != nil {
		return nil, fmt.Errorf("cluster: create volume %s: %w", name, err)
	}
	// Elections run on wall time, so the wait does too.
	deadline := time.Now().Add(10 * time.Second)
	for !c.led(resp.View) {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("cluster: volume %s: a partition elected no leader in 10s", name)
		}
		time.Sleep(time.Millisecond)
	}
	return resp.View, nil
}

// led reports whether every partition of v has a leader: a meta partition
// once one of its nodes leads it, a data partition once a replica knows
// its Raft leader (a one-replica partition runs without a group).
func (c *Cluster) led(v *proto.VolumeView) bool {
	for _, mp := range v.MetaPartitions {
		if !slices.ContainsFunc(c.metas, func(mn *meta.MetaNode) bool { return mn.IsLeader(mp.PartitionID) }) {
			return false
		}
	}
	for _, dp := range v.DataPartitions {
		if len(dp.Members) > 1 && !slices.ContainsFunc(c.datas, func(dn *datanode.DataNode) bool {
			p := dn.Partition(dp.PartitionID)
			return p != nil && p.RaftStatus().Leader != ""
		}) {
			return false
		}
	}
	return true
}

// Kill stops the meta or data node at addr for good and drops it from the
// cluster, so Close does not stop it again. On Memory the address is
// partitioned first: nothing reaches the node or leaves it while it shuts
// down. On TCP its listener closes.
func (c *Cluster) Kill(addr string) error {
	var stop func()
	if i := slices.IndexFunc(c.metas, func(mn *meta.MetaNode) bool { return mn.Addr() == addr }); i >= 0 {
		stop = c.metas[i].Close
		c.metas = slices.Concat(c.metas[:i], c.metas[i+1:])
	} else if i := slices.IndexFunc(c.datas, func(dn *datanode.DataNode) bool { return dn.Addr() == addr }); i >= 0 {
		stop = c.datas[i].Close
		c.datas = slices.Concat(c.datas[:i], c.datas[i+1:])
	} else {
		return fmt.Errorf("cluster: %w: no running node at %s", util.ErrNotFound, addr)
	}
	if c.mem != nil {
		c.mem.Partition(addr)
	}
	stop()
	return nil
}

// Close stops every node still running, then the master, and removes the
// cluster's directory. Unmount every mount first.
func (c *Cluster) Close() {
	for _, dn := range c.datas {
		dn.Close()
	}
	for _, mn := range c.metas {
		mn.Close()
	}
	if c.master != nil {
		c.master.Close()
	}
	c.datas, c.metas, c.master = nil, nil, nil
	os.RemoveAll(c.dir)
}

// Net is the fabric to mount and call over: on Memory the network itself,
// not a node's endpoint, so a partitioned node does not cut its caller.
func (c *Cluster) Net() transport.PacketStreamNetwork { return c.nw }

// Memory is the in-process fabric, for fault injection; nil on TCP.
func (c *Cluster) Memory() *transport.Memory { return c.mem }

// MasterAddr is the resource manager's address.
func (c *Cluster) MasterAddr() string { return c.master.Addr() }

// Master is the resource manager.
func (c *Cluster) Master() *master.Master { return c.master }

// MetaNodes returns the running meta nodes in boot order.
func (c *Cluster) MetaNodes() []*meta.MetaNode { return c.metas }

// DataNodes returns the running data nodes in boot order.
func (c *Cluster) DataNodes() []*datanode.DataNode { return c.datas }

// Clock is the clock the master and every node run on.
func (c *Cluster) Clock() *clock.Manual { return c.clk }
