package cluster

import (
	"errors"
	"net"
	"testing"
	"time"

	"cfs/internal/proto"
	"cfs/internal/transport"
	"cfs/internal/util"
)

func boot(t *testing.T, opts Options) *Cluster {
	t.Helper()
	c, err := Boot(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestCreateVolumeReturnsLed: on either fabric, CreateVolume returns only
// once every meta and data partition of the new volume has a leader.
func TestCreateVolumeReturnsLed(t *testing.T) {
	for _, fabric := range []string{"memory", "tcp"} {
		t.Run(fabric, func(t *testing.T) {
			c := boot(t, Options{Fabric: fabric})
			if (c.Memory() == nil) != (fabric == "tcp") {
				t.Fatalf("Memory() = %v on %s", c.Memory(), fabric)
			}
			v, err := c.CreateVolume("vol", 3, 4)
			if err != nil {
				t.Fatal(err)
			}
			if len(v.MetaPartitions) != 3 || len(v.DataPartitions) != 4 {
				t.Fatalf("view has %d meta and %d data partitions, want 3 and 4", len(v.MetaPartitions), len(v.DataPartitions))
			}
			for _, mp := range v.MetaPartitions {
				leaders := 0
				for _, mn := range c.MetaNodes() {
					if mn.IsLeader(mp.PartitionID) {
						leaders++
					}
				}
				if leaders == 0 {
					t.Errorf("meta partition %d has no leader", mp.PartitionID)
				}
			}
			for _, dp := range v.DataPartitions {
				led := false
				for _, dn := range c.DataNodes() {
					if p := dn.Partition(dp.PartitionID); p != nil && p.RaftStatus().Leader != "" {
						led = true
					}
				}
				if !led {
					t.Errorf("data partition %d has no leader", dp.PartitionID)
				}
			}
		})
	}
}

// TestBootRetriesTakenPort: a port another process binds between
// allocation and the node's own bind costs a fresh port, not the boot.
func TestBootRetriesTakenPort(t *testing.T) {
	addrs, err := transport.LoopbackAddrs(1)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	handedOut := false
	loopbackAddrs = func(n int) ([]string, error) {
		if !handedOut {
			handedOut = true
			return addrs, nil
		}
		return transport.LoopbackAddrs(n)
	}
	t.Cleanup(func() { loopbackAddrs = transport.LoopbackAddrs })

	c := boot(t, Options{Fabric: "tcp"})
	if !handedOut {
		t.Fatal("boot never asked for an address")
	}
	if c.MasterAddr() == addrs[0] {
		t.Fatalf("master runs on the taken port %s", addrs[0])
	}
	if _, err := c.CreateVolume("vol", 1, 1); err != nil {
		t.Fatal(err)
	}
}

// TestKillThenCloseStopsEachNodeOnce: a killed node leaves the cluster, so
// Close does not stop it again - whatever binds its address afterwards is
// left alone.
func TestKillThenCloseStopsEachNodeOnce(t *testing.T) {
	c, err := Boot(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Kill("dn0"); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill("mn1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Kill("dn0"); !errors.Is(err, util.ErrNotFound) {
		t.Fatalf("second Kill of dn0 = %v, want ErrNotFound", err)
	}
	if len(c.DataNodes()) != 2 || len(c.MetaNodes()) != 2 {
		t.Fatalf("%d data and %d meta nodes left, want 2 and 2", len(c.DataNodes()), len(c.MetaNodes()))
	}

	mem := c.Memory()
	mem.Heal("dn0")
	standIn, err := mem.Listen("dn0", func(uint8, any) (any, error) { return &proto.ClusterStatsResp{}, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer standIn.Close()
	c.Close()
	c.Close()
	if err := mem.Call("dn0", uint8(proto.OpMasterClusterStats), &proto.ClusterStatsReq{}, &proto.ClusterStatsResp{}); err != nil {
		t.Fatalf("Close stopped the killed node's address again: %v", err)
	}
}

// TestPartitionCutsOutgoingCalls: on Memory every node speaks through its
// own endpoint, so a partitioned data node's heartbeat never reaches the
// master while a healthy node's does.
func TestPartitionCutsOutgoingCalls(t *testing.T) {
	c := boot(t, Options{})
	c.Memory().Partition("dn0")
	c.Clock().Advance(time.Second)
	for _, dn := range c.DataNodes() {
		dn.SendHeartbeat()
	}
	var stats proto.ClusterStatsResp
	if err := c.Net().Call(c.MasterAddr(), uint8(proto.OpMasterClusterStats), &proto.ClusterStatsReq{}, &stats); err != nil {
		t.Fatal(err)
	}
	now := c.Clock().Now()
	for _, n := range stats.DataNodes {
		if beat := n.LastHeartbeat.Equal(now); beat != (n.Addr != "dn0") {
			t.Errorf("%s: last heartbeat %v, clock %v", n.Addr, n.LastHeartbeat, now)
		}
	}
}
