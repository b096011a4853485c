package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cfs/internal/client"
	"cfs/internal/cluster"
	"cfs/internal/datanode"
	"cfs/internal/proto"
	"cfs/internal/transport"
	"cfs/internal/util"
)

const block = util.DefaultPacketSize

// assertChunkBalance registers a cleanup verifying every pooled chunk
// taken during the test came back to the pool. Call it before booting the
// cluster, so the check runs after the nodes and mounts are gone.
func assertChunkBalance(t *testing.T) {
	t.Helper()
	gets0, puts0 := util.ChunkStats()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for {
			gets, puts := util.ChunkStats()
			if gets-gets0 == puts-puts0 {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("chunk pool leak: %d taken, %d returned", gets-gets0, puts-puts0)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// keyAt returns the extent key covering file offset off of p.
func (e *testEnv) keyAt(t *testing.T, p string, off uint64) proto.ExtentKey {
	t.Helper()
	info, err := e.fs.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	ino, err := e.fs.Client().Meta.InodeGet(info.Inode, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, ek := range ino.Extents {
		if ek.FileOffset <= off && off < ek.End() {
			return ek
		}
	}
	t.Fatalf("%s has no extent at %d", p, off)
	return proto.ExtentKey{}
}

// dataPartition returns the volume view's entry for partition pid.
func (e *testEnv) dataPartition(t *testing.T, pid uint64) proto.DataPartitionInfo {
	t.Helper()
	var resp proto.GetVolumeResp
	if err := e.Net().Call(e.MasterAddr(), uint8(proto.OpMasterGetVolume), &proto.GetVolumeReq{Name: "vol"}, &resp); err != nil {
		t.Fatal(err)
	}
	for _, dp := range resp.View.DataPartitions {
		if dp.PartitionID == pid {
			return dp
		}
	}
	t.Fatalf("no data partition %d", pid)
	return proto.DataPartitionInfo{}
}

func (e *testEnv) dataNode(t *testing.T, addr string) *datanode.DataNode {
	t.Helper()
	for _, dn := range e.DataNodes() {
		if dn.Addr() == addr {
			return dn
		}
	}
	t.Fatalf("no data node at %s", addr)
	return nil
}

// TestStreamedReadFailsOverCorruptReplica: a block that rots on a
// follower's disk after its append was verified is served with the sum
// the store kept, so the reader's CRC check catches it and the read
// falls over to another replica and returns the bytes that were written.
// A read server that checksummed what it read from disk would vouch for
// the rot and the read would return it.
func TestStreamedReadFailsOverCorruptReplica(t *testing.T) {
	for _, fabric := range []string{"memory", "tcp"} {
		t.Run(fabric, func(t *testing.T) {
			assertChunkBalance(t)
			e := startEnvOn(t, fabric, MountOptions{})
			const size = 8 * block
			data := e.writeStreamed(t, "/rot.bin", size, 5)

			// The block at file offset 2 blocks lies in the file's own
			// extent, written in whole verified blocks.
			ek := e.keyAt(t, "/rot.bin", 2*block)
			eoff := ek.ExtentOffset + 2*block - ek.FileOffset
			if eoff%block != 0 {
				t.Fatalf("file block 2 sits at extent offset %d, not on a block", eoff)
			}
			dp := e.dataPartition(t, ek.PartitionID)
			rotten := e.dataNode(t, dp.Members[1]) // a fresh mount's first streamed run reads here
			part := rotten.Partition(ek.PartitionID)
			end := ek.ExtentOffset + size - ek.FileOffset
			deadline := time.Now().Add(5 * time.Second)
			for part.CommittedOf(ek.ExtentID) < end {
				if time.Now().After(deadline) {
					t.Fatalf("follower's committed offset %d never reached %d", part.CommittedOf(ek.ExtentID), end)
				}
				time.Sleep(time.Millisecond)
			}
			path := filepath.Join(rotten.Dir(), fmt.Sprintf("dp_%d", ek.PartitionID), fmt.Sprintf("ext_%d", ek.ExtentID))
			disk, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := disk.WriteAt(bytes.Repeat([]byte{0xEE}, block), int64(eoff)); err != nil {
				t.Fatal(err)
			}
			disk.Close()

			fs2, err := Mount(e.Net(), e.MasterAddr(), "vol", MountOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer fs2.Unmount()
			f, err := fs2.Open("/rot.bin")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			served := rotten.ReadsServed()
			got := make([]byte, size-block)
			if _, err := f.ReadAt(got, block); err != nil {
				t.Fatalf("streamed read: %v", err)
			}
			if !bytes.Equal(got, data[block:]) {
				t.Fatal("streamed read returned bytes that were never written")
			}
			if rotten.ReadsServed() == served {
				t.Fatal("the read never asked the replica holding the rotten block")
			}
		})
	}
}

// TestStreamedReadRacingOverwrite: whole-block streamed reads racing
// overwrites of the same block return the old block or the new one and
// never an error. A frame whose stored sum was looked up before an
// overwrite and whose bytes were read after it fails the reader's CRC
// check, and the read falls over to another replica.
func TestStreamedReadRacingOverwrite(t *testing.T) {
	for _, fabric := range []string{"memory", "tcp"} {
		t.Run(fabric, func(t *testing.T) {
			assertChunkBalance(t)
			e := startEnvOn(t, fabric, MountOptions{})
			data := e.writeStreamed(t, "/race.bin", 3*block, 11)
			old := data[block : 2*block]
			neu := bytes.Repeat([]byte{0xC3}, block)

			fs2, err := Mount(e.Net(), e.MasterAddr(), "vol", MountOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer fs2.Unmount()
			rf, err := fs2.Open("/race.bin")
			if err != nil {
				t.Fatal(err)
			}
			defer rf.Close()
			wf, err := e.fs.Open("/race.bin")
			if err != nil {
				t.Fatal(err)
			}
			defer wf.Close()

			// At least this many of each, whichever fabric is faster.
			const least = 50
			var reads atomic.Int64
			done, stop := make(chan struct{}), make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(done)
				for i := 0; i < least || reads.Load() < least; i++ {
					select {
					case <-stop: // the reader failed
						return
					default:
					}
					b := neu
					if i%2 == 1 {
						b = old
					}
					if _, err := wf.WriteAt(b, block); err != nil {
						t.Errorf("overwrite %d: %v", i, err)
						return
					}
				}
			}()
			defer wg.Wait()
			defer close(stop)
			got := make([]byte, block)
			for running := true; running; reads.Add(1) {
				select {
				case <-done:
					running = false // one more read after the last overwrite
				default:
				}
				if _, err := rf.ReadAt(got, block); err != nil {
					t.Fatalf("read %d: %v", reads.Load(), err)
				}
				if !bytes.Equal(got, old) && !bytes.Equal(got, neu) {
					t.Fatalf("read %d returned a block that is neither the old nor the new one", reads.Load())
				}
			}
			t.Logf("%d reads raced the overwrites", reads.Load())
		})
	}
}

// noReadStreams refuses every read-session dial, so a mount on it reads
// through the unary fallback only.
type noReadStreams struct{ transport.PacketStreamNetwork }

func (n noReadStreams) DialStream(addr string, op uint8) (transport.PacketStream, error) {
	if op == uint8(proto.OpDataReadStream) {
		return nil, fmt.Errorf("read stream to %s refused", addr)
	}
	return n.PacketStreamNetwork.DialStream(addr, op)
}

// TestUnaryFallbackReadsPastTheRequestBound: with no read stream to be
// had, one read of an extent key longer than proto.MaxReadLen (a writer
// with a large packet size leaves such keys) goes through the unary
// fallback in requests the data nodes accept.
func TestUnaryFallbackReadsPastTheRequestBound(t *testing.T) {
	c := bootVolume(t, cluster.Options{Fabric: "memory", ExtentSize: 16 * util.MB}, 1, 1)
	w, err := Mount(c.Net(), c.MasterAddr(), "vol", MountOptions{Client: client.Config{PacketSize: 16 * util.MB}})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Unmount()
	data := make([]byte, proto.MaxReadLen+util.MB)
	rnd := util.NewRand(7)
	for i := range data {
		data[i] = byte(rnd.Uint64())
	}
	f, err := w.Create("/big.bin")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.Write(data); err != nil || n != len(data) {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Mount(noReadStreams{c.Net()}, c.MasterAddr(), "vol", MountOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Unmount()
	f2, err := r.Open("/big.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	got := make([]byte, len(data))
	if n, err := f2.ReadAt(got, 0); n != len(data) || !bytes.Equal(got, data) {
		t.Fatalf("ReadAt = %d, %v; want all %d bytes back", n, err, len(data))
	}
}
