package datanode

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cfs/internal/proto"
	"cfs/internal/transport"
	"cfs/internal/util"
)

// The read server sends a whole block with the sum the store verified on
// ingest, from the extent file (sendfile on TCP). These tests change the
// bytes under such a frame and check that the change shows as a frame
// that fails its CRC - which the client turns into a failover - and never
// as one that verifies with the wrong bytes.

const block = util.DefaultPacketSize

// sendReads pushes n read requests of [off, off+length) of extent eid on
// st without receiving any reply.
func sendReads(t *testing.T, st transport.PacketStream, pid, eid, off, length uint64, n int) {
	t.Helper()
	for seq := uint64(1); seq <= uint64(n); seq++ {
		if err := st.Send(&proto.Packet{
			Op: proto.OpDataRead, ReqID: seq, PartitionID: pid, ExtentID: eid,
			ExtentOffset: off, FileOffset: length,
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// stallReader pushes reads whole-block requests of block 0 of eid - more
// reply bytes than either fabric buffers, and few enough requests that
// the Memory fabric's 256 queued writes take them all - and receives only
// the first reply: once the sender has filled the connection it stalls, with its
// reply queue full of frames looked up before the caller's next step. The
// first reply must be want.
func stallReader(t *testing.T, st transport.PacketStream, eid uint64, reads int, want []byte) {
	t.Helper()
	sendReads(t, st, 100, eid, 0, block, reads)
	f, err := st.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if f.ResultCode != proto.ResultOK || !f.VerifyCRC() || !bytes.Equal(f.Data, want) {
		t.Fatalf("first reply: rc=%d crc ok %v", f.ResultCode, f.VerifyCRC())
	}
	f.Release()
	// Nothing to wait on: the sender's stall is not observable from here.
	// The connection holds a few MiB of the 32 MiB of replies, which the
	// sender writes in well under this.
	time.Sleep(200 * time.Millisecond)
}

// TestReadStreamCorruptBlockFailsCRC: bytes that rot on a follower's disk
// after the append verified them are served with the block's stored sum,
// so the reply fails the client's check - where a sum computed from the
// disk bytes would vouch for the rot.
func TestReadStreamCorruptBlockFailsCRC(t *testing.T) {
	for _, fabric := range []string{"memory", "tcp"} {
		t.Run(fabric, func(t *testing.T) {
			assertChunkBalance(t)
			tc := startClusterOn(t, 3, fabric, nil)
			tc.createPartition(t, 100)
			eid := tc.createExtent(t, 100)
			data := make([]byte, 2*block)
			for i := range data {
				data[i] = byte(i / 7)
			}
			tc.append(t, 100, eid, data[:block])
			tc.append(t, 100, eid, data[block:])
			follower := tc.addrs[1]
			tc.readEventually(t, follower, 100, eid, 0, 2*block) // its clamp has caught up

			// Behind the store's back: rewrite the second block on disk.
			path := filepath.Join(tc.nodes[1].Partition(100).dir, fmt.Sprintf("ext_%d", eid))
			disk, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := disk.WriteAt(bytes.Repeat([]byte{0xEE}, block), block); err != nil {
				t.Fatal(err)
			}
			disk.Close()

			for _, c := range []struct {
				addr    string
				badCRCs int
			}{{follower, 1}, {tc.leaderAddr(), 0}} {
				st := tc.openReadStream(t, c.addr)
				sendReads(t, st, 100, eid, 0, 2*block, 1)
				bad := 0
				for off := 0; off < len(data); off += block {
					f, err := st.Recv()
					if err != nil {
						t.Fatal(err)
					}
					switch {
					case f.ResultCode != proto.ResultOK:
						t.Fatalf("%s: rc=%d %s", c.addr, f.ResultCode, f.Data)
					case !f.VerifyCRC():
						bad++
					case !bytes.Equal(f.Data, data[off:off+block]):
						t.Fatalf("%s: block at %d verifies with bytes that were never written", c.addr, off)
					}
					f.Release()
				}
				if bad != c.badCRCs {
					t.Fatalf("%s: %d blocks failed their CRC, want %d", c.addr, bad, c.badCRCs)
				}
			}
		})
	}
}

// TestReadStreamOverwriteAfterLookupFailsCRC: frames whose stored sum was
// looked up before an overwrite of their block, and whose bytes are read
// after it, fail their CRC; every frame that verifies holds the old block
// or the new one, and reads after the overwrite serve the new one. On
// TCP the frames queued behind a stalled reader are file-backed, so the
// mismatch is certain there.
func TestReadStreamOverwriteAfterLookupFailsCRC(t *testing.T) {
	for _, fabric := range []string{"memory", "tcp"} {
		t.Run(fabric, func(t *testing.T) {
			assertChunkBalance(t)
			tc := startClusterOn(t, 1, fabric, nil)
			tc.createPartition(t, 100)
			eid := tc.createExtent(t, 100)
			old, neu := bytes.Repeat([]byte{0x11}, block), bytes.Repeat([]byte{0x22}, block)
			tc.append(t, 100, eid, old)

			const reads = 256 // 32 MiB of replies
			st := tc.openReadStream(t, tc.leaderAddr())
			stallReader(t, st, eid, reads, old)
			if err := tc.nodes[0].Partition(100).store.WriteAt(eid, 0, neu); err != nil {
				t.Fatal(err)
			}
			var olds, news, bad int
			last := []byte(nil)
			for i := 1; i < reads; i++ {
				f, err := st.Recv()
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case f.ResultCode != proto.ResultOK:
					t.Fatalf("reply %d: rc=%d %s", i, f.ResultCode, f.Data)
				case !f.VerifyCRC():
					bad++
				case bytes.Equal(f.Data, old):
					olds++
					last = old
				case bytes.Equal(f.Data, neu):
					news++
					last = neu
				default:
					t.Fatalf("reply %d verifies with a block that is neither the old nor the new one", i)
				}
				f.Release()
			}
			t.Logf("%s: %d old, %d new, %d failed CRC", fabric, olds, news, bad)
			if !bytes.Equal(last, neu) {
				t.Fatal("reads after the overwrite did not serve the new block")
			}
			if fabric == "tcp" && bad == 0 {
				t.Fatal("no queued file-backed frame failed its CRC: the stored sums were not under test")
			}
		})
	}
}

// TestReadStreamExtentDeletedUnderQueuedFrame: an extent deleted while
// file-backed frames of it are queued fails their send and closes the
// stream. What was sent is the extent's own bytes: the frames hold the
// file, not a descriptor number, so the extents created right after the
// delete - which take the freed numbers - never leak into the stream.
func TestReadStreamExtentDeletedUnderQueuedFrame(t *testing.T) {
	tc := startClusterOn(t, 1, "tcp", nil)
	tc.createPartition(t, 100)
	eid := tc.createExtent(t, 100)
	data := bytes.Repeat([]byte{0x5A}, block)
	tc.append(t, 100, eid, data)

	const reads = 256
	st := tc.openReadStream(t, tc.leaderAddr())
	stallReader(t, st, eid, reads, data)
	store := tc.nodes[0].Partition(100).store
	if err := store.Delete(eid); err != nil {
		t.Fatal(err)
	}
	other := bytes.Repeat([]byte{0xA5}, block)
	for i := 0; i < 8; i++ {
		id := store.NextID()
		if err := store.Create(id); err != nil {
			t.Fatal(err)
		}
		if _, err := store.AppendSum(id, other, util.CRC(other)); err != nil {
			t.Fatal(err)
		}
	}
	got := 1
	for got < reads {
		f, err := st.Recv()
		if err != nil {
			break
		}
		if f.ResultCode == proto.ResultOK && (!f.VerifyCRC() || !bytes.Equal(f.Data, data)) {
			t.Fatalf("reply %d is not the deleted extent's block", got+1)
		}
		got++
		f.Release()
	}
	t.Logf("%d of %d replies before the stream closed", got, reads)
	if got >= reads {
		t.Fatal("every reply was sent: the stream outlived a failed file-backed send")
	}
}
