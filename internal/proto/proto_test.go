package proto

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
)

func TestPacketRoundTrip(t *testing.T) {
	in := NewPacket(OpDataAppend, 42, 7, 99, []byte("hello world"))
	in.ExtentOffset = 4096
	in.FileOffset = 1 << 20
	in.Committed = 1<<40 + 12345 // exercises both halves of the 48-bit slot
	in.Epoch = 1<<33 + 7         // the failover-fence slot appended to the header
	in.Followers = []string{"node-b:17310", "node-c:17310"}

	var buf bytes.Buffer
	if _, err := in.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var out Packet
	if _, err := out.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, &out) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, &out)
	}
	if !out.VerifyCRC() {
		t.Fatal("CRC did not verify after round trip")
	}
}

func TestPacketEmptyPayload(t *testing.T) {
	in := NewPacket(OpDataFlush, 1, 2, 3, nil)
	var buf bytes.Buffer
	if _, err := in.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var out Packet
	if _, err := out.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if len(out.Data) != 0 || out.ReqID != 1 {
		t.Fatalf("empty payload round trip broken: %+v", out)
	}
}

func TestPacketBadMagic(t *testing.T) {
	var buf bytes.Buffer
	in := NewPacket(OpDataRead, 1, 1, 1, []byte("x"))
	if _, err := in.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[0] = 0x00
	var out Packet
	if _, err := out.ReadFrom(bytes.NewReader(b)); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestPacketTruncated(t *testing.T) {
	var buf bytes.Buffer
	in := NewPacket(OpDataRead, 1, 1, 1, []byte("payload"))
	if _, err := in.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	var out Packet
	if _, err := out.ReadFrom(bytes.NewReader(b[:len(b)-3])); err == nil {
		t.Fatal("truncated packet accepted")
	}
}

func TestPacketCRCDetectsCorruption(t *testing.T) {
	p := NewPacket(OpDataAppend, 9, 9, 9, []byte("data payload"))
	p.Data[0] ^= 0xFF
	if p.VerifyCRC() {
		t.Fatal("corrupted payload passed CRC")
	}
}

func TestPacketResponses(t *testing.T) {
	req := NewPacket(OpDataRead, 5, 6, 7, nil)
	req.ExtentOffset = 128
	ok := req.OKResponse([]byte("content"))
	if ok.ResultCode != ResultOK || ok.ReqID != 5 || string(ok.Data) != "content" {
		t.Fatalf("bad ok response: %+v", ok)
	}
	if !ok.VerifyCRC() {
		t.Fatal("ok response CRC not stamped")
	}
	er := req.ErrResponse(ResultErrIO, "disk gone")
	if er.ResultCode != ResultErrIO || string(er.Data) != "disk gone" {
		t.Fatalf("bad err response: %+v", er)
	}
}

func TestQuickPacketRoundTrip(t *testing.T) {
	prop := func(reqID, pid, eid, eoff, foff uint64, data []byte) bool {
		in := NewPacket(OpDataOverwrite, reqID, pid, eid, data)
		in.ExtentOffset = eoff
		in.FileOffset = foff
		var buf bytes.Buffer
		if _, err := in.WriteTo(&buf); err != nil {
			return false
		}
		var out Packet
		if _, err := out.ReadFrom(&buf); err != nil {
			return false
		}
		if len(in.Data) == 0 && len(out.Data) == 0 {
			out.Data, in.Data = nil, nil
		}
		return reflect.DeepEqual(in, &out)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestInodeMode(t *testing.T) {
	d := &Inode{Type: TypeDir}
	f := &Inode{Type: TypeFile}
	s := &Inode{Type: TypeSymlink}
	if !d.Mode().IsDir() || !d.IsDir() {
		t.Fatal("dir inode mode wrong")
	}
	if f.Mode().IsDir() || f.IsDir() {
		t.Fatal("file inode mode wrong")
	}
	if s.Mode()&0o777 == 0 {
		t.Fatal("symlink mode wrong")
	}
}

func TestExtentKeyEnd(t *testing.T) {
	k := ExtentKey{FileOffset: 100, Size: 28}
	if k.End() != 128 {
		t.Fatalf("End = %d", k.End())
	}
}

func TestNodeInfoRatio(t *testing.T) {
	n := &NodeInfo{Total: 100, Used: 25}
	if n.Ratio() != 0.25 {
		t.Fatalf("Ratio = %v", n.Ratio())
	}
	z := &NodeInfo{}
	if z.Ratio() != 1 {
		t.Fatalf("zero-total node should read as full, got %v", z.Ratio())
	}
}

func TestPartitionStatusString(t *testing.T) {
	if PartitionReadWrite.String() != "read-write" ||
		PartitionReadOnly.String() != "read-only" ||
		PartitionUnavailable.String() != "unavailable" {
		t.Fatal("status strings wrong")
	}
}

func TestOpStringsDistinct(t *testing.T) {
	seen := map[string]Op{}
	for op := OpMetaCreateInode; op <= OpRaftMessage; op++ {
		s := op.String()
		if s == "Op(unknown)" {
			t.Fatalf("op %d has no name", op)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("ops %d and %d share name %q", prev, op, s)
		}
		seen[s] = op
	}
}

func TestRegisterGobIdempotent(t *testing.T) {
	RegisterGob()
	RegisterGob() // must not panic
}
