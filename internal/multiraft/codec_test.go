package multiraft

import (
	"bytes"
	"encoding"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cfs/internal/proto"
	"cfs/internal/raft"
	"cfs/internal/transport"
	"cfs/internal/util"
)

// The transport sends a Batch as a frame of its own layout only because it
// is an encoding.BinaryAppender.
var _ encoding.BinaryAppender = (*Batch)(nil)

const (
	laneFrom = "127.0.0.1:17310"
	laneTo   = "127.0.0.1:17311"
)

// appendBatch is a leader's one-entry append to a follower, as the lane
// sends it mid-run.
func appendBatch(entryBytes int) *Batch {
	return &Batch{From: laneFrom, Messages: []*raft.Message{{
		GroupID: 3, Type: raft.MsgApp, From: laneFrom, To: laneTo, Term: 2,
		PrevLogIndex: 1041, PrevLogTerm: 2, Commit: 1040,
		Entries: []raft.Entry{{Index: 1042, Term: 2, Data: make([]byte, entryBytes)}},
	}}}
}

// everyKind is a batch carrying every MsgType, a conf entry, a snapshot with
// its peers, both heartbeat slots, and fields set to their largest values.
// Empty slices are nil: the wire does not tell nil from empty, and a decode
// yields nil.
func everyKind() *Batch {
	msg := func(typ raft.MsgType) raft.Message {
		return raft.Message{GroupID: 7, Type: typ, From: laneFrom, To: laneTo, Term: 5}
	}
	vote, voteResp := msg(raft.MsgVote), msg(raft.MsgVoteResp)
	vote.LastLogIndex, vote.LastLogTerm = 99, 4
	voteResp.Granted = true
	app := msg(raft.MsgApp)
	app.PrevLogIndex, app.PrevLogTerm, app.Commit = 10, 4, 9
	app.Entries = []raft.Entry{
		{Index: 11, Term: 5, Data: []byte("put k v")},
		{Index: 12, Term: 5, Data: []byte{2, 'n', '4'}, Conf: true},
		{Index: 13, Term: 5}, // a leader's no-op
	}
	appResp := msg(raft.MsgAppResp)
	appResp.Success, appResp.MatchIndex = true, 13
	reject := msg(raft.MsgAppResp)
	reject.MatchIndex, reject.HintIndex = 10, 8
	snap := msg(raft.MsgSnap)
	snap.SnapIndex, snap.SnapTerm, snap.Commit = 500, 4, 500
	snap.SnapData = bytes.Repeat([]byte("state"), 100)
	snap.SnapPeers = []string{laneFrom, laneTo, "127.0.0.1:17312"}
	snapResp := msg(raft.MsgSnapResp)
	snapResp.MatchIndex = 500
	huge := msg(raft.MsgApp)
	huge.GroupID, huge.Term, huge.Commit, huge.HintIndex = ^uint64(0), ^uint64(0), 1<<63, 1
	huge.Entries = []raft.Entry{{Index: ^uint64(0), Term: ^uint64(0)}}
	msgs := []raft.Message{vote, voteResp, app, appResp, reject, snap, snapResp,
		msg(raft.MsgHeartbeat), msg(raft.MsgHeartbeatResp), huge}
	b := &Batch{
		From:      laneFrom,
		Beats:     []proto.RaftHeartbeat{{GroupID: 1, Term: 2, Commit: 3}, {GroupID: 4, Term: 5}},
		BeatResps: []proto.RaftHeartbeatResp{{GroupID: 1, Term: 2}},
	}
	for i := range msgs {
		b.Messages = append(b.Messages, &msgs[i])
	}
	return b
}

func TestBatchCodecRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   *Batch
		want *Batch // nil: the same as in
	}{
		{name: "every kind", in: everyKind()},
		{name: "one append", in: appendBatch(64)},
		{name: "empty", in: &Batch{From: laneFrom}},
		{name: "no sender", in: &Batch{}},
		{
			name: "empty slices decode as nil",
			in: &Batch{From: laneFrom, Beats: []proto.RaftHeartbeat{}, Messages: []*raft.Message{{
				Type: raft.MsgApp, Entries: []raft.Entry{}, SnapData: []byte{}, SnapPeers: []string{},
			}}},
			want: &Batch{From: laneFrom, Messages: []*raft.Message{{Type: raft.MsgApp, From: laneFrom, To: laneTo}}},
		},
		{
			name: "From and To come from the batch and the receiver",
			in: &Batch{From: laneFrom, Messages: []*raft.Message{{
				Type: raft.MsgVote, From: "elsewhere", To: "nobody", Term: 1,
			}}},
			want: &Batch{From: laneFrom, Messages: []*raft.Message{{
				Type: raft.MsgVote, From: laneFrom, To: laneTo, Term: 1,
			}}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wire, err := tc.in.AppendBinary([]byte("prefix"))
			if err != nil || string(wire[:6]) != "prefix" {
				t.Fatalf("AppendBinary: %v, prefix %q", err, wire[:6])
			}
			got, err := decodeBatch(wire[6:], laneTo)
			if err != nil {
				t.Fatal(err)
			}
			want := tc.want
			if want == nil {
				want = tc.in
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestBatchCodecSize: the lane's frame body for one 64 B entry, the common
// case of a metadata commit, stays small (gob needed about 175 B).
func TestBatchCodecSize(t *testing.T) {
	wire, _ := appendBatch(64).AppendBinary(nil)
	if len(wire) > 120 {
		t.Fatalf("one-entry append encodes to %d B, want <= 120", len(wire))
	}
	t.Logf("one-entry append with a 64 B entry: %d B", len(wire))
}

// TestBatchDecodeRejects: malformed input is an error wrapping
// util.ErrInvalidArgument, never a panic, and a count the input cannot
// hold is refused before anything is allocated for it.
func TestBatchDecodeRejects(t *testing.T) {
	good, _ := everyKind().AppendBinary(nil)
	cases := map[string][]byte{
		"empty input":         nil,
		"trailing byte":       append(bytes.Clone(good), 0),
		"huge message count":  {0, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"overlong uvarint":    {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"string past the end": {200, 'a'},
		"unknown field bit":   {0, 1, 1, byte(raft.MsgApp), 0x80, 0x80, 0x02, 0, 0},
		"bad conf flag":       {0, 1, 1, byte(raft.MsgApp), hasEntries, 1, 1, 1, 2, 0, 0, 0},
	}
	for i := range good {
		cases[fmt.Sprintf("truncated to %d B", i)] = good[:i]
	}
	for name, data := range cases {
		if _, err := decodeBatch(data, laneTo); !errors.Is(err, util.ErrInvalidArgument) {
			t.Errorf("%s (% x): %v", name, data, err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decodeBatch(cases["huge message count"], laneTo)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 4096 {
		t.Fatalf("refusing a count of 4G messages allocated %d B", n)
	}
}

// FuzzDecodeBatch: decoding arbitrary bytes never panics, and whatever
// decodes survives encode and decode unchanged.
func FuzzDecodeBatch(f *testing.F) {
	for _, b := range []*Batch{everyKind(), appendBatch(64), {From: laneFrom}} {
		wire, _ := b.AppendBinary(nil)
		f.Add(wire)
	}
	f.Add([]byte{0, 1, 1, byte(raft.MsgApp), 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := decodeBatch(data, laneTo)
		if err != nil {
			if !errors.Is(err, util.ErrInvalidArgument) {
				t.Fatalf("decode error %v does not wrap ErrInvalidArgument", err)
			}
			return
		}
		wire, _ := b.AppendBinary(nil)
		again, err := decodeBatch(wire, laneTo)
		if err != nil {
			t.Fatalf("re-decoding an encoded batch: %v", err)
		}
		if !reflect.DeepEqual(again, b) {
			t.Fatalf("decode(encode(b)) != b:\n got %+v\nwant %+v", again, b)
		}
		if rewire, _ := again.AppendBinary(nil); !bytes.Equal(rewire, wire) {
			t.Fatalf("encoding is not stable: % x then % x", wire, rewire)
		}
	})
}

// TestLaneCarriesRawBatches: on both fabrics every Raft batch reaches the
// receiving manager as the lane's own bytes (transport.Raw), never as a
// gob-decoded value or the sender's *Batch, and the group commits through
// it.
func TestLaneCarriesRawBatches(t *testing.T) {
	for _, fabric := range []string{"mem", "tcp"} {
		t.Run(fabric, func(t *testing.T) {
			var raw, other atomic.Int64
			var c wireCount
			groups := startLane(t, fabric, &c, func(h transport.Handler) transport.Handler {
				return func(op uint8, req any) (any, error) {
					if _, ok := req.(transport.Raw); ok {
						raw.Add(1)
					} else {
						other.Add(1)
					}
					return h(op, req)
				}
			})
			leader := groups[0]
			leader.Campaign()
			waitFor(t, 5*time.Second, "no leader", leader.IsLeader)
			for i := 0; i < 20; i++ {
				if _, err := leader.Propose([]byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			for _, g := range groups[1:] {
				waitFor(t, 5*time.Second, "a follower never applied the proposals", func() bool {
					return g.Status().Applied >= 21
				})
			}
			if other.Load() != 0 || raw.Load() == 0 {
				t.Fatalf("bodies at the handlers: %d transport.Raw, %d of another kind", raw.Load(), other.Load())
			}
		})
	}
}
