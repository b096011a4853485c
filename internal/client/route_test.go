package client

import (
	"errors"
	"slices"
	"sync/atomic"
	"testing"

	"cfs/internal/proto"
	"cfs/internal/util"
)

// TestAnswererOrder: the one cached-answerer order. A replica already first
// costs no allocation, which is every request while one node leads every
// partition; composed, the read replica's order over the leader's gives
// the unary read order: read replica, then leader, then the members.
func TestAnswererOrder(t *testing.T) {
	members := []string{"L", "F1", "F2"}
	var leader, readFrom answerer
	leader.note(7, "L")
	readFrom.note(7, "L")
	if n := testing.AllocsPerRun(100, func() { _ = readFrom.order(7, leader.order(7, members)) }); n != 0 {
		t.Fatalf("order with the cached replica already first: %v allocs, want 0", n)
	}
	for _, c := range []struct {
		name, read, lead string
		want             []string
	}{
		{"nothing cached", "", "", members},
		{"leader is the first member", "", "L", members},
		{"leader moved", "", "F1", []string{"F1", "L", "F2"}},
		{"follower served the last read", "F2", "L", []string{"F2", "L", "F1"}},
		{"read replica and moved leader", "F2", "F1", []string{"F2", "F1", "L"}},
		{"both on one follower", "F1", "F1", []string{"F1", "L", "F2"}},
		{"read replica left the view", "X", "L", []string{"X", "L", "F1", "F2"}},
	} {
		var leader, readFrom answerer
		if c.lead != "" {
			leader.note(7, c.lead)
		}
		if c.read != "" {
			readFrom.note(7, c.read)
		}
		if got := readFrom.order(7, leader.order(7, members)); !slices.Equal(got, c.want) {
			t.Errorf("%s: read order = %v, want %v", c.name, got, c.want)
		}
	}
	leader.forget(7, "F1") // not the cached leader: kept
	if got := leader.order(7, []string{"F1", "L"}); got[0] != "L" {
		t.Fatalf("forget of another replica dropped the cached leader: %v", got)
	}
	leader.forget(7, "L")
	if got := leader.order(7, []string{"F1", "L"}); got[0] != "F1" {
		t.Fatalf("order after forget = %v, want the view's", got)
	}
}

// TestOverwriteRefreshesBetweenRounds: the view lists a leader that has
// left and two followers that answer not-leader. The round fails, the
// walk re-pulls the view, and the next round finds the new leader there.
func TestOverwriteRefreshesBetweenRounds(t *testing.T) {
	var asked []string
	nw := &fakeNet{call: func(addr string, _ uint8, req, resp any) error {
		asked = append(asked, addr)
		pkt := req.(*proto.Packet)
		switch addr {
		case "dn0":
			return util.ErrTimeout // gone
		case "dn3":
			*resp.(*proto.Packet) = *pkt.OKResponse(nil)
		default:
			*resp.(*proto.Packet) = *pkt.ErrResponse(proto.ResultErrNotLeader, "not leader")
		}
		return nil
	}}
	d := newFakeClient(nw, Config{})
	defer d.close()
	refreshes := 0
	d.refreshView = func() error {
		refreshes++
		d.setView([]proto.DataPartitionInfo{{PartitionID: 7, Members: []string{"dn3", "dn1", "dn2"}, ReplicaEpoch: 2}})
		return nil
	}
	if err := d.Overwrite(proto.ExtentKey{PartitionID: 7, ExtentID: 9}, 0, []byte("x")); err != nil {
		t.Fatalf("overwrite across a leader change: %v", err)
	}
	if want := []string{"dn0", "dn1", "dn2", "dn3"}; !slices.Equal(asked, want) || refreshes != 1 {
		t.Fatalf("asked %v with %d refreshes, want %v after one", asked, refreshes, want)
	}
	if got := d.leader.order(7, []string{"dn1", "dn3"}); got[0] != "dn3" {
		t.Fatalf("leader cache after the walk: %v, want dn3 first", got)
	}
}

// TestMetaCallMovesOnOnlyPastLeaders: a meta call moves on past a replica
// that is not the leader or timed out; any other failure, a dropped
// proposal included, is its answer at once, never re-sent (a re-sent
// mutate could apply twice).
func TestMetaCallMovesOnOnlyPastLeaders(t *testing.T) {
	dropped := errors.New("raft: proposal dropped")
	for _, c := range []struct {
		name  string
		reply map[string]error
		asked []string
		want  error
	}{
		{"not leader", map[string]error{"mn0": util.ErrNotLeader}, []string{"mn0", "mn1"}, nil},
		{"proposal dropped", map[string]error{"mn0": dropped}, []string{"mn0"}, dropped},
		{"timeout then application error", map[string]error{"mn0": util.ErrTimeout, "mn1": util.ErrNotFound},
			[]string{"mn0", "mn1"}, util.ErrNotFound},
	} {
		var asked []string
		m := newMetaClient(&fakeNet{call: func(addr string, _ uint8, _, _ any) error {
			asked = append(asked, addr)
			return c.reply[addr]
		}}, Config{}.withDefaults("v"))
		mp := proto.MetaPartitionInfo{PartitionID: 1, Start: 1, End: 1 << 40, Members: []string{"mn0", "mn1", "mn2"}}
		m.setView([]proto.MetaPartitionInfo{mp})
		err := m.call(mp, proto.OpMetaInodeGet, &proto.InodeGetReq{PartitionID: 1, Inode: 1}, &proto.InodeGetResp{})
		if !errors.Is(err, c.want) || (c.want == nil) != (err == nil) || !slices.Equal(asked, c.asked) {
			t.Errorf("%s: err %v after asking %v, want %v after %v", c.name, err, asked, c.want, c.asked)
		}
	}
}

// TestUnaryReadFallsOverInOnePass: a unary read moves on past a CRC
// mismatch and a refusal to the replica that serves it, and when none
// does it fails after one pass, with no retry rounds.
func TestUnaryReadFallsOverInOnePass(t *testing.T) {
	var asked []string
	serve := "dn2"
	nw := &fakeNet{call: func(addr string, _ uint8, req, resp any) error {
		asked = append(asked, addr)
		pkt := req.(*proto.Packet)
		out := resp.(*proto.Packet)
		switch addr {
		case "dn0":
			*out = *pkt.OKResponse([]byte("data"))
			out.CRC++ // rotten
		case serve:
			*out = *pkt.OKResponse([]byte("data"))
		default:
			*out = *pkt.ErrResponse(proto.ResultErrIO, "refused")
		}
		return nil
	}}
	d := newFakeClient(nw, Config{})
	defer d.close()
	ek := proto.ExtentKey{PartitionID: 7, ExtentID: 9}
	if data, err := d.Read(ek, 0, 4); err != nil || string(data) != "data" {
		t.Fatalf("read = %q, %v", data, err)
	}
	if want := []string{"dn0", "dn1", "dn2"}; !slices.Equal(asked, want) {
		t.Fatalf("asked %v, want %v", asked, want)
	}
	asked, serve = nil, ""
	if _, err := d.Read(ek, 0, 4); !errors.Is(err, util.ErrRetryLimit) {
		t.Fatalf("read with no replica serving: %v", err)
	}
	if want := []string{"dn2", "dn0", "dn1"}; !slices.Equal(asked, want) {
		t.Fatalf("asked %v, want one pass from the last read replica", asked)
	}
}

// TestOverlappingRefreshesKeepTheNewerView: two refreshes overlap, and the
// one that pulled the older view answers last. Its view is dropped, so the
// client keeps the newer view's members in both partition maps.
func TestOverlappingRefreshesKeepTheNewerView(t *testing.T) {
	view := func(epoch uint64, member string) *proto.VolumeView {
		return &proto.VolumeView{Name: "v", Epoch: epoch,
			MetaPartitions: []proto.MetaPartitionInfo{{PartitionID: 1, Start: 1, End: 1 << 40, Members: []string{member}}},
			DataPartitions: []proto.DataPartitionInfo{{PartitionID: 2, Members: []string{member}}}}
	}
	inCall, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int32
	nw := &fakeNet{call: func(_ string, _ uint8, _, resp any) error {
		out := resp.(*proto.GetVolumeResp)
		switch calls.Add(1) {
		case 1: // Mount
			out.View = view(5, "old")
		case 2: // the slow refresh
			close(inCall)
			<-release
			out.View = view(5, "old")
		default:
			out.View = view(6, "new")
		}
		return nil
	}}
	c, err := Mount(nw, "master", "v", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	slow := make(chan error, 1)
	go func() { slow <- c.Refresh() }()
	<-inCall
	if err := c.Refresh(); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-slow; err != nil {
		t.Fatal(err)
	}
	if m, d := c.Meta.members(1), c.Data.members(2); !slices.Equal(m, []string{"new"}) || !slices.Equal(d, []string{"new"}) {
		t.Fatalf("after overlapping refreshes: meta %v, data %v, want the epoch 6 view's [new]", m, d)
	}
}
