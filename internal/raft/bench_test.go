package raft

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// benchmarkCommit measures the protocol's own cost of one commit: n nodes
// on the in-package router (a Send is a direct Step into the peer's event
// loop), ExternalClock with nobody ticking, one closed-loop proposer. What
// is left is event-loop hand-offs and message construction; every wait a
// deployment adds (MultiRaft's flush clock, a wire) sits above this number.
func benchmarkCommit(b *testing.B, n int) {
	r := newRouter()
	var msgs, entryBytes atomic.Int64
	deliver := r.sender()
	counting := SenderFunc(func(m *Message) {
		msgs.Add(1)
		for _, e := range m.Entries {
			entryBytes.Add(int64(len(e.Data)))
		}
		deliver.Send(m)
	})
	peers := make([]string, n)
	for i := range peers {
		peers[i] = fmt.Sprintf("n%d", i)
	}
	nodes := make([]*Node, n)
	for i, id := range peers {
		node, err := NewNode(Config{
			ID: id, Peers: peers, GroupID: 1, Sender: counting, SM: newKVSM(),
			ExternalClock: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer node.Stop()
		r.mu.Lock()
		r.nodes[id] = node
		r.mu.Unlock()
		nodes[i] = node
	}
	leader := nodes[0]
	leader.Campaign()
	for deadline := time.Now().Add(5 * time.Second); !leader.IsLeader(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			b.Fatal("no leader")
		}
	}
	entry := []byte("k=0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcd") // 64 B + key
	if _, err := leader.Propose(entry); err != nil {
		b.Fatal(err)
	}
	msgs.Store(0)
	entryBytes.Store(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := leader.Propose(entry); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "us/commit")
	b.ReportMetric(float64(msgs.Load())/float64(b.N), "msgs/commit")
	b.ReportMetric(float64(entryBytes.Load())/float64(b.N), "entryB/commit")
}

func BenchmarkCommit_1Node(b *testing.B) { benchmarkCommit(b, 1) }
func BenchmarkCommit_3Node(b *testing.B) { benchmarkCommit(b, 3) }
