package multiraft

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cfs/internal/transport"
)

// BenchmarkLaneCommit measures one commit through the whole MultiRaft lane
// at the product's defaults (10 ms tick, nothing else paced): three managers
// on a zero-latency Memory fabric, one group, N closed-loop proposers on
// the leader. Besides the latency a proposer sees it reports what reached
// the wire per commit - batches, non-heartbeat messages, entry payload
// bytes - counted at the receiving handlers.
func BenchmarkLaneCommit(b *testing.B) {
	for _, proposers := range []int{1, 2, 16} {
		b.Run(fmt.Sprintf("proposers=%d", proposers), func(b *testing.B) { benchmarkLaneCommit(b, proposers) })
	}
}

func benchmarkLaneCommit(b *testing.B, proposers int) {
	nw := transport.NewMemory()
	addrs := []string{"a", "b", "c"}
	var batches, msgs, entryBytes atomic.Int64
	var groups []*Group
	for _, addr := range addrs {
		m := New(addr, nw, Config{})
		defer m.Close()
		h := m.Handler()
		ln, err := nw.Listen(addr, func(op uint8, req any) (any, error) {
			if bt, ok := req.(*Batch); ok {
				batches.Add(1)
				msgs.Add(int64(len(bt.Messages)))
				for _, msg := range bt.Messages {
					for _, e := range msg.Entries {
						entryBytes.Add(int64(len(e.Data)))
					}
				}
			}
			return h(op, req)
		})
		if err != nil {
			b.Fatal(err)
		}
		defer ln.Close()
		g, err := m.CreateGroup(1, addrs, nopSM{})
		if err != nil {
			b.Fatal(err)
		}
		groups = append(groups, g)
	}
	leader := groups[0]
	leader.Campaign()
	waitFor(b, 5*time.Second, "no leader", leader.IsLeader)
	entry := make([]byte, 64)
	if _, err := leader.Propose(entry); err != nil {
		b.Fatal(err)
	}
	batches.Store(0)
	msgs.Store(0)
	entryBytes.Store(0)
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < proposers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if _, err := leader.Propose(entry); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Microseconds())*float64(proposers)/n, "us/commit")
	b.ReportMetric(float64(batches.Load())/n, "batches/commit")
	b.ReportMetric(float64(msgs.Load())/n, "msgs/commit")
	b.ReportMetric(float64(entryBytes.Load())/n, "entryB/commit")
}
