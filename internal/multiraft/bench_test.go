package multiraft

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"cfs/internal/transport"
)

// BenchmarkLaneCommit measures one commit through the whole MultiRaft lane
// at the product's defaults (10 ms tick, nothing else paced): three
// managers, one group, N closed-loop proposers on the leader, on two
// fabrics - the zero-latency Memory network, which hands each batch over by
// pointer, and TCP loopback, where each batch is one one-way frame in the
// lane's own layout. Besides the latency a proposer sees it reports the
// process CPU (user+sys, getrusage) per commit and what the managers put on
// the wire per commit: batches, non-heartbeat messages, entry payload bytes.
func BenchmarkLaneCommit(b *testing.B) {
	for _, fabric := range []string{"mem", "tcp"} {
		for _, proposers := range []int{1, 2, 16} {
			b.Run(fmt.Sprintf("%s/proposers=%d", fabric, proposers), func(b *testing.B) {
				benchmarkLaneCommit(b, fabric, proposers)
			})
		}
	}
}

func benchmarkLaneCommit(b *testing.B, fabric string, proposers int) {
	var c wireCount
	leader := startLane(b, fabric, &c, nil)[0]
	leader.Campaign()
	waitFor(b, 5*time.Second, "no leader", leader.IsLeader)
	entry := make([]byte, 64)
	if _, err := leader.Propose(entry); err != nil {
		b.Fatal(err)
	}
	c.batches.Store(0)
	c.msgs.Store(0)
	c.entryBytes.Store(0)
	var next atomic.Int64
	var wg sync.WaitGroup
	cpu0 := cpuTime()
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
	b.ReportMetric(float64((cpuTime()-cpu0).Microseconds())/n, "cpu_us/commit")
	b.ReportMetric(float64(c.batches.Load())/n, "batches/commit")
	b.ReportMetric(float64(c.msgs.Load())/n, "msgs/commit")
	b.ReportMetric(float64(c.entryBytes.Load())/n, "entryB/commit")
}

// cpuTime is the CPU time (user+sys) the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// wireCount is what managers hand their streams, counted before the fabric
// encodes it.
type wireCount struct{ batches, msgs, entryBytes atomic.Int64 }

// countNet wraps a fabric so that every batch a manager sends is counted.
type countNet struct {
	transport.StreamNetwork
	c *wireCount
}

func (n countNet) OpenStream(addr string) transport.Stream {
	return countStream{n.StreamNetwork.OpenStream(addr), n.c}
}

type countStream struct {
	transport.Stream
	c *wireCount
}

func (s countStream) Send(op uint8, req any) error {
	if b, ok := req.(*Batch); ok {
		s.c.batches.Add(1)
		s.c.msgs.Add(int64(len(b.Messages)))
		for _, msg := range b.Messages {
			for _, e := range msg.Entries {
				s.c.entryBytes.Add(int64(len(e.Data)))
			}
		}
	}
	return s.Stream.Send(op, req)
}

// startLane starts three managers at the product's defaults, each hosting
// group 1, on fabric "mem" or "tcp" (loopback, ports chosen by the kernel).
// Their sends are counted into c, and wrap, if not nil, wraps every
// manager's handler. It returns the groups.
func startLane(tb testing.TB, fabric string, c *wireCount, wrap func(transport.Handler) transport.Handler) []*Group {
	tb.Helper()
	var nw transport.StreamNetwork
	addrs := []string{"a", "b", "c"}
	handlers := make([]transport.Handler, len(addrs))
	ready := make(chan struct{}) // closed once handlers is filled
	switch fabric {
	case "mem":
		nw = transport.NewMemory()
	case "tcp":
		nw = transport.NewTCP()
	default:
		tb.Fatalf("unknown fabric %q", fabric)
	}
	for i, addr := range addrs {
		if fabric == "tcp" {
			addr = "127.0.0.1:0"
		}
		ln, err := nw.Listen(addr, func(op uint8, req any) (any, error) {
			<-ready
			return handlers[i](op, req)
		})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { ln.Close() })
		addrs[i] = ln.Addr()
	}
	var groups []*Group
	for i, addr := range addrs {
		m := New(addr, countNet{nw, c}, Config{})
		tb.Cleanup(m.Close) // runs before the listeners close
		handlers[i] = m.Handler()
		if wrap != nil {
			handlers[i] = wrap(handlers[i])
		}
		g, err := m.CreateGroup(1, addrs, nopSM{})
		if err != nil {
			tb.Fatal(err)
		}
		groups = append(groups, g)
	}
	close(ready)
	return groups
}

// BenchmarkBatchCodec is one encode plus decode of a one-entry MsgApp batch
// (64 B entry, loopback addresses): the lane's codec, decoding its own copy
// of the bytes as a TCP receiver does, next to gob on a warm stream (type
// descriptors already sent), which carried the lane before.
func BenchmarkBatchCodec(b *testing.B) {
	batch := appendBatch(64)
	b.Run("codec=lane", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, _ = batch.AppendBinary(buf[:0])
			if _, err := decodeBatch(bytes.Clone(buf), "127.0.0.1:17311"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("codec=gob", func(b *testing.B) {
		var wire bytes.Buffer
		enc, dec := gob.NewEncoder(&wire), gob.NewDecoder(&wire)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := enc.Encode(batch); err != nil {
				b.Fatal(err)
			}
			var out Batch
			if err := dec.Decode(&out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
