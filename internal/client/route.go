package client

import (
	"fmt"
	"sync"
	"time"

	"cfs/internal/util"
)

// answerer caches, per partition, the replica that last answered one kind
// of request, so that most requests reach it on the first try (Section
// 2.4). The meta leader, the data leader and the read replica are three
// of them. The zero answerer is empty and ready.
type answerer struct {
	mu  sync.Mutex
	who map[uint64]string
}

// order returns members with pid's cached answerer first. When it already
// is first, or none is cached, that is members itself, with no allocation.
func (a *answerer) order(pid uint64, members []string) []string {
	a.mu.Lock()
	who := a.who[pid]
	a.mu.Unlock()
	if who == "" || len(members) > 0 && members[0] == who {
		return members
	}
	out := append(make([]string, 0, len(members)+1), who)
	for _, m := range members {
		if m != who {
			out = append(out, m)
		}
	}
	return out
}

func (a *answerer) note(pid uint64, addr string) {
	a.mu.Lock()
	if a.who == nil {
		a.who = make(map[uint64]string)
	}
	a.who[pid] = addr
	a.mu.Unlock()
}

// forget drops addr as pid's answerer, if it still is.
func (a *answerer) forget(pid uint64, addr string) {
	a.mu.Lock()
	if a.who[pid] == addr {
		delete(a.who, pid)
	}
	a.mu.Unlock()
}

// walk is the one replica walk of a partition request (Section 2.1.3: the
// client retries a failed request until it succeeds or the retry limit is
// reached). Each round tries the members in cache's order. The first that
// answers is noted in cache and ends the walk; a failure its try says
// moves on forgets that replica and tries the next, any other failure is
// the walk's answer. After a round in which every replica failed, while
// rounds remain, the walk waits backoff, re-pulls the view and takes the
// partition's members from it: the master may have detached a dead
// replica or placed a replacement since the caller read its view.
type walk struct {
	pid     uint64
	members []string // the replicas as the caller's view lists them
	cache   *answerer
	rounds  int    // retry rounds after the first
	view    router // needed only when rounds > 0
}

// router is what a walk asks of its client between rounds: the client
// itself, not method values, which would cost an allocation per request.
type router interface {
	refresh() error              // re-pulls the volume view
	members(pid uint64) []string // pid's replicas in the current view
}

// run sends the request to one replica per try call until the walk ends.
func (w walk) run(try func(addr string) (moveOn bool, err error)) error {
	var last error
	for round := 0; ; round++ {
		for _, addr := range w.cache.order(w.pid, w.members) {
			moveOn, err := try(addr)
			if err == nil {
				w.cache.note(w.pid, addr)
				return nil
			}
			if !moveOn {
				return err
			}
			w.cache.forget(w.pid, addr)
			last = err
		}
		if round == w.rounds {
			return fmt.Errorf("client: partition %d: every replica failed: %w (last: %v)", w.pid, util.ErrRetryLimit, last)
		}
		backoff(round)
		_ = w.view.refresh()
		if m := w.view.members(w.pid); len(m) > 0 {
			w.members = m
		}
	}
}

// noRefresh is a client's view refresh until Mount wires Client.Refresh.
func noRefresh() error { return nil }

// backoff sleeps before retry round attempt+1 of a request whose target is
// not ready yet - a partition electing its leader (~100-200 ms with the
// default ticks, during which every member answers not-leader), a data
// partition in a recovery pass: (attempt+1) × 25 ms, so the default
// MaxRetries (3) rounds wait 150 ms in all.
func backoff(attempt int) { time.Sleep(time.Duration(attempt+1) * 25 * time.Millisecond) }
