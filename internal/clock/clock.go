// Package clock is the control plane's source of time. The master decides
// liveness, detach, re-attach and replacement from Now, the nodes stamp
// their read leases with it, and every background loop of the master,
// meta and data nodes runs through Every. A Manual clock hands both to the
// caller: time moves only on Advance and no background loop runs, so tests
// drive heartbeats and maintenance scans themselves.
package clock

import (
	"sync"
	"time"
)

// Clock is what the control plane asks of time.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Every blocks, calling fn every d, until stop closes.
	Every(d time.Duration, stop <-chan struct{}, fn func())
}

// Real is wall time. It is what a nil Clock in a node's config means.
type Real struct{}

// Now returns time.Now().
func (Real) Now() time.Time { return time.Now() }

// Every runs fn on a ticker of period d until stop closes.
func (Real) Every(d time.Duration, stop <-chan struct{}, fn func()) {
	t := time.NewTicker(d)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			fn()
		}
	}
}

// Manual is a clock that moves only when Advance is called. It is safe
// for concurrent use.
type Manual struct {
	mu  sync.Mutex
	now time.Time
}

// NewManual returns a Manual clock reading start.
func NewManual(start time.Time) *Manual { return &Manual{now: start} }

// Now returns the clock's current reading.
func (c *Manual) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves the clock forward by d.
func (c *Manual) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// Every never calls fn: it only waits for stop. A node on a Manual clock
// therefore runs no background loop; its caller drives each step.
func (c *Manual) Every(_ time.Duration, stop <-chan struct{}, _ func()) { <-stop }

// OrReal returns c, or Real when c is nil.
func OrReal(c Clock) Clock {
	if c == nil {
		return Real{}
	}
	return c
}
