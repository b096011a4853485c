package clock

import (
	"testing"
	"time"
)

// The data node checks its read lease on every read, so Real.Now through
// the interface must cost what time.Now costs: no allocation.
func TestRealNowDoesNotAllocate(t *testing.T) {
	var c Clock = Real{}
	if n := testing.AllocsPerRun(100, func() { _ = c.Now() }); n != 0 {
		t.Fatalf("Real.Now allocates %v times per call", n)
	}
}

func TestManualMovesOnlyOnAdvance(t *testing.T) {
	start := time.Unix(1_000_000, 0)
	c := NewManual(start)
	if !c.Now().Equal(start) {
		t.Fatalf("Now = %v, want the start %v", c.Now(), start)
	}
	c.Advance(time.Second)
	c.Advance(time.Nanosecond)
	if got, want := c.Now().Sub(start), time.Second+time.Nanosecond; got != want {
		t.Fatalf("advanced %v, want %v", got, want)
	}
}

// Every on a Manual clock calls nothing, however far the clock moves; on
// Real it ticks. Either returns once stop closes.
func TestEvery(t *testing.T) {
	run := func(c Clock, fn func()) (stop func()) {
		s, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			c.Every(time.Millisecond, s, fn)
		}()
		return func() { close(s); <-done }
	}
	m := NewManual(time.Unix(0, 0))
	stop := run(m, func() { t.Error("Manual.Every called fn") })
	m.Advance(time.Hour)
	stop()

	ticks := make(chan struct{}, 1)
	stop = run(Real{}, func() {
		select {
		case ticks <- struct{}{}:
		default:
		}
	})
	<-ticks
	stop()
}

func TestOrReal(t *testing.T) {
	if _, ok := OrReal(nil).(Real); !ok {
		t.Fatal("a nil Clock must mean Real")
	}
	m := NewManual(time.Unix(0, 0))
	if OrReal(m) != Clock(m) {
		t.Fatal("OrReal replaced a set clock")
	}
}
