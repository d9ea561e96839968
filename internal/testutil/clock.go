package testutil

import (
	"sort"
	"sync"
	"time"
)

// FakeClock is a manually advanced clock for deterministic timer tests. It
// structurally satisfies logwriter's clock (Now + AfterFunc), so the adaptive
// group-commit batcher's timeout logic runs without wall-clock sleeps: the
// test calls Advance and every timer due at the new time fires synchronously
// before Advance returns.
//
// Callbacks run with no FakeClock lock held, so they may take arbitrary
// locks (the batcher's callback takes the writer mutex to broadcast). The
// converse discipline is the caller's: never call Advance while holding a
// lock a timer callback takes.
type FakeClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []*fakeTimer
}

type fakeTimer struct {
	at      time.Time
	f       func()
	stopped bool
}

// NewFakeClock starts a clock at an arbitrary fixed epoch.
func NewFakeClock() *FakeClock {
	return &FakeClock{now: time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)}
}

// Now reports the clock's current time.
func (c *FakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// AfterFunc schedules f to run when the clock advances past d from now.
// The returned stop function cancels the timer if it has not fired,
// reporting whether it did cancel.
func (c *FakeClock) AfterFunc(d time.Duration, f func()) func() bool {
	c.mu.Lock()
	t := &fakeTimer{at: c.now.Add(d), f: f}
	c.timers = append(c.timers, t)
	c.mu.Unlock()
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		if t.stopped {
			return false
		}
		t.stopped = true
		return true
	}
}

// Advance moves the clock forward by d and fires every due timer in
// deadline order, synchronously, before returning.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	var due []*fakeTimer
	keep := c.timers[:0]
	for _, t := range c.timers {
		if !t.stopped && !t.at.After(c.now) {
			t.stopped = true
			due = append(due, t)
			continue
		}
		if !t.stopped {
			keep = append(keep, t)
		}
	}
	c.timers = keep
	c.mu.Unlock()
	sort.SliceStable(due, func(i, j int) bool { return due[i].at.Before(due[j].at) })
	for _, t := range due {
		t.f()
	}
}

// Pending reports the number of armed timers (diagnostics).
func (c *FakeClock) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, t := range c.timers {
		if !t.stopped {
			n++
		}
	}
	return n
}
