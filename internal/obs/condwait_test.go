package obs

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"socrates/internal/socerr"
	"socrates/internal/testutil"
)

// liveness bounds how long a test waits for a CondWait that must return.
// It is a hang guard: no assertion reads how long a wait took.
const liveness = 5 * time.Second

// condRig is one condition a test waits on: a lock, its cond, the flag the
// ready predicate reads, and the recorder the waits land in.
type condRig struct {
	mu    sync.Mutex
	c     *sync.Cond
	flag  bool
	set   *WaitSet
	rec   *WaitRecorder
	asked chan struct{} // closed by ready's first call
	once  sync.Once
}

func newCondRig() *condRig {
	r := &condRig{set: NewWaitSet(), asked: make(chan struct{})}
	r.c = sync.NewCond(&r.mu)
	r.rec = r.set.Tier("test")
	return r
}

func (r *condRig) ready() bool {
	r.once.Do(func() { close(r.asked) })
	return r.flag
}

// park starts a CondWait on its own goroutine and returns once the waiter
// is parked in Wait: ready's first call runs under r.mu, and the waiter
// lets go of r.mu only inside Wait (or on its way out), so the test taking
// r.mu after that call means the waiter got there.
func (r *condRig) park(ctx context.Context, class waitClass, deadline time.Time) <-chan error {
	out := make(chan error, 1)
	go func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		out <- r.rec.CondWait(ctx, class, r.c, deadline, r.ready)
	}()
	<-r.asked
	r.mu.Lock()
	defer r.mu.Unlock()
	return out
}

// set makes the condition true the way a state change must: under the
// lock, with a broadcast.
func (r *condRig) setReady() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flag = true
	r.c.Broadcast()
}

// recorded reports how many waits of class the rig's recorder holds.
func (r *condRig) recorded(class waitClass) uint64 {
	for _, st := range r.set.globalStats().snapshot() {
		if st.Class == class.String() {
			return st.Count
		}
	}
	return 0
}

func returned(t *testing.T, out <-chan error) error {
	t.Helper()
	guard := time.NewTimer(liveness)
	defer guard.Stop()
	select {
	case err := <-out:
		return err
	case <-guard.C:
		t.Fatalf("CondWait still waiting after %v", liveness)
		return nil
	}
}

// TestCondWaitReadyWakesIt: a waiter parked with no deadline and a live
// context returns nil once the state it waits for changes, and its blocked
// time is one wait of its class.
func TestCondWaitReadyWakesIt(t *testing.T) {
	r := newCondRig()
	out := r.park(context.Background(), WaitXLOGFeed, time.Time{})
	r.setReady()
	if err := returned(t, out); err != nil {
		t.Fatalf("CondWait = %v, want nil", err)
	}
	if n := r.recorded(WaitXLOGFeed); n != 1 {
		t.Fatalf("xlog.feed waits recorded = %d, want 1", n)
	}
}

// TestCondWaitCancelWakesIt: nothing broadcasts and there is no deadline;
// the end of the context alone wakes the parked waiter.
func TestCondWaitCancelWakesIt(t *testing.T) {
	r := newCondRig()
	ctx, cancel := context.WithCancel(context.Background())
	out := r.park(ctx, WaitXLOGFeed, time.Time{})
	cancel()
	if err := returned(t, out); !errors.Is(err, context.Canceled) {
		t.Fatalf("CondWait = %v, want context.Canceled", err)
	}
	if n := r.recorded(WaitXLOGFeed); n != 1 {
		t.Fatalf("xlog.feed waits recorded = %d, want 1", n)
	}
}

// TestCondWaitDeadlineWakesIt: nothing broadcasts and the context never
// ends; the deadline alone wakes the waiter, with an ErrTimeout.
func TestCondWaitDeadlineWakesIt(t *testing.T) {
	r := newCondRig()
	out := r.park(context.Background(), WaitXLOGFeed, time.Now().Add(time.Millisecond))
	if err := returned(t, out); !errors.Is(err, ErrDeadline) || !errors.Is(err, socerr.ErrTimeout) {
		t.Fatalf("CondWait = %v, want ErrDeadline, an ErrTimeout", err)
	}
}

// TestCondWaitFastPathRecordsNothing: already ready, CondWait returns at
// once, records no wait and allocates nothing — the apply-lag check every
// GetPage@LSN makes.
func TestCondWaitFastPathRecordsNothing(t *testing.T) {
	r := newCondRig()
	r.flag = true
	r.mu.Lock()
	defer r.mu.Unlock()
	ctx, deadline := context.Background(), time.Now().Add(time.Hour)
	if err := r.rec.CondWait(ctx, WaitXLOGFeed, r.c, deadline, r.ready); err != nil {
		t.Fatalf("CondWait = %v, want nil", err)
	}
	if got := r.set.globalStats().snapshot(); len(got) != 0 {
		t.Fatalf("the fast path recorded %+v", got)
	}
	if testutil.RaceEnabled {
		return // the race runtime's instrumentation allocates
	}
	if avg := testing.AllocsPerRun(100, func() {
		if err := r.rec.CondWait(ctx, WaitXLOGFeed, r.c, deadline, r.ready); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("fast path: %.1f allocs/op, want 0", avg)
	}
}

// TestCondWaitNoneRecordsNothing: WaitNone blocks like any class but
// charges the wait to no one.
func TestCondWaitNoneRecordsNothing(t *testing.T) {
	r := newCondRig()
	out := r.park(context.Background(), WaitNone, time.Time{})
	r.setReady()
	if err := returned(t, out); err != nil {
		t.Fatalf("CondWait = %v, want nil", err)
	}
	if got := r.set.globalStats().snapshot(); len(got) != 0 {
		t.Fatalf("WaitNone recorded %+v", got)
	}
}

// TestCondWaitDeadlineStress is the lost wake-up a deadline broadcast
// outside the lock allows: 10k waits with 0–50 µs deadlines and no other
// broadcaster. A timer firing between a waiter's check and its Wait
// registering would leave the waiter parked for good; every wait must come
// back.
func TestCondWaitDeadlineStress(t *testing.T) {
	r := newCondRig()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		deadline := time.Now().Add(time.Duration(rng.Int63n(int64(50*time.Microsecond) + 1)))
		out := make(chan error, 1)
		go func() {
			r.mu.Lock()
			defer r.mu.Unlock()
			out <- r.rec.CondWait(context.Background(), WaitXLOGFeed, r.c, deadline, r.ready)
		}()
		if err := returned(t, out); !errors.Is(err, ErrDeadline) {
			t.Fatalf("wait %d: CondWait = %v, want ErrDeadline", i, err)
		}
	}
}
