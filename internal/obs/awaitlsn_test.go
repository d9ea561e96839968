package obs

import (
	"context"
	"errors"
	"testing"
	"time"

	"socrates/internal/socerr"
	"socrates/internal/testutil"
)

// parkOn starts an AwaitLSN for lsn on its own goroutine and returns once
// the waiter has counted itself on the rung: from then on a Publish or Drop
// must reach it, whether it is parked yet or still on its way.
func parkOn(rec *WaitRecorder, class waitClass, w *Watermark, lsn uint64, deadline time.Time) <-chan error {
	out := make(chan error, 1)
	go func() { out <- rec.AwaitLSN(context.Background(), class, w, lsn, deadline) }()
	for w.waiters.Load() == 0 {
		time.Sleep(10 * time.Microsecond) // poll for the waiter to reach the rung
	}
	return out
}

// TestAwaitLSNAllocs is the rung wait's allocation contract: a rung already
// at the LSN answers with one atomic load, and a Publish nobody waits for
// takes no lock — 0 allocations each, the apply-lag check every GetPage@LSN
// makes and the publish every apply batch does.
func TestAwaitLSNAllocs(t *testing.T) {
	testutil.SkipIfRace(t)
	set := NewWaitSet()
	rec := set.Tier("test")
	w := NewWatermarkSet().Own(WMApplied, "ps-0")
	w.Publish(10)
	ctx, deadline := context.Background(), time.Now().Add(time.Hour)
	if avg := testing.AllocsPerRun(100, func() {
		if err := rec.AwaitLSN(ctx, WaitXLOGFeed, w, 10, deadline); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("AwaitLSN fast path: %.1f allocs/op, want 0", avg)
	}
	lsn := uint64(10)
	if avg := testing.AllocsPerRun(100, func() { lsn++; w.Publish(lsn) }); avg != 0 {
		t.Fatalf("Publish with no waiter: %.1f allocs/op, want 0", avg)
	}
	if got := set.globalStats().snapshot(); len(got) != 0 {
		t.Fatalf("the fast path recorded %+v", got)
	}
}

// TestAwaitLSNPublishWakesIt: a waiter parked short of its end LSN returns
// nil once the rung reaches it — not a step earlier — and its blocked time
// is one wait of its class.
func TestAwaitLSNPublishWakesIt(t *testing.T) {
	set := NewWaitSet()
	rec := set.Tier("test")
	w := NewWatermarkSet().Own(WMSecondary, "sec-0")
	w.Publish(5)
	out := parkOn(rec, WaitXLOGFeed, w, 7, time.Time{})
	w.Publish(6)
	select {
	case err := <-out:
		t.Fatalf("AwaitLSN(7) returned %v with the rung at 6", err)
	default:
	}
	w.Publish(7)
	if err := returned(t, out); err != nil {
		t.Fatalf("AwaitLSN = %v, want nil", err)
	}
	if n := set.globalStats().snapshot(); len(n) != 1 || n[0].Class != WaitXLOGFeed.String() || n[0].Count != 1 {
		t.Fatalf("recorded %+v, want one xlog.feed wait", n)
	}
	if err := rec.AwaitLSN(nil, WaitXLOGFeed, w, 8, time.Now().Add(time.Millisecond)); !errors.Is(err, ErrDeadline) {
		t.Fatalf("AwaitLSN past its deadline = %v, want ErrDeadline", err)
	}
}

// TestAwaitLSNDropWakesIt: the owner dropping its rung wakes a parked
// waiter with an error wrapping socerr.ErrClosed and takes the rung off the
// ladder; a waiter the rung already satisfied still gets nil.
func TestAwaitLSNDropWakesIt(t *testing.T) {
	ws := NewWatermarkSet()
	w := ws.Own(WMApplied, "ps-0")
	w.Publish(3)
	out := parkOn(nil, WaitXLOGFeed, w, 100, time.Time{})
	w.Drop()
	if err := returned(t, out); !errors.Is(err, socerr.ErrClosed) {
		t.Fatalf("AwaitLSN across Drop = %v, want an error wrapping socerr.ErrClosed", err)
	}
	if got := ws.Replicas(WMApplied); len(got) != 0 {
		t.Fatalf("a dropped rung is still on the ladder: %v", got)
	}
	if err := (*WaitRecorder)(nil).AwaitLSN(nil, WaitXLOGFeed, w, 3, time.Time{}); err != nil {
		t.Fatalf("AwaitLSN on a dropped rung it reached = %v, want nil", err)
	}
}

// TestAwaitLSNPublishStress is the lost wake-up the waiter count must not
// allow: thousands of waits, each for the LSN the very next Publish brings,
// racing it with no deadline. A Publish that read no waiter while one was
// between counting itself and parking would leave it parked for good.
func TestAwaitLSNPublishStress(t *testing.T) {
	w := (*WatermarkSet)(nil).Own(WMApplied, "ps-0")
	for lsn := uint64(1); lsn <= 5000; lsn++ {
		out := make(chan error, 1)
		go func() { out <- (*WaitRecorder)(nil).AwaitLSN(nil, WaitXLOGFeed, w, lsn, time.Time{}) }()
		w.Publish(lsn)
		if err := returned(t, out); err != nil {
			t.Fatalf("wait for %d: %v", lsn, err)
		}
	}
}

// TestOwnedRungs: a rung is owned per incarnation. Own replaces whatever an
// earlier owner left under its key, so a re-added replica starts from its
// own LSN, and the earlier owner's Drop leaves its successor on the ladder.
// Reading the ladder never creates a rung, and a nil set hands out a working
// standalone one.
func TestOwnedRungs(t *testing.T) {
	ws := NewWatermarkSet()
	old := ws.Own(WMSecondary, "sec-1")
	old.Publish(500)
	fresh := ws.Own(WMSecondary, "sec-1")
	fresh.Publish(40)
	old.Drop()
	if got := ws.Watermark(WMSecondary, "sec-1"); got != fresh || got.Value() != 40 {
		t.Fatalf("sec-1 on the ladder reads %d, want its own 40", got.Value())
	}
	if ws.Watermark(WMApplied, "ps-9") != nil || len(ws.Replicas(WMApplied)) != 0 {
		t.Fatal("reading the ladder created a rung")
	}
	solo := (*WatermarkSet)(nil).Own(WMApplied, "hadr")
	solo.Publish(9)
	if err := (*WaitRecorder)(nil).AwaitLSN(nil, WaitXLOGFeed, solo, 9, time.Time{}); err != nil || solo.Value() != 9 {
		t.Fatalf("standalone rung: value %d, wait %v", solo.Value(), err)
	}
}

// TestWatchdogForgetsDroppedRungs: a follower that stops — and drops its
// rung — while behind leaves the ladder, so it neither trips the stall rule
// nor holds up the lag gauge.
func TestWatchdogForgetsDroppedRungs(t *testing.T) {
	ws := NewWatermarkSet()
	reg := NewRegistry()
	d := newWatchdog(ws, reg, nil, nil, WatchdogConfig{MaxLagLSN: -1, StallTicks: 3})
	publishLadder(ws, 500, 500, 500, 500)
	live, dead := ws.Own(WMApplied, "ps-0"), ws.Own(WMApplied, "ps-1")
	live.Publish(500)
	dead.Publish(100)
	d.Tick()
	dead.Drop()
	for i := 0; i < 5; i++ {
		d.Tick()
	}
	if n := len(d.Trips()); n != 0 {
		t.Fatalf("a dropped rung tripped the watchdog: %+v", d.Trips())
	}
	if lag := reg.Gauge("pageserver.apply_lag_lsn").Value(); lag != 0 {
		t.Fatalf("apply lag gauge = %d with the only live follower caught up", lag)
	}
	if _, ok := ws.ladderLags()["pageserver.apply_lag_lsn/ps-1"]; ok {
		t.Fatal("LadderLags still lists the dropped rung")
	}
}
