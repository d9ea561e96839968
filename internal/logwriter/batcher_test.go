package logwriter

import (
	"context"
	"testing"
	"time"

	"socrates/internal/page"
	"socrates/internal/testutil"
	"socrates/internal/wal"
)

// ---- deterministic-clock batching-window tests ----
//
// These extend PR 8's Tick-driven watchdog pattern: the batcher's window
// logic runs against testutil.FakeClock, so timeout behavior is asserted
// without a single wall-clock sleep.

// setBatcherState force-feeds the adaptive state the window policy reads.
func setBatcherState(w *LogWriter, inflight int, writeEWMA, gapEWMA time.Duration) {
	w.mu.Lock()
	w.inflightCnt = inflight
	w.writeEWMA = float64(writeEWMA)
	w.gapEWMA = float64(gapEWMA)
	w.mu.Unlock()
}

// armClock is a FakeClock that reports every timer armed, so a test steps
// to "the leader is holding its window" by receiving, not by polling. The
// leader arms under w.mu and waits right after, so once the arm is received
// an Append's signal reaches it.
type armClock struct {
	*testutil.FakeClock
	armed chan time.Duration
}

func newArmClock() armClock {
	return armClock{testutil.NewFakeClock(), make(chan time.Duration, 16)}
}

func (c armClock) AfterFunc(d time.Duration, f func()) func() bool {
	stop := c.FakeClock.AfterFunc(d, f)
	c.armed <- d
	return stop
}

func TestBatchWindowHoldsUntilTimerFires(t *testing.T) {
	sink := newFakeSink(false)
	clk := newArmClock()
	w := New(sink, 1, WithClock(clk))
	defer w.Close()
	// A busy pipeline with an 800µs write estimate: the plan holds small
	// batches open for 200µs (write/4).
	setBatcherState(w, 1, 800*time.Microsecond, 0)

	lsn := w.Append(wal.NewCommit(1, 1))
	led := make(chan error, 1)
	go func() { led <- w.WaitHarden(context.Background(), lsn) }()
	if d := <-clk.armed; d != 200*time.Microsecond {
		t.Fatalf("leader armed a %v window, want 200µs", d)
	}
	if got := sink.durableEnd(); got != 1 {
		t.Fatalf("batch cut before the window expired: hardened=%d", got)
	}
	// A second commit joins the open batch while the window holds: the
	// leader re-checks its byte target and re-arms for what is left.
	lsn2 := w.Append(wal.NewCommit(2, 2))
	if d := <-clk.armed; d != 200*time.Microsecond {
		t.Fatalf("leader re-armed a %v window on a frozen clock, want 200µs", d)
	}
	// Fire the window: one block must carry both commits.
	clk.Advance(200 * time.Microsecond)
	if err := <-led; err != nil {
		t.Fatal(err)
	}
	if got := w.HardenedEnd(); got != lsn2+1 {
		t.Fatalf("leader returned with hardened=%d, want %d", got, lsn2+1)
	}
	if err := w.WaitHarden(context.Background(), lsn2); err != nil {
		t.Fatal(err)
	}
	blocks, _ := w.Stats()
	if blocks != 1 {
		t.Fatalf("window produced %d blocks, want 1 (both commits batched)", blocks)
	}
}

func TestBatchCutsAtByteTargetWithoutClock(t *testing.T) {
	clk := testutil.NewFakeClock()
	w := New(newFakeSink(false), 1, WithClock(clk))
	defer w.Close()
	setBatcherState(w, 1, 0, 0) // default write estimate → 4KiB target

	// A batch already over the byte target must cut with the clock frozen.
	for j := 0; j < 3; j++ {
		w.Append(&wal.Record{Kind: wal.KindCellPut, Page: 1, Txn: 1,
			Key: []byte{byte(j)}, Value: make([]byte, 2<<10)})
	}
	lsn := w.Append(wal.NewCommit(1, 1))
	if err := w.WaitHarden(context.Background(), lsn); err != nil {
		t.Fatal(err)
	}
}

func TestSparseArrivalsSkipTheWindow(t *testing.T) {
	clk := testutil.NewFakeClock()
	w := New(newFakeSink(false), 1, WithClock(clk))
	defer w.Close()
	// Busy pipeline but commits arriving far slower than any window:
	// batching would only add latency, so the plan cuts immediately and
	// the commit hardens with the clock frozen.
	setBatcherState(w, 1, 800*time.Microsecond, 5*time.Millisecond)

	lsn := w.Append(wal.NewCommit(1, 1))
	if err := w.WaitHarden(context.Background(), lsn); err != nil {
		t.Fatal(err)
	}
}

func TestBatchPlanPolicy(t *testing.T) {
	w := &LogWriter{}
	// Idle pipeline: cut now.
	if wait, _ := w.batchPlan(); wait != 0 {
		t.Fatalf("idle pipeline wait = %v, want 0", wait)
	}
	w.inflightCnt = 1
	// No write samples yet: default estimate, minimum target.
	wait, target := w.batchPlan()
	if wait != defaultWriteEstimate/4 || target != minBatchTarget {
		t.Fatalf("cold plan = (%v, %d)", wait, target)
	}
	// Slow writes stretch window and target proportionally.
	w.writeEWMA = float64(4 * time.Millisecond)
	wait, target = w.batchPlan()
	if wait != time.Millisecond || target != 8*minBatchTarget {
		t.Fatalf("slow-write plan = (%v, %d)", wait, target)
	}
	// Both clamp.
	w.writeEWMA = float64(time.Second)
	wait, target = w.batchPlan()
	if wait != maxBatchWait || target != maxBatchTarget {
		t.Fatalf("clamped plan = (%v, %d)", wait, target)
	}
	// Sparse arrivals zero the wait but keep the target.
	w.gapEWMA = float64(time.Second)
	if wait, _ = w.batchPlan(); wait != 0 {
		t.Fatalf("sparse-arrival wait = %v, want 0", wait)
	}
}

// ---- log-record coalescing ----

func TestCoalesceBatchSquashesSameTxnOverwrites(t *testing.T) {
	rec := func(lsn page.LSN, txn uint64, kind wal.Kind, key, val string) *wal.Record {
		return &wal.Record{LSN: lsn, Txn: txn, Kind: kind, Page: 1,
			Key: []byte(key), Value: []byte(val)}
	}
	recs := []*wal.Record{
		rec(1, 1, wal.KindCellPut, "k", "v1"),
		rec(2, 2, wal.KindCellPut, "k", "other-txn"), // different txn: kept
		rec(3, 1, wal.KindCellPut, "k", "v2"),
		rec(4, 1, wal.KindPageImage, "", "img"), // page image: never coalesced
		rec(5, 1, wal.KindCellPut, "k", "v3"),
		rec(6, 1, wal.KindTxnCommit, "", ""),
	}
	out, dropped := coalesceBatch(recs)
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2", dropped)
	}
	wantLSNs := []page.LSN{2, 4, 5, 6}
	if len(out) != len(wantLSNs) {
		t.Fatalf("kept %d records, want %d", len(out), len(wantLSNs))
	}
	for i, r := range out {
		if r.LSN != wantLSNs[i] {
			t.Fatalf("kept[%d] = LSN %d, want %d", i, r.LSN, wantLSNs[i])
		}
	}
	if string(out[2].Value) != "v3" {
		t.Fatalf("survivor value = %q, want the LAST image", out[2].Value)
	}
}

func TestCoalesceBatchNoOverwritesIsPassthrough(t *testing.T) {
	recs := []*wal.Record{
		{LSN: 1, Txn: 1, Kind: wal.KindCellPut, Page: 1, Key: []byte("a")},
		{LSN: 2, Txn: 1, Kind: wal.KindCellPut, Page: 1, Key: []byte("b")},
		{LSN: 3, Txn: 1, Kind: wal.KindTxnCommit},
	}
	out, dropped := coalesceBatch(recs)
	if dropped != 0 || len(out) != 3 {
		t.Fatalf("passthrough broke: dropped=%d len=%d", dropped, len(out))
	}
}
