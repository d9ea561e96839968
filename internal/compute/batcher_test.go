package compute

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/simdisk"
	"socrates/internal/testutil"
	"socrates/internal/wal"
)

// ---- property-style batcher test ----
//
// Drive the adaptive group-commit batcher with seeded, replayable
// randomized interleavings of commit sizes and arrival gaps, and assert
// the invariants that must hold under EVERY schedule:
//
//  1. each committer's acked LSNs are monotone and the hardened watermark
//     it observes never regresses;
//  2. no commit is acknowledged before its batch is durable in the landing
//     zone (the LZ's own hardened prefix covers the LSN at ack time);
//  3. batch boundaries never split a log record: every appended record
//     appears in exactly one hardened block, blocks chain contiguously,
//     and every block ends on a transaction-boundary record;
//  4. per-request WaitProfile commit.harden attribution sums to the tier
//     sketch's commit.harden total.
//
// Replay a failure with -run 'TestBatcherProperty/seed=N'.

func TestBatcherProperty(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runBatcherProperty(t, seed)
		})
	}
}

type ackSample struct {
	lsn        page.LSN // commit record LSN
	lzHardened page.LSN // LZ durable prefix observed at ack time
	wHardened  page.LSN // writer watermark observed at ack time
}

func runBatcherProperty(t *testing.T, seed int64) {
	lz := newLZ(t)
	ws := obs.NewWaitSet()
	w := NewLogWriter(lz, nil, page.Partitioning{}, 1, WithObservability(obs.Plane{Waits: ws}))
	defer w.Close()

	const committers = 8
	const commitsPer = 20

	profiles := make([]*obs.WaitProfile, committers)
	acks := make([][]ackSample, committers)
	var appended sync.Map // LSN -> struct{} for every record we appended
	var wg sync.WaitGroup
	for c := 0; c < committers; c++ {
		c := c
		profiles[c] = obs.NewWaitProfile()
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(simdisk.MixSeed(seed, int64(c+1))))
			ctx := obs.ContextWithWaitProfile(context.Background(), profiles[c])
			for i := 0; i < commitsPer; i++ {
				txn := uint64(c*commitsPer + i + 1)
				for j := 0; j < 1+rng.Intn(3); j++ {
					val := make([]byte, rng.Intn(512))
					// Unique keys: coalescing must not kick in, so every
					// appended LSN is accounted for in a hardened block.
					rec := &wal.Record{Kind: wal.KindCellPut, Page: page.ID(c + 1),
						Key: []byte(fmt.Sprintf("c%d-i%d-j%d", c, i, j)), Value: val, Txn: txn}
					appended.Store(w.Append(rec), struct{}{})
				}
				lsn := w.Append(wal.NewCommit(txn, txn))
				appended.Store(lsn, struct{}{})
				if err := w.WaitHarden(ctx, lsn); err != nil {
					t.Errorf("committer %d: WaitHarden(%d): %v", c, lsn, err)
					return
				}
				acks[c] = append(acks[c], ackSample{
					lsn: lsn, lzHardened: lz.HardenedEnd(), wHardened: w.HardenedEnd()})
				if gap := rng.Intn(200); gap > 0 {
					time.Sleep(time.Duration(gap) * time.Microsecond) // randomized arrival gap drives schedule diversity; assertions are ordering-based
				}
			}
		}()
	}
	wg.Wait()

	// Invariants 1 + 2: monotone acks, never acked before durable.
	for c, samples := range acks {
		var prevLSN, prevHardened page.LSN
		for _, s := range samples {
			if s.lsn.AtMost(prevLSN) {
				t.Fatalf("committer %d: ack LSNs not monotone: %d after %d", c, s.lsn, prevLSN)
			}
			if s.wHardened < prevHardened {
				t.Fatalf("committer %d: hardened watermark regressed %d -> %d",
					c, prevHardened, s.wHardened)
			}
			if s.lzHardened.AtMost(s.lsn) {
				t.Fatalf("committer %d: commit %d acked with LZ durable prefix at %d",
					c, s.lsn, s.lzHardened)
			}
			prevLSN, prevHardened = s.lsn, s.wHardened
		}
	}

	// Invariant 3: walk the hardened chain; blocks contiguous, each ends
	// on a boundary record, every appended record lands exactly once.
	seen := make(map[page.LSN]bool)
	next := page.LSN(1)
	for next < lz.HardenedEnd() {
		b, _, found, err := lz.Read(next)
		if err != nil || !found {
			t.Fatalf("chain broken at %d: found=%v err=%v", next, found, err)
		}
		if b.Start != next {
			t.Fatalf("block start %d, expected %d (chain must be contiguous)", b.Start, next)
		}
		if len(b.Records) == 0 {
			t.Fatalf("empty block at %d", b.Start)
		}
		switch b.Records[len(b.Records)-1].Kind {
		case wal.KindTxnCommit, wal.KindTxnAbort, wal.KindCheckpoint, wal.KindNoop:
		default:
			t.Fatalf("block [%d,%d) ends on %v, not a transaction boundary",
				b.Start, b.End, b.Records[len(b.Records)-1].Kind)
		}
		var prev page.LSN
		for _, r := range b.Records {
			if seen[r.LSN] {
				t.Fatalf("record %d appears in more than one block", r.LSN)
			}
			if r.LSN < b.Start || r.LSN >= b.End {
				t.Fatalf("record %d outside its block [%d,%d)", r.LSN, b.Start, b.End)
			}
			if r.LSN.AtMost(prev) && prev != 0 {
				t.Fatalf("records out of LSN order within block at %d", r.LSN)
			}
			seen[r.LSN] = true
			prev = r.LSN
		}
		next = b.End
	}
	appended.Range(func(k, _ any) bool {
		if !seen[k.(page.LSN)] {
			t.Fatalf("appended record %d never landed in a hardened block", k.(page.LSN))
		}
		return true
	})
	if got := w.Coalesced(); got != 0 {
		t.Fatalf("coalesced %d records despite unique keys", got)
	}

	// Invariant 4: per-request commit.harden attribution sums to the tier
	// sketch total (nothing lost, nothing double-counted).
	var profSum uint64
	for _, p := range profiles {
		for _, st := range p.Breakdown() {
			if st.Class == obs.WaitCommitHarden.String() {
				profSum += st.TotalNS
			}
		}
	}
	var tierSum uint64
	for _, st := range ws.Report().Tiers["compute"] {
		if st.Class == obs.WaitCommitHarden.String() {
			tierSum = st.TotalNS
		}
	}
	if profSum != tierSum {
		t.Fatalf("commit.harden attribution: profiles sum %d ns, tier sketch %d ns",
			profSum, tierSum)
	}
}

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

func TestSoloCommitCutsWithoutTimer(t *testing.T) {
	lz := newLZ(t)
	clk := testutil.NewFakeClock()
	w := NewLogWriter(lz, nil, page.Partitioning{}, 1, WithClock(clk))
	defer w.Close()
	// Idle pipeline: the commit must harden with the clock frozen — the
	// fast path never consults a timer, so single-client latency carries
	// no batching tax (Table 6).
	lsn := w.Append(wal.NewCommit(1, 1))
	if err := w.WaitHarden(context.Background(), lsn); err != nil {
		t.Fatal(err)
	}
	if clk.Pending() != 0 {
		t.Fatalf("%d timers armed for a solo commit on an idle pipeline", clk.Pending())
	}
}

func TestBatchWindowHoldsUntilTimerFires(t *testing.T) {
	lz := newLZ(t)
	clk := newArmClock()
	w := NewLogWriter(lz, nil, page.Partitioning{}, 1, WithClock(clk))
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
	if got := lz.HardenedEnd(); got != 1 {
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
	lz := newLZ(t)
	clk := testutil.NewFakeClock()
	w := NewLogWriter(lz, nil, page.Partitioning{}, 1, WithClock(clk))
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
	lz := newLZ(t)
	clk := testutil.NewFakeClock()
	w := NewLogWriter(lz, nil, page.Partitioning{}, 1, WithClock(clk))
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
		rec(4, 1, wal.KindCellDelete, "k", ""), // delete: never coalesced
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

// End to end: a squashed batch still hardens as one contiguous block whose
// LSN range covers the holes, and redo of the surviving records is what a
// reader observes.
func TestCoalescedBatchHardensWithOriginalRange(t *testing.T) {
	lz := newLZ(t)
	w := NewLogWriter(lz, nil, page.Partitioning{}, 1)
	defer w.Close()

	w.Append(&wal.Record{Kind: wal.KindCellPut, Page: 1, Txn: 1, Key: []byte("k"), Value: []byte("v1")})
	w.Append(&wal.Record{Kind: wal.KindCellPut, Page: 1, Txn: 1, Key: []byte("k"), Value: []byte("v2")})
	w.Append(&wal.Record{Kind: wal.KindCellPut, Page: 1, Txn: 1, Key: []byte("k"), Value: []byte("v3")})
	lsn := w.Append(wal.NewCommit(1, 1))
	if err := w.WaitHarden(context.Background(), lsn); err != nil {
		t.Fatal(err)
	}
	b, _, found, err := lz.Read(1)
	if err != nil || !found {
		t.Fatalf("read: %v %v", found, err)
	}
	if b.Start != 1 || b.End != lsn+1 {
		t.Fatalf("block range [%d,%d), want [1,%d) — holes must not shrink the range",
			b.Start, b.End, lsn+1)
	}
	if len(b.Records) != 2 {
		t.Fatalf("block carries %d records, want 2 (last put + commit)", len(b.Records))
	}
	if string(b.Records[0].Value) != "v3" || b.Records[0].LSN != 3 {
		t.Fatalf("survivor = LSN %d %q, want LSN 3 \"v3\"", b.Records[0].LSN, b.Records[0].Value)
	}
	if got := w.Coalesced(); got != 2 {
		t.Fatalf("Coalesced() = %d, want 2", got)
	}
}
