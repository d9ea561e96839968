package compute

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"socrates/internal/logwriter"
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
//  4. per-request commit.harden attribution (each committer's span) sums
//     to the tier sketch's commit.harden total.
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
	w, _ := newLogWriter(lz, nil, page.Partitioning{}, 1, 0, obs.Plane{Waits: ws})
	defer w.Close()

	const committers = 8
	const commitsPer = 20

	tr := obs.NewTracer()
	spans := make([]*obs.Span, committers)
	acks := make([][]ackSample, committers)
	var appended sync.Map // LSN -> struct{} for every record we appended
	var wg sync.WaitGroup
	for c := 0; c < committers; c++ {
		c := c
		var ctx context.Context
		ctx, spans[c] = tr.StartSpan(context.Background(), obs.TierCompute, "committer")
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer spans[c].End()
			rng := rand.New(rand.NewSource(simdisk.MixSeed(seed, int64(c+1))))
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
		case wal.KindTxnCommit, wal.KindNoop:
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
	var spanSum uint64
	for _, sp := range spans {
		for _, st := range sp.WaitBreakdown() {
			if st.Class == obs.WaitCommitHarden.String() {
				spanSum += st.TotalNS
			}
		}
	}
	var tierSum uint64
	for _, st := range ws.Report().Tiers["compute"] {
		if st.Class == obs.WaitCommitHarden.String() {
			tierSum = st.TotalNS
		}
	}
	if spanSum != tierSum {
		t.Fatalf("commit.harden attribution: spans sum %d ns, tier sketch %d ns",
			spanSum, tierSum)
	}
}

// ---- the batching window on the landing zone ----
//
// The window's policy and its exact steps are the writer's own tests
// (internal/logwriter); this one pins the fast path on the real sink.

func TestSoloCommitCutsWithoutTimer(t *testing.T) {
	lz := newLZ(t)
	clk := testutil.NewFakeClock()
	w := newLZWriter(lz, logwriter.WithClock(clk))
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

// End to end: a squashed batch still hardens as one contiguous block whose
// LSN range covers the holes, and redo of the surviving records is what a
// reader observes.
func TestCoalescedBatchHardensWithOriginalRange(t *testing.T) {
	lz := newLZ(t)
	w := newLZWriter(lz)
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
