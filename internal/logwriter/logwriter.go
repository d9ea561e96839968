// Package logwriter is the group-commit log writer both systems' primaries
// run. As in the paper, only where a hardened block goes differs: that is the
// sink — the landing zone and XLOG (compute, §4.3), or the local log and a
// quorum of replicas (hadr, §2).
package logwriter

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/socerr"
	"socrates/internal/wal"
)

// ErrWriterClosed reports appends to a closed log writer. It matches
// socerr.ErrClosed under errors.Is.
var ErrWriterClosed = fmt.Errorf("logwriter: log writer closed: %w", socerr.ErrClosed)

// ErrGroupLost is the class of a Complete error that loses one group and not
// the log: the group's committers get the error, the writer stays open, and
// the group's LSNs harden with a later group once the sink's durable prefix
// passes them. Any other Complete error poisons the writer.
var ErrGroupLost = errors.New("logwriter: group lost")

// A sink makes cut groups durable, in two steps. The block comes by value,
// so it stays on the leader's stack unless the sink keeps it.
type sink interface {
	// Reserve takes the group a leader has just cut. Leaders call it one at
	// a time, in LSN order, so whatever it orders (ring space, a throttle)
	// stays in LSN order. An error poisons the writer.
	Reserve(b wal.Block) (Reservation, error)
	// Complete makes a reserved group durable, concurrently with the other
	// groups in flight, and returns the sink's durable prefix: every LSN
	// below it is durable, whichever group carried it.
	Complete(b wal.Block, r Reservation) (page.LSN, error)
}

// A Reservation is a group its sink has reserved: the encoded block, and
// whatever else the sink's Complete needs.
type Reservation struct {
	Payload []byte
	Ticket  any
}

// clock abstracts the batcher's two time dependencies — reading the clock
// and arming a one-shot timer — so deterministic tests drive the adaptive
// batching window without wall-clock sleeps (testutil.FakeClock satisfies
// it structurally). AfterFunc returns a stop function in place of a
// *time.Timer so fakes need no timer type of their own.
type clock interface {
	Now() time.Time
	AfterFunc(d time.Duration, f func()) (stop func() bool)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }
func (realClock) AfterFunc(d time.Duration, f func()) func() bool {
	return time.AfterFunc(d, f).Stop
}

// Adaptive group-commit tuning (§4.3, after BtrLog): a group's leader holds
// a small batch open for a window proportional to the observed sink write
// latency — waiting a quarter of a write adds little to p99 while
// multiplying records per durable write — and cuts immediately when commits
// arrive slower than the window (batching would only add latency) or when
// the batch reaches a byte target that itself scales with write latency
// (slower writes amortize over bigger batches).
const (
	minBatchWait         = 50 * time.Microsecond
	maxBatchWait         = 2 * time.Millisecond
	defaultWriteEstimate = 500 * time.Microsecond
	minBatchTarget       = 4 << 10
	maxBatchTarget       = 256 << 10
	// gapClamp bounds the inter-commit gap fed to the EWMA so an idle
	// period does not poison the arrival estimate for minutes afterward.
	gapClamp  = 10 * time.Millisecond
	ewmaAlpha = 0.2
	// maxInflight bounds the groups in flight to the sink, the group a
	// leader is cutting included.
	maxInflight = 8
)

// LogWriter is the primary's log pipeline (§4.3, upper-left of Figure 3):
// records accumulate in memory; blocks are cut at transaction boundaries
// (so a hardened prefix never splits a transaction) and written through the
// sink, and a commit is acknowledged once the sink's durable prefix passes
// it.
//
// Group commit is leader-based: the committers write the log themselves
// (WaitHarden), one sink write per group, up to maxInflight groups in
// flight, with no goroutine hand-off between a commit and its write.
type LogWriter struct {
	sink  sink
	clock clock

	mu       sync.Mutex
	cond     *sync.Cond // followers: hardened, err, closed, a lost group, a free slot
	hold     *sync.Cond // the leader's batching window: appends, its timer, Close
	pending  []*wal.Record
	boundary int // records [0, boundary) form complete transaction groups
	nextLSN  page.LSN
	hardened page.LSN
	err      error
	closed   bool
	// lost are the groups above hardened whose Complete lost them.
	lost []lostGroup
	// cutting: a leader holds, cuts and Reserves its group — one at a
	// time, so the sink reserves in LSN order. inflightCnt counts Reserved
	// groups not yet complete; with cutting, ≤ maxInflight.
	cutting     bool
	inflightCnt int

	// Adaptive batching state, guarded by mu. gapEWMA smooths the
	// inter-commit arrival gap (fed by Append on boundary records);
	// writeEWMA smooths the sink's Complete latency (fed by each leader's
	// completion). Both in nanoseconds; 0 = no samples yet.
	gapEWMA    float64
	writeEWMA  float64
	lastCommit time.Time

	ioWG sync.WaitGroup // leaders from claim to completion

	blocksFlushed atomic.Int64
	bytesFlushed  atomic.Int64
	recsCoalesced atomic.Int64

	obs   obs.Plane
	waits *obs.WaitRecorder // obs.Waits.Tier(obs.TierCompute), resolved once
}

// lostGroup is a group whose Complete failed with an ErrGroupLost error.
type lostGroup struct {
	start, end page.LSN
	err        error
}

// Option configures a LogWriter.
type Option func(*LogWriter)

// WithObservability wires the writer into the observability plane: the
// lz.batch.* counters and the hold-window histogram, and in the compute
// wait tier commit.harden, the time a committer spends in WaitHarden,
// following or leading.
func WithObservability(p obs.Plane) Option {
	return func(w *LogWriter) { w.obs = p }
}

// WithClock substitutes the batcher's clock — deterministic tests install a
// testutil.FakeClock and drive the adaptive window by hand.
func WithClock(c clock) Option {
	return func(w *LogWriter) { w.clock = c }
}

// New returns a writer over sink whose next record receives startLSN. It
// starts no goroutine: the committers write the log (see WaitHarden).
func New(sink sink, startLSN page.LSN, opts ...Option) *LogWriter {
	w := &LogWriter{
		sink:    sink,
		nextLSN: startLSN, hardened: startLSN,
		clock: realClock{},
	}
	for _, o := range opts {
		o(w)
	}
	w.waits = w.obs.Waits.Tier(obs.TierCompute)
	w.cond = sync.NewCond(&w.mu)
	w.hold = sync.NewCond(&w.mu)
	return w
}

// Append stages a record, assigning its LSN. A boundary record (a commit,
// or a noop) makes the pending prefix flushable. Append writes nothing: a
// boundary record is written by the first caller that waits on it
// (WaitHarden), or by Close.
//
//socrates:hotpath the commit path stages every record here; budget enforced by TestCommitAppendAllocs
func (w *LogWriter) Append(rec *wal.Record) page.LSN {
	//socrates:wait-ok bookkeeping latch held a few instructions; a convoy here surfaces as the waiters' commit.harden time
	w.mu.Lock()
	rec.LSN = w.nextLSN
	w.nextLSN = w.nextLSN.Next()
	w.pending = append(w.pending, rec)
	switch rec.Kind {
	case wal.KindTxnCommit, wal.KindNoop:
		w.boundary = len(w.pending)
		// Feed the arrival-gap EWMA the batcher's window policy reads:
		// boundary records are what group commit batches, so their spacing
		// is the arrival process that decides whether waiting pays.
		now := w.clock.Now()
		if !w.lastCommit.IsZero() {
			gap := now.Sub(w.lastCommit)
			if gap > gapClamp {
				gap = gapClamp
			}
			if w.gapEWMA == 0 {
				w.gapEWMA = float64(gap)
			} else {
				w.gapEWMA = ewmaAlpha*float64(gap) + (1-ewmaAlpha)*w.gapEWMA
			}
		}
		w.lastCommit = now
		if w.cutting {
			w.hold.Signal() // a holding leader re-checks its byte target
		}
	}
	lsn := rec.LSN
	w.mu.Unlock()
	return lsn
}

// WaitHarden blocks until the record at lsn is durable in the sink or ctx
// is done.
//
// The caller writes the log itself: if its record is in the flushable group,
// no other leader is cutting and a pipeline slot is free, it leads — holds
// the group for batchPlan's window, cuts it, Reserves and Completes it, and
// hardens. Otherwise it follows: waits for the write covering its record, or
// for a slot to lead its group in. ctx is honoured while following and
// before leading; a leader returns only after its own Complete does. A
// caller whose group was lost gets the sink's error.
func (w *LogWriter) WaitHarden(ctx context.Context, lsn page.LSN) error {
	if ctx == nil {
		ctx = context.Background()
	}
	// A cancelled ctx must break the cond wait: AfterFunc pokes every
	// waiter, under w.mu — without it the broadcast could fall between the
	// ctx.Err() check and cond.Wait() registering, waking nobody.
	stop := context.AfterFunc(ctx, func() {
		w.mu.Lock()
		defer w.mu.Unlock()
		w.cond.Broadcast()
	})
	defer stop()
	// commit.harden: the committer's view of group-commit latency, leading
	// or following. Only recorded when the caller actually waits — an
	// already-hardened LSN must not inflate the wait count.
	region := w.waits.Begin(ctx, obs.WaitCommitHarden)
	waited := false
	defer func() { region.EndIf(waited) }()
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.hardened.AtMost(lsn) && w.err == nil && !w.closed && w.lostLocked(lsn) == nil {
		if err := ctx.Err(); err != nil {
			return socerr.FromContext(err)
		}
		waited = true
		if w.cutting || w.inflightCnt >= maxInflight || w.boundary == 0 || w.pending[0].LSN.After(lsn) {
			w.cond.Wait()
			continue
		}
		w.cutting = true
		w.ioWG.Add(1)
		// Adaptive batching (batchPlan): a solo commit on an idle pipeline
		// cuts at once (Table 6); otherwise the leader holds its group,
		// re-checking the byte target on every append, so a burst cuts as
		// soon as the batch is big enough rather than when the timer fires.
		if wait, target := w.batchPlan(); wait > 0 && w.pendingBoundaryBytes() < target {
			holdStart := w.clock.Now()
			deadline := holdStart.Add(wait)
			for left := wait; left > 0 && !w.closed && w.err == nil &&
				w.pendingBoundaryBytes() < target; left = deadline.Sub(w.clock.Now()) {
				// The waker signals under w.mu: without the lock it could
				// fire between a predicate check and Wait registering.
				disarm := w.clock.AfterFunc(left, func() {
					w.mu.Lock()
					defer w.mu.Unlock()
					w.hold.Signal()
				})
				w.hold.Wait()
				disarm()
			}
			w.obs.Metrics.Histogram("lz.batch.wait").Observe(w.clock.Now().Sub(holdStart))
		}
		w.mu.Unlock()
		w.flush()
		w.mu.Lock()
	}
	switch lost := w.lostLocked(lsn); {
	case w.err != nil:
		return w.err
	case w.hardened.After(lsn):
		return nil
	case lost != nil:
		return lost
	}
	return ErrWriterClosed
}

// lostLocked returns the error that lost the group holding lsn, if one did.
// Caller holds w.mu.
func (w *LogWriter) lostLocked(lsn page.LSN) error {
	for _, g := range w.lost {
		if lsn.AtLeast(g.start) && lsn.Before(g.end) {
			return g.err
		}
	}
	return nil
}

// HardenedEnd reports the hardened watermark (end LSN).
func (w *LogWriter) HardenedEnd() page.LSN {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.hardened
}

// pendingBoundaryBytes estimates the encoded size of the flushable prefix.
// Caller holds w.mu.
func (w *LogWriter) pendingBoundaryBytes() int {
	n := 0
	for _, r := range w.pending[:w.boundary] {
		n += len(r.Key) + len(r.Value) + 30
	}
	return n
}

// batchPlan decides how long a leader may hold a small batch open and the
// byte size at which it cuts regardless. Caller holds w.mu.
//
// The policy adapts on two axes. The wait window tracks the sink's write
// latency (a quarter of a write, clamped): while a write is slow, holding
// the next batch open is nearly free because the pipeline is the bottleneck
// anyway. The byte target scales with the same latency: slower writes
// amortize over bigger batches. Two fast paths cut immediately — an idle
// pipeline (a solo commit must not wait behind a timer; Table 6
// single-client latency) and a sparse arrival process (when commits arrive
// slower than the window, waiting buys no batching, only latency).
func (w *LogWriter) batchPlan() (wait time.Duration, target int) {
	if w.inflightCnt == 0 {
		return 0, 0
	}
	wr := time.Duration(w.writeEWMA)
	if wr <= 0 {
		wr = defaultWriteEstimate
	}
	wait = wr / 4
	if wait < minBatchWait {
		wait = minBatchWait
	}
	if wait > maxBatchWait {
		wait = maxBatchWait
	}
	target = int(int64(minBatchTarget) * int64(wr) / int64(defaultWriteEstimate))
	if target < minBatchTarget {
		target = minBatchTarget
	}
	if target > maxBatchTarget {
		target = maxBatchTarget
	}
	if gap := time.Duration(w.gapEWMA); gap > 0 && gap > wait {
		return 0, target
	}
	return wait, target
}

// coalesceBatch squashes intra-batch same-transaction cell overwrites: when
// one transaction puts the same (page, key) cell several times within a
// single batch, only the last image is ever readable — the intermediate
// versions would share the final one's commit timestamp, so no snapshot can
// observe them. Only KindCellPut records coalesce; boundary records and page
// images are never touched, so a batch boundary can never split or lose a
// transaction's outcome. Surviving records keep their LSNs:
// the block still covers the same [Start, End) range with holes, which the
// explicitly-counted encoding represents exactly and LSN-idempotent redo
// replays obliviously. Reports how many records were squashed.
func coalesceBatch(recs []*wal.Record) ([]*wal.Record, int) {
	type cell struct {
		txn uint64
		pg  page.ID
		key string
	}
	var last map[cell]int
	dropped := 0
	for i, r := range recs {
		if r.Kind != wal.KindCellPut {
			continue
		}
		if last == nil {
			last = make(map[cell]int, len(recs))
		}
		c := cell{r.Txn, r.Page, string(r.Key)}
		if j, ok := last[c]; ok {
			recs[j] = nil
			dropped++
		}
		last[c] = i
	}
	if dropped == 0 {
		return recs, 0
	}
	out := recs[:0]
	for _, r := range recs {
		if r != nil {
			out = append(out, r)
		}
	}
	return out, dropped
}

// Stats reports blocks and bytes the sink made durable.
func (w *LogWriter) Stats() (blocks, bytes int64) {
	return w.blocksFlushed.Load(), w.bytesFlushed.Load()
}

// Coalesced reports how many records intra-batch coalescing has squashed.
func (w *LogWriter) Coalesced() int64 { return w.recsCoalesced.Load() }

// Close ends the writer. Callers still following return ErrWriterClosed;
// writes already led land first, then Close leads what is left — complete
// groups nobody waited on — and drains.
func (w *LogWriter) Close() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.cond.Broadcast()
	w.hold.Signal() // a holding leader cuts now
	w.mu.Unlock()
	w.ioWG.Wait()

	w.mu.Lock()
	lead := w.boundary > 0 && w.err == nil
	if lead {
		w.cutting = true
		w.ioWG.Add(1)
	}
	w.mu.Unlock()
	if lead {
		w.flush()
	}
	w.ioWG.Wait()
}

// failLocked poisons the writer: every waiter returns err. Caller holds w.mu.
func (w *LogWriter) failLocked(err error) {
	if w.err == nil {
		w.err = err
	}
	w.cond.Broadcast()
	w.hold.Signal()
}

// flush cuts the flushable group and writes it through the sink as one
// block, then hardens it, on the leader's goroutine, which has claimed the
// slot (cutting, ioWG) and does not hold w.mu. The next leader may cut once
// the block is Reserved.
func (w *LogWriter) flush() {
	defer w.ioWG.Done()
	w.mu.Lock()
	recs := append([]*wal.Record(nil), w.pending[:w.boundary]...)
	w.pending = w.pending[w.boundary:]
	w.boundary = 0
	w.mu.Unlock()
	// The block's LSN range is fixed before coalescing: squashed records
	// leave holes inside [Start, End), never shrink it, so the sink's
	// contiguity check and the hardened-prefix math see the same stream
	// with or without coalescing.
	start, end := recs[0].LSN, recs[len(recs)-1].LSN.Next()
	recs, squashed := coalesceBatch(recs)
	if squashed > 0 {
		w.recsCoalesced.Add(int64(squashed))
		w.obs.Metrics.Counter("lz.batch.coalesced").Add(uint64(squashed))
	}
	w.obs.Metrics.Counter("lz.batch.flushes").Inc()
	w.obs.Metrics.Counter("lz.batch.records").Add(uint64(len(recs)))
	block := wal.Block{Start: start, End: end, Records: recs}
	// Reserve in LSN order (cutting serializes leaders up to here), then
	// complete concurrently with the next leaders: several writes in flight
	// are the log's throughput (Table 5). The hardened watermark is the
	// sink's durable *prefix*, so no commit is acknowledged over a hole.
	res, err := w.sink.Reserve(block)
	w.mu.Lock()
	w.cutting = false
	if err != nil {
		w.failLocked(err)
	} else {
		w.inflightCnt++
		if w.boundary > 0 {
			w.cond.Broadcast() // a follower may lead the next group
		}
	}
	w.mu.Unlock()
	if err != nil {
		return
	}
	wstart := time.Now()
	durable, err := w.sink.Complete(block, res)
	lat := time.Since(wstart)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.inflightCnt--
	if err != nil {
		if errors.Is(err, ErrGroupLost) {
			w.lost = append(w.lost, lostGroup{start: block.Start, end: block.End, err: err})
			w.cond.Broadcast()
		} else {
			w.failLocked(err)
		}
		return
	}
	if w.writeEWMA == 0 {
		w.writeEWMA = float64(lat)
	} else {
		w.writeEWMA = ewmaAlpha*float64(lat) + (1-ewmaAlpha)*w.writeEWMA
	}
	if durable.After(w.hardened) {
		w.hardened = durable
		// A lost group the prefix has passed hardened after all.
		w.lost = slices.DeleteFunc(w.lost, func(g lostGroup) bool { return g.end.AtMost(durable) })
	}
	w.cond.Broadcast()
	w.blocksFlushed.Add(1)
	w.bytesFlushed.Add(int64(len(res.Payload)))
}
