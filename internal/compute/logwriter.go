// Package compute implements the Socrates compute tier: the primary node
// (the only log producer, §4.4) and secondary nodes (read-only log
// consumers, §4.5). Both run the shared engine over a sparse RBPEX cache
// whose misses turn into GetPage@LSN calls against the page servers.
package compute

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/rbio"
	"socrates/internal/socerr"
	"socrates/internal/wal"
	"socrates/internal/xlog"
)

// ErrWriterClosed reports appends to a closed log writer. It matches
// socerr.ErrClosed under errors.Is.
var ErrWriterClosed = fmt.Errorf("compute: log writer closed: %w", socerr.ErrClosed)

// Clock abstracts the batcher's two time dependencies — reading the clock
// and arming a one-shot timer — so deterministic tests drive the adaptive
// batching window without wall-clock sleeps (testutil.FakeClock satisfies
// it structurally). AfterFunc returns a stop function in place of a
// *time.Timer so fakes need no timer type of their own.
type Clock interface {
	Now() time.Time
	AfterFunc(d time.Duration, f func()) (stop func() bool)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }
func (realClock) AfterFunc(d time.Duration, f func()) func() bool {
	return time.AfterFunc(d, f).Stop
}

// Adaptive group-commit tuning (§4.3, after BtrLog): a group's leader holds
// a small batch open for a window proportional to the observed landing-zone
// write latency — waiting a quarter of a write adds little to p99 while
// multiplying records per quorum write — and cuts immediately when commits
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
	// maxInflight bounds the landing-zone writes in flight, the group a
	// leader is cutting included.
	maxInflight = 8
)

// LogWriter is the primary's log pipeline (§4.3, upper-left of Figure 3):
// records accumulate in memory; blocks are cut at transaction boundaries
// (so a hardened prefix never splits a transaction), written synchronously
// to the landing zone for durability, sent fire-and-forget to the XLOG
// process for availability, and the hardened watermark is reported so XLOG
// promotes them to consumers.
//
// Group commit is leader-based: the committers write the log themselves
// (WaitHarden), one landing-zone write per group, up to maxInflight groups
// in flight, with no goroutine hand-off between a commit and its write.
type LogWriter struct {
	lz    *xlog.LandingZone
	feed  *rbio.Client // XLOG service: lossy feed + harden reports
	pt    page.Partitioning
	epoch string // producer epoch stamped on feed frames (see WithEpoch)
	clock Clock

	mu       sync.Mutex
	cond     *sync.Cond // followers: hardened, err, closed, a free slot
	hold     *sync.Cond // the leader's batching window: appends, its timer, Close
	pending  []*wal.Record
	boundary int // records [0, boundary) form complete transaction groups
	nextLSN  page.LSN
	hardened page.LSN
	reported page.LSN // highest LSN already harden-reported to XLOG
	err      error
	closed   bool
	// cutting: a leader holds, cuts and Reserves its group — one at a
	// time, so ring space is reserved in LSN order. inflightCnt counts
	// Reserved writes not yet complete; with cutting, ≤ maxInflight.
	cutting     bool
	inflightCnt int
	reporting   bool // reportTrailing is running

	// Adaptive batching state, guarded by mu. gapEWMA smooths the
	// inter-commit arrival gap (fed by Append on boundary records);
	// writeEWMA smooths the landing-zone quorum-write latency (fed by each
	// leader's completion). Both in nanoseconds; 0 = no samples yet.
	gapEWMA    float64
	writeEWMA  float64
	lastCommit time.Time

	ioWG sync.WaitGroup // leaders from claim to landing, trailing reports

	blocksFlushed atomic.Int64
	bytesFlushed  atomic.Int64
	recsCoalesced atomic.Int64

	obs   obs.Plane
	waits *obs.WaitRecorder // obs.Waits.Tier(obs.TierCompute), resolved once
}

// LogWriterOption configures a LogWriter.
type LogWriterOption func(*LogWriter)

// WithObservability wires the writer into the observability plane. Each
// landing-zone block write emits an "lz.write" span attributed to the
// commits it hardens, plus lz.* counters and histograms; every quorum write
// publishes the hardened watermark (lz.hardened_lsn) and drops an "lz.flush"
// flight event, and a failed one an "lz.error" event before the writer
// poisons itself. In the compute wait tier, commit.harden covers the time a
// committer spends in WaitHarden, following or leading, and commit.quorum
// the quorum write itself.
func WithObservability(p obs.Plane) LogWriterOption {
	return func(w *LogWriter) { w.obs = p }
}

// WithEpoch stamps the producer epoch on every fed block, so the XLOG
// service can reject speculative blocks from a superseded primary whose
// LSNs this writer reissues (xlog.Service.BeginEpoch). Epoch 0 is the
// bootstrap producer.
func WithEpoch(epoch uint64) LogWriterOption {
	return func(w *LogWriter) { w.epoch = strconv.FormatUint(epoch, 10) }
}

// WithClock substitutes the batcher's clock — deterministic tests install a
// testutil.FakeClock and drive the adaptive window by hand.
func WithClock(c Clock) LogWriterOption {
	return func(w *LogWriter) { w.clock = c }
}

// NewLogWriter returns a writer whose next record receives startLSN. It
// starts no goroutine: the committers write the log (see WaitHarden).
func NewLogWriter(lz *xlog.LandingZone, feed *rbio.Client, pt page.Partitioning, startLSN page.LSN, opts ...LogWriterOption) *LogWriter {
	w := &LogWriter{
		lz: lz, feed: feed, pt: pt,
		nextLSN: startLSN, hardened: startLSN, reported: startLSN,
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

// Append stages a record, assigning its LSN. Transaction-boundary records
// (commit, abort, checkpoint) make the pending prefix flushable. Append
// writes nothing: a boundary record is written by the first caller that
// waits on it (WaitHarden), or by Close.
//
//socrates:hotpath the commit path stages every record here; budget enforced by TestCommitAppendAllocs
func (w *LogWriter) Append(rec *wal.Record) page.LSN {
	//socrates:wait-ok bookkeeping latch held a few instructions; a convoy here surfaces as the waiters' commit.harden time
	w.mu.Lock()
	rec.LSN = w.nextLSN
	w.nextLSN = w.nextLSN.Next()
	w.pending = append(w.pending, rec)
	switch rec.Kind {
	case wal.KindTxnCommit, wal.KindTxnAbort, wal.KindCheckpoint, wal.KindNoop:
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

// WaitHarden blocks until the record at lsn is durable in the landing zone
// or ctx is done.
//
// The caller writes the log itself: if its record is in the flushable group,
// no other leader is cutting and a pipeline slot is free, it leads — holds
// the group for batchPlan's window, cuts it, Reserves, feeds XLOG, performs
// the quorum write and hardens. Otherwise it follows: waits for the write
// covering its record, or for a slot to lead its group in. ctx is honoured
// while following and before leading; a leader returns only after its own
// device write does, bounded by one LZ write (a lost quorum fails at once).
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
	for w.hardened.AtMost(lsn) && w.err == nil && !w.closed {
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
	if w.err != nil {
		return w.err
	}
	if w.hardened.AtMost(lsn) {
		return ErrWriterClosed
	}
	return nil
}

// HardenedEnd reports the hardened watermark (end LSN).
func (w *LogWriter) HardenedEnd() page.LSN {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.hardened
}

// NextLSN reports the LSN the next appended record will receive.
func (w *LogWriter) NextLSN() page.LSN {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN
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
// The policy adapts on two axes. The wait window tracks the landing-zone
// write latency (a quarter of a write, clamped): while a write is slow,
// holding the next batch open is nearly free because the pipeline is the
// bottleneck anyway. The byte target scales with the same latency: slower
// writes amortize over bigger batches. Two fast paths cut immediately —
// an idle pipeline (a solo commit must not wait behind a timer; Table 6
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
// observe them. Only KindCellPut records coalesce; boundary records, page
// images, and deletes are never touched, so a batch boundary can never
// split or lose a transaction's outcome. Surviving records keep their LSNs:
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

// Stats reports blocks and bytes flushed to the landing zone.
func (w *LogWriter) Stats() (blocks, bytes int64) {
	return w.blocksFlushed.Load(), w.bytesFlushed.Load()
}

// Coalesced reports how many records intra-batch coalescing has squashed.
func (w *LogWriter) Coalesced() int64 { return w.recsCoalesced.Load() }

// Close ends the writer. Callers still following return ErrWriterClosed;
// writes already led land first, then Close leads what is left — complete
// groups nobody waited on — and drains, trailing harden report included.
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

// flush cuts the flushable group and writes it to the landing zone as one
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
	// leave holes inside [Start, End), never shrink it, so the landing
	// zone's contiguity check and the hardened-prefix math see the same
	// stream with or without coalescing.
	start, end := recs[0].LSN, recs[len(recs)-1].LSN.Next()
	recs, squashed := coalesceBatch(recs)
	if squashed > 0 {
		w.recsCoalesced.Add(int64(squashed))
		w.obs.Metrics.Counter("lz.batch.coalesced").Add(uint64(squashed))
	}
	w.obs.Metrics.Counter("lz.batch.flushes").Inc()
	w.obs.Metrics.Counter("lz.batch.records").Add(uint64(len(recs)))
	block := &wal.Block{
		Start:      start,
		End:        end,
		Partitions: wal.ComputePartitions(recs, w.pt),
		Records:    recs,
	}
	// Reserve in LSN order (cutting serializes leaders up to here), then
	// write concurrently with the next leaders: several LZ writes in flight
	// are Socrates' log throughput (Table 5). The hardened watermark is the
	// LZ's durable *prefix*, so no commit is acknowledged over a hole.
	res, err := w.lz.Reserve(block)
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
		w.obs.Flight.Record(obs.TierLZ, "lz.error", uint64(block.Start), 0,
			"reserve failed: "+err.Error())
		return
	}
	// Every traced commit in the block gets its own "lz.write" span; the
	// last one's identity also rides the feed and harden-report frames
	// (their trace headers) into the XLOG tier.
	ioCtx := context.Background()
	var spans []*obs.Span
	var traceID obs.TraceID
	for _, r := range recs {
		if r.Kind == wal.KindTxnCommit && r.TraceID != 0 {
			c, s := w.obs.Tracer.StartRemoteSpan(obs.SpanContext{
				TraceID: obs.TraceID(r.TraceID), SpanID: obs.SpanID(r.SpanID)}, obs.TierLZ, "lz.write")
			s.SetAttr("records", fmt.Sprint(len(recs)))
			spans = append(spans, s)
			ioCtx, traceID = c, obs.TraceID(r.TraceID)
		}
	}
	wstart := time.Now()
	// Availability path (lossy, one-way) first: "The Primary writes log
	// blocks into the LZ and to the XLOG process in parallel."
	if w.feed != nil {
		//socrates:ignore-err the XLOG feed is lossy by design (§4.3); a dropped block is gap-filled from the LZ during promotion
		_ = w.feed.Send(ioCtx, &rbio.Request{Type: rbio.MsgFeedBlock,
			Consumer: w.epoch, Payload: res.Payload()})
	}
	qstart := time.Now()
	if err := w.lz.Complete(res); err != nil {
		w.obs.Flight.Record(obs.TierLZ, "lz.error", uint64(block.Start),
			time.Since(wstart), "quorum write failed: "+err.Error())
		for _, s := range spans {
			s.SetError(err)
			s.End()
		}
		w.mu.Lock()
		w.inflightCnt--
		w.failLocked(err)
		w.mu.Unlock()
		return
	}
	// commit.quorum: the landing-zone quorum write itself, attributed to
	// the lz.write span (ioCtx carries the last one started).
	qlat := time.Since(qstart)
	w.waits.Observe(ioCtx, obs.WaitCommitQuorum, qlat)
	hardened := w.lz.HardenedEnd()
	w.obs.Watermarks.Watermark(obs.WMHardened, "").Publish(uint64(hardened))
	w.mu.Lock()
	w.inflightCnt--
	if w.writeEWMA == 0 {
		w.writeEWMA = float64(qlat)
	} else {
		w.writeEWMA = ewmaAlpha*float64(qlat) + (1-ewmaAlpha)*w.writeEWMA
	}
	if hardened.After(w.hardened) {
		w.hardened = hardened
	}
	w.cond.Broadcast()
	// Coalesce harden reports: the watermark is cumulative, so a completion
	// that did not advance it (out-of-order quorum writes) sends nothing —
	// the report that advanced it covered this block.
	advanced := hardened.After(w.reported)
	if advanced {
		w.reported = hardened
	}
	// The pipeline's last write in flight with nothing flushable queued:
	// if its report drops, no successor supersedes it.
	idle := w.inflightCnt == 0 && !w.cutting && w.boundary == 0
	spawn := idle && w.feed != nil && !w.reporting
	if spawn {
		w.reporting = true
		w.ioWG.Add(1)
	}
	w.mu.Unlock()

	for _, s := range spans {
		s.End()
	}
	w.obs.Metrics.Histogram("lz.write.latency").Observe(time.Since(wstart))
	w.obs.Metrics.Counter("lz.write.blocks").Inc()
	w.obs.Metrics.Counter("lz.write.bytes").Add(uint64(len(res.Payload())))
	w.blocksFlushed.Add(1)
	w.bytesFlushed.Add(int64(len(res.Payload())))
	w.obs.Flight.RecordTrace(obs.TierLZ, "lz.flush", uint64(block.End), traceID, time.Since(wstart),
		fmt.Sprintf("records=%d bytes=%d", len(block.Records), len(res.Payload())))

	// Harden reports are one-way: the watermark is monotone, so a stale
	// report is a no-op at XLOG and a lost one is superseded by the next.
	// The trailing report of a burst round-trips (reportTrailing).
	if spawn {
		go w.reportTrailing(ioCtx)
	} else if advanced && !idle && w.feed != nil {
		//socrates:ignore-err an intermediate report is superseded by the burst's trailing reliable report
		_ = w.feed.Send(ioCtx, &rbio.Request{Type: rbio.MsgHardenReport, LSN: hardened})
	}
}

// reportTrailing sends the trailing harden report of a burst as a round
// trip — dropping it would strand the consumers' watermark until the next
// commit — off every committer's path, and again while the watermark moved
// meanwhile: one round trip in flight however many bursts end. It reports
// even if its own write did not advance the watermark: the burst's
// advancing report may have been a lost one-way frame.
func (w *LogWriter) reportTrailing(ctx context.Context) {
	defer w.ioWG.Done()
	w.mu.Lock()
	defer w.mu.Unlock()
	for sent := page.LSN(0); sent != w.reported; {
		sent = w.reported
		w.mu.Unlock()
		//socrates:ignore-err watermark report; consumers poll state as a further backstop
		_, _ = w.feed.Call(ctx, &rbio.Request{Type: rbio.MsgHardenReport, LSN: sent})
		w.mu.Lock()
	}
	w.reporting = false
}
