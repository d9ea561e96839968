package obs

// Wait-event accounting: every blocked microsecond in the deployment is
// attributed to a named wait class, SQL Server wait-stats style. Socrates
// inherits that operational DNA (§7's evaluation is a sequence of "where
// does commit time go" questions), and the taxonomy below spans all four
// tiers plus the netmux fabric between them.
//
// Two levels of aggregation, both fed by the same record call:
//
//   - global and per-tier sketches (count / total-ns / exact max-ns per
//     class, lock-free atomics — WaitSet);
//   - per-request attribution: each wait attaches to the innermost live
//     span in the context and to its in-process ancestors, so span trees
//     render "commit.harden 612µs" on the exact span that blocked, and a
//     traced DB.ExecContext statement's own span carries its breakdown
//     (an EXPLAIN-ANALYZE of waits). A wire hop replaces the span with
//     the frame's identity, so a remote tier's waits stay on its side.
//
// The API is a WaitPoint in two shapes: Begin/End brackets a blocking
// region; Observe records a pre-measured duration (simulated device
// latency, queue-wait timestamps). CondWait is the bounded condition wait
// that records its own blocked time, AwaitLSN the same wait on a rung of
// the LSN ladder. WaitRegion
// is a value type and Begin/End do not allocate, so declared hot paths
// (netmux Call, GetPage@LSN) can afford instrumentation inside their
// existing allocation budgets.
//
// All types are nil-safe like the rest of the package: a nil
// *WaitRecorder still attributes to the context's span, so request-scoped
// breakdowns work even where no sketch is wired.

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"socrates/internal/socerr"
)

// waitClass names one cause of blocking. The taxonomy is fixed — a small
// closed set keeps the sketches allocation-free arrays and forces every
// new blocking site to say which existing operational question it
// belongs to.
type waitClass uint8

// The wait-class taxonomy, spanning all four tiers.
const (
	// WaitLockRow: row-visibility waits — a reader blocked until its
	// snapshot becomes visible (secondary apply catch-up, read retry).
	// The lock table itself is NO-WAIT first-writer-wins, so classic
	// blocked-on-row-lock time also lands here on the retry path.
	WaitLockRow waitClass = iota
	// WaitLockLatch: short-term structure latches — the engine's
	// single-writer commit latch, cache shard latches.
	WaitLockLatch
	// WaitCommitHarden: a committing transaction blocked in WaitHarden
	// until the landing-zone quorum covers its commit LSN.
	WaitCommitHarden
	// WaitCommitQuorum: the log writer blocked in the landing-zone
	// quorum write itself (the LZ Complete call).
	WaitCommitQuorum
	// WaitXLOGFeed: blocked on log dissemination — GetPage@LSN stalled
	// behind page-server apply, a secondary waiting for apply progress,
	// HADR ship/apply waits.
	WaitXLOGFeed
	// WaitPageMiss: a compute-local RBPEX miss served from the node's
	// SSD tier (the local-cache-miss read).
	WaitPageMiss
	// WaitPageRemote: a GetPage@LSN round trip to a page server.
	WaitPageRemote
	// WaitMuxQueue: RPC admission — queued behind an rbio.Client's
	// per-destination in-flight cap.
	WaitMuxQueue
	// WaitMuxRTT: netmux in-flight — a request written to the wire,
	// waiting for its response frame.
	WaitMuxRTT
	// WaitBackpressure: producer-side throttling — the landing-zone ring
	// full, destaging behind.
	WaitBackpressure
	// WaitDiskRead / WaitDiskWrite: simulated device I/O lanes.
	WaitDiskRead
	WaitDiskWrite
	// WaitCkptDrain: blocked draining a page-server checkpoint (backup
	// flush, shutdown sweep).
	WaitCkptDrain

	numWaitClasses = int(WaitCkptDrain) + 1
)

// waitClassNames maps waitClass to its canonical dotted name.
var waitClassNames = [numWaitClasses]string{
	WaitLockRow:      "lock.row",
	WaitLockLatch:    "lock.latch",
	WaitCommitHarden: "commit.harden",
	WaitCommitQuorum: "commit.quorum",
	WaitXLOGFeed:     "xlog.feed",
	WaitPageMiss:     "page.miss",
	WaitPageRemote:   "page.remote",
	WaitMuxQueue:     "netmux.queue",
	WaitMuxRTT:       "netmux.rtt",
	WaitBackpressure: "backpressure",
	WaitDiskRead:     "disk.read",
	WaitDiskWrite:    "disk.write",
	WaitCkptDrain:    "ckpt.drain",
}

// String returns the canonical class name ("commit.harden").
func (c waitClass) String() string {
	if int(c) < numWaitClasses {
		return waitClassNames[c]
	}
	return "unknown"
}

// WaitClasses lists every class in taxonomy order.
func WaitClasses() []waitClass {
	out := make([]waitClass, numWaitClasses)
	for i := range out {
		out[i] = waitClass(i)
	}
	return out
}

// waitSlot is one class's lock-free sketch: count, total nanoseconds,
// and exact maximum nanoseconds (CAS max — never a reservoir quantile).
type waitSlot struct {
	count atomic.Uint64
	total atomic.Uint64
	max   atomic.Uint64
}

func (s *waitSlot) record(ns uint64) {
	s.count.Add(1)
	s.total.Add(ns)
	for {
		cur := s.max.Load()
		if ns <= cur || s.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// waitStats is one sketch: a fixed array of per-class slots. The zero
// value is ready to use; recording is lock-free and snapshot-safe.
type waitStats struct {
	slots [numWaitClasses]waitSlot
}

// record adds one wait of duration d to the class sketch.
func (w *waitStats) record(class waitClass, d time.Duration) {
	if w == nil || int(class) >= numWaitClasses {
		return
	}
	if d < 0 {
		d = 0
	}
	w.slots[class].record(uint64(d))
}

// WaitClassStat is the exported view of one class's sketch.
type WaitClassStat struct {
	Class   string `json:"class"`
	Count   uint64 `json:"count"`
	TotalNS uint64 `json:"total_ns"`
	MaxNS   uint64 `json:"max_ns"`
}

// snapshot exports the nonzero classes of the sketch in taxonomy order.
func (w *waitStats) snapshot() []WaitClassStat {
	if w == nil {
		return nil
	}
	out := make([]WaitClassStat, 0, numWaitClasses)
	for i := range w.slots {
		s := &w.slots[i]
		n := s.count.Load()
		if n == 0 {
			continue
		}
		out = append(out, WaitClassStat{
			Class:   waitClass(i).String(),
			Count:   n,
			TotalNS: s.total.Load(),
			MaxNS:   s.max.Load(),
		})
	}
	return out
}

// WaitSet is the deployment-wide wait-accounting table: one global
// sketch plus one per tier, shared by every node the way the Registry
// and WatermarkSet are. All methods are nil-safe.
type WaitSet struct {
	global waitStats

	mu    sync.RWMutex
	tiers map[string]*waitStats
	recs  map[string]*WaitRecorder
}

// NewWaitSet builds an empty wait-accounting table.
func NewWaitSet() *WaitSet {
	return &WaitSet{
		tiers: make(map[string]*waitStats),
		recs:  make(map[string]*WaitRecorder),
	}
}

// globalStats exposes the deployment-wide sketch.
func (s *WaitSet) globalStats() *waitStats {
	if s == nil {
		return nil
	}
	return &s.global
}

// Tier returns (creating if needed) the recorder for one tier. Hot paths
// resolve their recorder once at wiring time; recording through it is
// lock-free.
func (s *WaitSet) Tier(tier string) *WaitRecorder {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	r, ok := s.recs[tier]
	s.mu.RUnlock()
	if ok {
		return r
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok = s.recs[tier]; ok {
		return r
	}
	st := &waitStats{}
	s.tiers[tier] = st
	r = &WaitRecorder{set: s, tier: st}
	s.recs[tier] = r
	return r
}

// WaitReport is the /waits JSON document.
type WaitReport struct {
	Taken  time.Time                  `json:"taken"`
	Global []WaitClassStat            `json:"global"`
	Tiers  map[string][]WaitClassStat `json:"tiers,omitempty"`
}

// Report exports the global and per-tier sketches, each sorted by
// descending total (the socrates-top ordering).
func (s *WaitSet) Report() WaitReport {
	rep := WaitReport{Taken: time.Now()}
	if s == nil {
		return rep
	}
	rep.Global = sortByTotal(s.global.snapshot())
	s.mu.RLock()
	tiers := make(map[string]*waitStats, len(s.tiers))
	for name, st := range s.tiers {
		tiers[name] = st
	}
	s.mu.RUnlock()
	if len(tiers) > 0 {
		rep.Tiers = make(map[string][]WaitClassStat, len(tiers))
		for name, st := range tiers {
			if snap := sortByTotal(st.snapshot()); len(snap) > 0 {
				rep.Tiers[name] = snap
			}
		}
	}
	return rep
}

func sortByTotal(stats []WaitClassStat) []WaitClassStat {
	sort.Slice(stats, func(i, j int) bool {
		if stats[i].TotalNS != stats[j].TotalNS {
			return stats[i].TotalNS > stats[j].TotalNS
		}
		return stats[i].Class < stats[j].Class
	})
	return stats
}

// WaitRecorder records waits for one tier into its tier sketch, the
// global sketch, and whatever live span the context carries. A nil
// recorder still performs the context attribution, so unwired paths keep
// request-scoped breakdowns.
type WaitRecorder struct {
	set  *WaitSet
	tier *waitStats
}

// Observe records one pre-measured wait. ctx may be nil (background
// loops, device lanes without request context).
//
//socrates:hotpath the universal record path under every WaitPoint; TestMuxCallAllocs
func (r *WaitRecorder) Observe(ctx context.Context, class waitClass, d time.Duration) {
	if d < 0 {
		d = 0
	}
	if r != nil {
		r.tier.record(class, d)
		r.set.global.record(class, d)
	}
	if ctx == nil {
		return
	}
	if sp, ok := ctx.Value(spanKey{}).(*Span); ok {
		sp.recordWait(class, d)
	}
}

// Begin opens a wait region; End records it. WaitRegion is a value —
// Begin/End on a hot path allocates nothing.
//
//socrates:hotpath region entry on every netmux call and GetPage; TestMuxCallAllocs, TestGetPageAllocs
func (r *WaitRecorder) Begin(ctx context.Context, class waitClass) WaitRegion {
	return WaitRegion{rec: r, ctx: ctx, class: class, start: time.Now()}
}

// WaitNone is the class of a CondWait charged to no class: a region the
// caller has open records the blocked time (an engine read's retry on its
// apply rung, as lock.row), or it is idle time nobody should (a long poll).
// waitlint treats a CondWait or an AwaitLSN passing it as an unrecorded
// blocking site, which needs an open region or a //socrates:wait-ok.
const WaitNone waitClass = 255

// ErrDeadline is what CondWait returns when its deadline passes first. It
// is ErrTimeout-classified; callers that want their state in the message
// test for it and say more.
var ErrDeadline = socerr.Timeoutf("wait deadline passed")

// CondWait is the one bounded condition wait of the log path. The caller
// holds c.L; CondWait returns, still holding it, once ready() holds (nil),
// ctx ends (socerr.FromContext of its error) or deadline passes
// (ErrDeadline). A zero deadline never passes; ctx may be nil.
//
// Whatever makes ready true must Broadcast c under c.L. The deadline timer
// and the end of ctx broadcast under c.L too: unlocked, a broadcast could
// fall between a check of ready and Wait registering, and wake nobody.
//
// The wait is recorded as one wait of class — only if it blocked; WaitNone
// records nothing. Already ready, CondWait allocates nothing.
func (r *WaitRecorder) CondWait(ctx context.Context, class waitClass, c *sync.Cond, deadline time.Time, ready func() bool) error {
	if ready() {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return socerr.FromContext(err)
	}
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		return ErrDeadline
	}
	if class != WaitNone {
		defer r.Begin(ctx, class).End()
	}
	expired := false
	if !deadline.IsZero() {
		timer := time.AfterFunc(time.Until(deadline), func() {
			c.L.Lock()
			defer c.L.Unlock()
			expired = true
			c.Broadcast()
		})
		defer timer.Stop()
	}
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() {
			c.L.Lock()
			defer c.L.Unlock()
			c.Broadcast()
		})
		defer stop()
	}
	for !ready() {
		if err := ctx.Err(); err != nil {
			return socerr.FromContext(err)
		}
		if expired {
			return ErrDeadline
		}
		c.Wait()
	}
	return nil
}

// AwaitLSN is the one wait on a rung of the LSN ladder. lsn is an end LSN:
// AwaitLSN returns nil once w ≥ lsn, ctx's error once ctx ends, ErrDeadline
// once deadline passes, and an error wrapping socerr.ErrClosed once w's
// owner drops it short of lsn. It is CondWait on the rung's own cond, so
// the blocked time lands in class, and WaitNone records nothing. Already
// there, it is one atomic load.
//
//socrates:hotpath every GetPage@LSN waits on its server's applied rung; TestAwaitLSNAllocs, TestGetPageAllocs
func (r *WaitRecorder) AwaitLSN(ctx context.Context, class waitClass, w *Watermark, lsn uint64, deadline time.Time) error {
	if w.Value() >= lsn {
		return nil
	}
	return r.awaitRung(ctx, class, w, lsn, deadline)
}

func (r *WaitRecorder) awaitRung(ctx context.Context, class waitClass, w *Watermark, lsn uint64, deadline time.Time) error {
	w.waiters.Add(1) // before the first read of the rung: see Publish
	defer w.waiters.Add(-1)
	w.mu.Lock()
	defer w.mu.Unlock()
	err := r.CondWait(ctx, class, &w.cond, deadline, func() bool { return w.lsn.Load() >= lsn || w.dropped.Load() })
	if at := w.lsn.Load(); err == nil && at < lsn {
		return fmt.Errorf("obs: %s dropped at %d, short of %d: %w", key(w.name, w.replica), at, lsn, socerr.ErrClosed)
	}
	return err
}

// WaitRegion is one open Begin/End bracket.
type WaitRegion struct {
	rec   *WaitRecorder
	ctx   context.Context
	class waitClass
	start time.Time
}

// End closes the region and records the wait. End on a zero WaitRegion
// is a no-op.
//
//socrates:hotpath region exit on every netmux call; TestMuxCallAllocs
func (w WaitRegion) End() {
	if w.start.IsZero() {
		return
	}
	w.rec.Observe(w.ctx, w.class, time.Since(w.start))
}

// EndIf closes the region only when waited is true — for sites that
// check a condition first and only sometimes block (cond-wait loops
// whose first test passes).
func (w WaitRegion) EndIf(waited bool) {
	if waited {
		w.End()
	}
}

// --- Prometheus exposition ---

// writePrometheusWaits renders the wait sketches as three families
// labeled by tier ("" = global) and class:
//
//	socrates_wait_seconds_total{tier="compute",class="commit.harden"} 0.61
//	socrates_wait_count_total{...}  socrates_wait_max_seconds{...}
func writePrometheusWaits(w io.Writer, s *WaitSet) error {
	bw := bufio.NewWriter(w)
	if s != nil {
		rep := s.Report()
		type tierStats struct {
			tier  string
			stats []WaitClassStat
		}
		all := []tierStats{{tier: "", stats: rep.Global}}
		for _, tier := range sortedKeys(rep.Tiers) {
			all = append(all, tierStats{tier: tier, stats: rep.Tiers[tier]})
		}
		if len(rep.Global) > 0 || len(rep.Tiers) > 0 {
			write := func(family, typ string, value func(WaitClassStat) string) {
				fmt.Fprintf(bw, "# TYPE %s %s\n", family, typ)
				for _, ts := range all {
					for _, st := range ts.stats {
						fmt.Fprintf(bw, "%s{tier=%q,class=%q} %s\n", family, ts.tier, st.Class, value(st))
					}
				}
			}
			write("socrates_wait_seconds_total", "counter", func(st WaitClassStat) string {
				return promFloat(time.Duration(st.TotalNS).Seconds())
			})
			write("socrates_wait_count_total", "counter", func(st WaitClassStat) string {
				return strconv.FormatUint(st.Count, 10)
			})
			write("socrates_wait_max_seconds", "gauge", func(st WaitClassStat) string {
				return promFloat(time.Duration(st.MaxNS).Seconds())
			})
		}
	}
	return bw.Flush()
}
