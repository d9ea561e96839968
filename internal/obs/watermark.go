package obs

import (
	"bytes"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Socrates' health is legible as a ladder of LSN watermarks (§2, §4.3):
// the primary's commit frontier, the landing zone's hardened prefix, the
// XLOG service's promotion and destaging frontiers, each page server's
// applied LSN, and the XStore archive end. Every invariant the paper
// states about durability-before-availability is a relation between two
// rungs of this ladder, so the observability plane tracks all of them in
// one lock-cheap structure and derives lag gauges + stall detection on
// top.
//
// Canonical watermark names (the "five LSN watermarks" of the ladder,
// plus per-replica apply/checkpoint progress):
const (
	// WMCommit is the primary's commit frontier: the LSN of the last
	// appended commit record (durability not yet implied).
	WMCommit = "compute.commit_lsn"
	// WMHardened is the landing zone's durable prefix end (LZ quorum).
	WMHardened = "lz.hardened_lsn"
	// WMPromoted is the XLOG dissemination frontier: blocks below it are
	// visible to consumers.
	WMPromoted = "xlog.promoted_lsn"
	// WMDestaged is the XLOG destaging frontier: blocks below it are in
	// the SSD block cache and the long-term archive.
	WMDestaged = "xlog.destaged_lsn"
	// WMArchived is the XStore long-term archive end (equals the
	// destaging frontier after a successful LT append).
	WMArchived = "xstore.archived_lsn"
	// WMTruncated is the landing-zone truncation point: ring space below
	// it has been released.
	WMTruncated = "lz.truncated_lsn"
	// WMApplied is a page server's apply watermark (per replica).
	WMApplied = "pageserver.applied_lsn"
	// WMCheckpoint is a page server's persisted checkpoint resume LSN
	// (per replica).
	WMCheckpoint = "pageserver.ckpt_lsn"
	// WMSecondary is a secondary compute node's apply watermark (per
	// replica).
	WMSecondary = "compute.applied_lsn"
)

// Watermark is one rung of the ladder: a monotone LSN gauge plus the
// wall-clock instant of its last advance; a tier keeps no other copy, and
// AwaitLSN waits on it. Publication is a pair of atomic stores, plus a
// broadcast only while someone waits — safe from any tier's hot path. All
// methods are nil-safe.
type Watermark struct {
	name    string
	replica string
	lsn     atomic.Uint64
	atNanos atomic.Int64

	set     *WatermarkSet // the ladder it is on; nil for a standalone rung
	waiters atomic.Int32  // callers inside AwaitLSN's slow path
	dropped atomic.Bool
	mu      sync.Mutex
	cond    sync.Cond     // on mu: broadcast by Publish while waiters > 0, and by Drop
	watch   followerState // the watchdog's memory of this rung, under the watchdog's mu
}

// Publish advances the watermark to lsn (monotone max) and stamps the
// advance time. Stale publishes are no-ops, so out-of-order reporters
// (concurrent harden reports, racing apply batches) need no coordination.
func (w *Watermark) Publish(lsn uint64) {
	if w == nil {
		return
	}
	for {
		cur := w.lsn.Load()
		if lsn <= cur {
			return
		}
		if w.lsn.CompareAndSwap(cur, lsn) {
			w.atNanos.Store(time.Now().UnixNano())
			// A waiter counts itself before it reads the rung, so either it
			// sees this LSN or this load sees it.
			if w.waiters.Load() > 0 {
				w.wake()
			}
			return
		}
	}
}

func (w *Watermark) wake() {
	w.mu.Lock()
	w.cond.Broadcast()
	w.mu.Unlock()
}

// Drop, the owner's on stop, takes the rung (and the watchdog's memory of
// it) off its ladder unless a later incarnation replaced it, and wakes its
// waiters: those short of their LSN get an error wrapping socerr.ErrClosed.
func (w *Watermark) Drop() {
	if w == nil {
		return
	}
	w.dropped.Store(true)
	if s := w.set; s != nil {
		k := key(w.name, w.replica)
		s.mu.Lock()
		if s.wms[k] == w {
			delete(s.wms, k)
		}
		s.mu.Unlock()
	}
	w.wake()
}

// Value reads the watermark LSN.
func (w *Watermark) Value() uint64 {
	if w == nil {
		return 0
	}
	return w.lsn.Load()
}

// updatedAt reports when the watermark last advanced (zero time if never).
func (w *Watermark) updatedAt() time.Time {
	if w == nil {
		return time.Time{}
	}
	ns := w.atNanos.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// commitStampRing maps recent commit LSNs to the wall-clock instant they
// were appended, so follower lag can be expressed in milliseconds: "the
// oldest commit this replica has not applied was cut N ms ago". Fixed
// size, mutex-guarded (one short critical section per commit — noise next
// to the quorum write the commit is about to pay for).
const commitStampSlots = 1024

type commitStamp struct {
	lsn uint64
	at  int64 // unix nanos
}

// WatermarkSet is the per-deployment table of watermarks. Lookup is a
// read-locked map access; hot paths resolve their *Watermark once and
// publish through the atomic. The set owns the rungs that outlive their
// publishers (commit, hardened, archived, truncated); a tier owns its own
// (Own). All methods are nil-safe.
type WatermarkSet struct {
	mu  sync.RWMutex
	wms map[string]*Watermark

	stampMu    sync.Mutex
	stamps     [commitStampSlots]commitStamp
	stampCount uint64
}

// NewWatermarkSet builds a set holding the shared rungs.
func NewWatermarkSet() *WatermarkSet {
	s := &WatermarkSet{wms: make(map[string]*Watermark)}
	for _, name := range []string{WMCommit, WMHardened, WMArchived, WMTruncated} {
		s.Own(name, "")
	}
	return s
}

func key(name, replica string) string {
	if replica == "" {
		return name
	}
	return name + "/" + replica
}

// Own hands a tier a fresh rung for (name, replica), replacing whatever a
// previous incarnation left under that key: a replica re-added under a
// reused name never inherits its predecessor's LSN. The owner drops it
// (Drop) on stop. A nil set hands out a standalone rung, which nobody
// reads as part of a ladder but which AwaitLSN waits on all the same.
func (s *WatermarkSet) Own(name, replica string) *Watermark {
	w := &Watermark{set: s, name: name, replica: replica}
	w.cond.L = &w.mu
	if s != nil {
		s.mu.Lock()
		s.wms[key(name, replica)] = w
		s.mu.Unlock()
	}
	return w
}

// Watermark returns the rung on the ladder under (name, replica), nil if
// there is none. Reading the ladder never creates a rung.
func (s *WatermarkSet) Watermark(name, replica string) *Watermark {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.wms[key(name, replica)]
}

// PublishCommit advances the commit watermark and records an LSN →
// wall-clock stamp so downstream lag can be reported in time domain.
func (s *WatermarkSet) PublishCommit(lsn uint64) {
	if s == nil {
		return
	}
	s.Watermark(WMCommit, "").Publish(lsn)
	now := time.Now().UnixNano()
	s.stampMu.Lock()
	s.stamps[s.stampCount%commitStampSlots] = commitStamp{lsn: lsn, at: now}
	s.stampCount++
	s.stampMu.Unlock()
}

// timeLag reports how long ago the oldest commit above appliedLSN was
// stamped — the time-domain replication lag of a follower whose watermark
// sits at appliedLSN. Zero when the follower has applied every stamped
// commit (or no commits are stamped yet).
func (s *WatermarkSet) timeLag(appliedLSN uint64, now time.Time) time.Duration {
	if s == nil {
		return 0
	}
	s.stampMu.Lock()
	defer s.stampMu.Unlock()
	n := s.stampCount
	if n > commitStampSlots {
		n = commitStampSlots
	}
	oldest := int64(0)
	for i := uint64(0); i < n; i++ {
		st := s.stamps[i]
		if st.lsn > appliedLSN && (oldest == 0 || st.at < oldest) {
			oldest = st.at
		}
	}
	if oldest == 0 {
		return 0
	}
	lag := now.UnixNano() - oldest
	if lag < 0 {
		return 0
	}
	return time.Duration(lag)
}

// WatermarkState is an exported view of one watermark.
type WatermarkState struct {
	Name      string    `json:"name"`
	Replica   string    `json:"replica,omitempty"`
	LSN       uint64    `json:"lsn"`
	UpdatedAt time.Time `json:"updated_at"`
}

// Snapshot exports every watermark published so far, sorted by name then
// replica.
func (s *WatermarkSet) Snapshot() []WatermarkState {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	out := make([]WatermarkState, 0, len(s.wms))
	for _, w := range s.wms {
		if w.atNanos.Load() == 0 {
			continue // a rung nobody has published yet
		}
		out = append(out, WatermarkState{
			Name: w.name, Replica: w.replica,
			LSN: w.Value(), UpdatedAt: w.updatedAt(),
		})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Replica < out[j].Replica
	})
	return out
}

// Replicas lists the replica labels on the ladder under a per-replica
// watermark name, sorted.
func (s *WatermarkSet) Replicas(name string) []string {
	var out []string
	for _, w := range s.rungs(name) {
		out = append(out, w.replica)
	}
	return out
}

// rungs lists the rungs on the ladder under name — a singleton's one, or
// none — sorted by replica.
func (s *WatermarkSet) rungs(name string) []*Watermark {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	var out []*Watermark
	for _, w := range s.wms {
		if w.name == name {
			out = append(out, w)
		}
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].replica < out[j].replica })
	return out
}

// --- watchdog ---

// tripKind classifies a watchdog firing.
type tripKind string

// Trip kinds: a follower too far behind its leader, or a follower that
// stopped advancing entirely while the leader kept moving.
const (
	TripLag   tripKind = "lag"
	TripStall tripKind = "stall"
)

// Trip is one watchdog firing.
type Trip struct {
	At       time.Time     `json:"at"`
	Kind     tripKind      `json:"kind"`
	Follower string        `json:"follower"` // name[/replica]
	Leader   string        `json:"leader"`
	LagLSN   uint64        `json:"lag_lsn"`
	LagTime  time.Duration `json:"lag_ns"`
	Detail   string        `json:"detail,omitempty"`
	// TopWaits freezes the top-3 wait classes by total time accumulated
	// over the trip window (the last StallTicks watchdog ticks), turning
	// "replica lag tripped" into "replica lag tripped, 92% of the window
	// waiting on page.remote". Count and TotalNS are window deltas; MaxNS
	// is the class's cumulative maximum. Empty when no WaitSet is wired.
	TopWaits []WaitClassStat `json:"top_waits,omitempty"`
}

// WatchdogConfig tunes the lag watchdog.
type WatchdogConfig struct {
	// Interval is the tick cadence (default 25ms).
	Interval time.Duration
	// MaxLagLSN trips when a follower is more than this many LSNs behind
	// its leader (default 50000; 0 keeps the default, -1 disables).
	MaxLagLSN int64
	// StallTicks trips when a follower is behind its leader and has not
	// advanced for this many consecutive ticks (default 8).
	StallTicks int
}

func (c *WatchdogConfig) defaults() {
	if c.Interval <= 0 {
		c.Interval = 25 * time.Millisecond
	}
	if c.MaxLagLSN == 0 {
		c.MaxLagLSN = 50000
	}
	if c.StallTicks <= 0 {
		c.StallTicks = 8
	}
}

// ladderEdge is one leader→follower relation the watchdog monitors. The
// Socrates ladder is fixed by the architecture; the followers under a name
// (one per page server or secondary) are the rungs on the ladder each tick.
type ladderEdge struct {
	leader   string
	follower string
}

var ladder = []ladderEdge{
	{leader: WMCommit, follower: WMHardened},
	{leader: WMHardened, follower: WMPromoted},
	{leader: WMPromoted, follower: WMDestaged},
	{leader: WMPromoted, follower: WMApplied},
	{leader: WMPromoted, follower: WMSecondary},
}

// followerState is the watchdog's per-follower edge-trigger memory. It
// lives on the rung, so a dropped rung takes it along.
type followerState struct {
	seen       bool
	lastLSN    uint64
	stallTicks int
	tripped    bool
}

// watchdog periodically derives lag gauges from the watermark ladder and
// trips when a follower exceeds the lag threshold or stops advancing (stall
// detection). Trips are edge-triggered: a follower fires once per excursion
// and re-arms when it catches up. Every trip lands in the flight ring as a
// "watchdog.trip" event, and the first one freezes a copy of the ring
// (TripDump): a postmortem wants the ring near the stall, not at Close.
type watchdog struct {
	ws     *WatermarkSet
	reg    *Registry
	flight *FlightRecorder
	cfg    WatchdogConfig

	mu    sync.Mutex
	trips []Trip
	dump  []byte // the flight ring as it stood at the first trip

	// Wait-freeze machinery: waits is the deployment's wait-accounting
	// table (nil: trips carry no TopWaits); waitRing holds the last
	// StallTicks global snapshots so a trip can report the top wait classes
	// over its window. The ring is touched only from the tick path.
	waits    *WaitSet
	waitRing []waitSnap

	done    chan struct{}
	wg      sync.WaitGroup
	started bool
}

// waitSnap is one tick's copy of the global wait sketch.
type waitSnap struct {
	counts [numWaitClasses]uint64
	totals [numWaitClasses]uint64
}

// newWatchdog builds a watchdog over the given watermark set, publishing
// derived lag gauges into reg (nil disables gauge publication), freezing
// the top wait classes of waits over each trip's window (nil: none), and
// recording its trips in flight (nil: no events, no TripDump).
func newWatchdog(ws *WatermarkSet, reg *Registry, waits *WaitSet, flight *FlightRecorder, cfg WatchdogConfig) *watchdog {
	cfg.defaults()
	return &watchdog{
		ws: ws, reg: reg, waits: waits, flight: flight, cfg: cfg,
		done: make(chan struct{}),
	}
}

// captureWaitSnap copies the global wait sketch.
func (d *watchdog) captureWaitSnap() waitSnap {
	var snap waitSnap
	g := d.waits.globalStats()
	if g == nil {
		return snap
	}
	for i := range g.slots {
		snap.counts[i] = g.slots[i].count.Load()
		snap.totals[i] = g.slots[i].total.Load()
	}
	return snap
}

// topWaits computes the top-3 wait classes by total time accumulated
// between the oldest retained tick snapshot and now.
func (d *watchdog) topWaits() []WaitClassStat {
	if d.waits == nil {
		return nil
	}
	now := d.captureWaitSnap()
	var base waitSnap
	if len(d.waitRing) > 0 {
		base = d.waitRing[0]
	}
	g := d.waits.globalStats()
	out := make([]WaitClassStat, 0, numWaitClasses)
	for i := range now.totals {
		dt := now.totals[i] - base.totals[i]
		dc := now.counts[i] - base.counts[i]
		if dt == 0 && dc == 0 {
			continue
		}
		out = append(out, WaitClassStat{
			Class:   waitClass(i).String(),
			Count:   dc,
			TotalNS: dt,
			MaxNS:   g.slots[i].max.Load(),
		})
	}
	out = sortByTotal(out)
	if len(out) > 3 {
		out = out[:3]
	}
	return out
}

// pushWaitSnap appends this tick's snapshot, keeping StallTicks of
// history — the trip window.
func (d *watchdog) pushWaitSnap() {
	if d.waits == nil {
		return
	}
	d.waitRing = append(d.waitRing, d.captureWaitSnap())
	if n := d.cfg.StallTicks; len(d.waitRing) > n {
		d.waitRing = d.waitRing[len(d.waitRing)-n:]
	}
}

// Start launches the watchdog goroutine. Idempotent.
func (d *watchdog) Start() {
	if d == nil {
		return
	}
	d.mu.Lock()
	if d.started {
		d.mu.Unlock()
		return
	}
	d.started = true
	d.mu.Unlock()
	d.wg.Add(1)
	go d.loop()
}

// Stop halts the watchdog. Idempotent.
func (d *watchdog) Stop() {
	if d == nil {
		return
	}
	select {
	case <-d.done:
		return
	default:
	}
	d.mu.Lock()
	started := d.started
	d.mu.Unlock()
	close(d.done)
	if started {
		d.wg.Wait()
	}
}

// Trips returns the recorded trips, oldest first.
func (d *watchdog) Trips() []Trip {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]Trip(nil), d.trips...)
}

// TripDump returns the flight-recorder JSONL frozen at the first trip (nil
// if there was none yet, or the watchdog has no flight recorder).
func (d *watchdog) TripDump() []byte {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]byte(nil), d.dump...)
}

func (d *watchdog) loop() {
	defer d.wg.Done()
	ticker := time.NewTicker(d.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-d.done:
			return
		case <-ticker.C:
			d.Tick()
		}
	}
}

// Tick runs one watchdog evaluation (exported for deterministic tests; the
// background loop calls it on every interval).
func (d *watchdog) Tick() {
	if d == nil || d.ws == nil {
		return
	}
	now := time.Now()
	var maxApplyLagLSN, maxSecLagLSN uint64
	var maxApplyLagTime time.Duration
	for _, edge := range ladder {
		leader := d.ws.Watermark(edge.leader, "").Value()
		for _, follower := range d.ws.rungs(edge.follower) {
			cur := follower.Value()
			var lag uint64
			if leader > cur {
				lag = leader - cur
			}
			switch edge.follower {
			case WMApplied:
				if lag > maxApplyLagLSN {
					maxApplyLagLSN = lag
				}
				if t := d.ws.timeLag(cur, now); t > maxApplyLagTime {
					maxApplyLagTime = t
				}
			case WMSecondary:
				if lag > maxSecLagLSN {
					maxSecLagLSN = lag
				}
			}
			d.evaluate(edge, follower, cur, leader, lag, now)
		}
	}
	if d.reg != nil {
		c := d.ws.Watermark(WMCommit, "").Value()
		h := d.ws.Watermark(WMHardened, "").Value()
		p := d.ws.Watermark(WMPromoted, "").Value()
		ds := d.ws.Watermark(WMDestaged, "").Value()
		d.reg.Gauge("lz.harden_lag_lsn").Set(clampLag(c, h))
		d.reg.Gauge("xlog.promote_lag_lsn").Set(clampLag(h, p))
		d.reg.Gauge("xlog.destage_lag_lsn").Set(clampLag(p, ds))
		d.reg.Gauge("pageserver.apply_lag_lsn").Set(int64(maxApplyLagLSN))
		d.reg.Gauge("pageserver.apply_lag_ms").Set(maxApplyLagTime.Milliseconds())
		d.reg.Gauge("compute.apply_lag_lsn").Set(int64(maxSecLagLSN))
	}
	d.pushWaitSnap()
}

func clampLag(leader, follower uint64) int64 {
	if leader <= follower {
		return 0
	}
	return int64(leader - follower)
}

// evaluate applies the edge-triggered lag/stall rules to one follower.
func (d *watchdog) evaluate(edge ladderEdge, w *Watermark, cur, leader, lag uint64, now time.Time) {
	k := key(w.name, w.replica)
	d.mu.Lock()
	st := &w.watch
	if !st.seen {
		st.seen, st.lastLSN = true, cur
	}
	advanced := cur > st.lastLSN
	st.lastLSN = cur
	if lag == 0 {
		st.stallTicks = 0
		st.tripped = false
		d.mu.Unlock()
		return
	}
	if advanced {
		st.stallTicks = 0
	} else {
		st.stallTicks++
	}
	var trip *Trip
	switch {
	case st.tripped:
		// Already fired for this excursion; stay quiet until recovery.
	case d.cfg.MaxLagLSN > 0 && lag > uint64(d.cfg.MaxLagLSN):
		trip = &Trip{Kind: TripLag}
	case st.stallTicks >= d.cfg.StallTicks:
		trip = &Trip{Kind: TripStall}
	}
	if trip != nil {
		st.tripped = true
		trip.At = now
		trip.Follower = k
		trip.Leader = edge.leader
		trip.LagLSN = lag
		trip.LagTime = d.ws.timeLag(cur, now)
		trip.Detail = "watermark " + k + " behind " + edge.leader
		trip.TopWaits = d.topWaits()
	}
	frozen := d.dump != nil
	d.mu.Unlock()
	if trip == nil {
		return
	}
	// A trip is published last: its event is in the ring and the first
	// trip's dump is frozen before Trips shows it, so whoever sees the trip
	// also sees both.
	d.flight.Record("obs", "watchdog.trip", 0, trip.LagTime, string(trip.Kind)+": "+trip.Detail)
	var dump []byte
	if !frozen && d.flight != nil {
		var buf bytes.Buffer
		// Dumping to a bytes.Buffer cannot fail: the encoder only errors on
		// unmarshalable values, and FlightEvent is plain data.
		_ = d.flight.Dump(&buf)
		dump = buf.Bytes()
	}
	d.mu.Lock()
	if d.dump == nil {
		d.dump = dump
	}
	d.trips = append(d.trips, *trip)
	d.mu.Unlock()
	d.reg.Counter("obs.watchdog.trips").Inc()
}
