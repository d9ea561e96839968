package experiments

import (
	"testing"
	"time"
)

// quick returns options small enough for unit tests; the bench suite runs
// the full windows.
func quick() Options {
	return Options{
		Measure: 250 * time.Millisecond,
		WarmUp:  50 * time.Millisecond,
		SF:      400,
		Threads: 8,
	}
}

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	h, s, err := Table2(quick())
	if err != nil {
		t.Fatal(err)
	}
	if h.TotalTPS <= 0 || s.TotalTPS <= 0 {
		t.Fatalf("zero throughput: %+v %+v", h, s)
	}
	// Reads dominate writes on both (default mix), and both systems commit
	// writes (a zero write rate would mean a poisoned engine).
	if h.WriteTPS <= 0 || s.WriteTPS <= 0 {
		t.Fatalf("no writes: %+v %+v", h, s)
	}
	if h.ReadTPS < h.WriteTPS || s.ReadTPS < s.WriteTPS {
		t.Fatalf("mix shape wrong: %+v %+v", h, s)
	}
	// The paper's shape: the two systems are comparable, HADR typically a
	// bit ahead (100% local hits vs remote misses). Allow generous noise
	// at the tiny test scale.
	if s.TotalTPS > h.TotalTPS*3 || h.TotalTPS > s.TotalTPS*8 {
		t.Fatalf("throughputs diverged: socrates %.0f vs hadr %.0f", s.TotalTPS, h.TotalTPS)
	}
}

func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	row, err := Table3(quick())
	if err != nil {
		t.Fatal(err)
	}
	if row.CacheRatio < 0.10 || row.CacheRatio > 0.20 {
		t.Fatalf("cache ratio = %.2f, want ~0.15", row.CacheRatio)
	}
	// Paper: 52% hit at 15% cache. Shape: well above the cache ratio,
	// below perfect.
	if row.HitPct < 25 || row.HitPct > 98 {
		t.Fatalf("hit rate = %.1f%%, want skew-boosted rate", row.HitPct)
	}
}

func TestTable4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	row, err := Table4(quick())
	if err != nil {
		t.Fatal(err)
	}
	if row.CacheRatio > 0.05 {
		t.Fatalf("cache ratio = %.3f, want ~0.013", row.CacheRatio)
	}
	// Paper: 32% at ~1% cache — far above the cache fraction.
	if row.HitPct < 10 {
		t.Fatalf("hit rate = %.1f%% at %.1f%% cache; skew not effective",
			row.HitPct, row.CacheRatio*100)
	}
}

// TestTable5Shape asserts Table 5's mechanism on deterministic work
// accounting, not on a wall-clock throughput race (the old form — two
// separately-timed MB/s rates compared against each other — inverted on
// loaded machines and spent PR 6..8 gated behind SOCRATES_TABLE5=1).
// Both systems now commit the same fixed transaction count; the shape
// claims are functions of that work:
//   - HADR's log production is coupled to backup egress: the fixed work
//     overruns the lag budget by construction, so the throttle MUST have
//     engaged, on any machine, at any load.
//   - Socrates commits the identical work with its log decoupled from
//     backups (snapshot backups; no egress throttle exists on its path).
//   - Both systems produce comparable log volume for identical work, so
//     the rates the bench reports are measuring the same bytes.
func TestTable5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	o := quick()
	h, s, err := Table5(o)
	if err != nil {
		t.Fatal(err)
	}
	work := table5Work(o)
	// The drive is work-bounded and credits aborted attempts back to the
	// budget: both systems must have committed exactly the fixed work.
	if h.Commits != work || s.Commits != work {
		t.Fatalf("fixed work did not complete: HADR %d, Socrates %d of %d commits",
			h.Commits, s.Commits, work)
	}
	if h.LogBytes <= 0 || s.LogBytes <= 0 {
		t.Fatalf("no log produced: %+v %+v", h, s)
	}
	// Calibration guard: the fixed work must overrun the HADR lag budget
	// many times over, or the throttle claim below proves nothing.
	if h.LogBytes < table5LagBudget*4 {
		t.Fatalf("HADR log volume %d B too small against lag budget %d B; raise table5Work",
			h.LogBytes, int(table5LagBudget))
	}
	// The headline mechanism: HADR throttled on backup egress while
	// committing the work; Socrates has no such coupling to engage.
	if h.Throttles == 0 {
		t.Fatalf("HADR backup-egress throttle never engaged over %d commits / %d log bytes; Table 5 shape lost",
			h.Commits, h.LogBytes)
	}
	if s.Throttles != 0 {
		t.Fatalf("Socrates log path reported %d backup throttles; commit/backup decoupling lost", s.Throttles)
	}
	// Identical work, shared WAL encoding: log volumes must be in the
	// same ballpark (guards against one side silently dropping records).
	if s.LogBytes > h.LogBytes*2 || h.LogBytes > s.LogBytes*2 {
		t.Fatalf("log volumes diverged for identical work: HADR %d B, Socrates %d B",
			h.LogBytes, s.LogBytes)
	}
}

func TestTable6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	xio, dd, err := Table6(quick())
	if err != nil {
		t.Fatal(err)
	}
	if xio.Stats.Count == 0 || dd.Stats.Count == 0 {
		t.Fatal("no latency samples")
	}
	// Paper: DD median ~4x lower than XIO.
	ratio := float64(xio.Stats.Median) / float64(dd.Stats.Median)
	if ratio < 2 {
		t.Fatalf("XIO/DD median ratio = %.1f, want >= 2 (paper ~4x)", ratio)
	}
	if dd.Stats.Min >= xio.Stats.Min {
		t.Fatalf("DD min %.0fus >= XIO min %.0fus",
			float64(dd.Stats.Min.Microseconds()), float64(xio.Stats.Min.Microseconds()))
	}
}

func TestFigure4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	points, err := Figure4(quick(), []int{1, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	byService := map[string][]CurvePoint{}
	for _, p := range points {
		byService[p.Service] = append(byService[p.Service], p)
	}
	for svc, ps := range byService {
		if len(ps) != 3 {
			t.Fatalf("%s: %d points", svc, len(ps))
		}
		// Throughput grows with threads (group commit).
		if ps[2].TPS <= ps[0].TPS {
			t.Fatalf("%s: TPS did not scale with threads: %+v", svc, ps)
		}
	}
	// DD beats XIO at low thread counts.
	if byService["DD"][0].TPS <= byService["XIO"][0].TPS {
		t.Fatalf("DD single-thread TPS %.0f <= XIO %.0f",
			byService["DD"][0].TPS, byService["XIO"][0].TPS)
	}
}

func TestTable7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	xio, dd, err := Table7(quick(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// XIO needs at least as many threads and burns more CPU per MB/s.
	if xio.Threads < dd.Threads {
		t.Fatalf("XIO threads %d < DD threads %d", xio.Threads, dd.Threads)
	}
	xioEff := xio.CPUPct / xio.LogMBps
	ddEff := dd.CPUPct / dd.LogMBps
	if xioEff <= ddEff {
		t.Fatalf("XIO CPU per MB/s (%.2f) <= DD (%.2f); Table 7 shape lost", xioEff, ddEff)
	}
}

func TestFlightOverheadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	r, err := FlightOverhead(quick())
	if err != nil {
		t.Fatal(err)
	}
	if r.EnabledTPS <= 0 || r.DisabledTPS <= 0 {
		t.Fatalf("zero throughput: %+v", r)
	}
	// The enabled arm must actually have been observing: flight events
	// recorded and the LSN ladder populated (commit, hardened, promoted,
	// destaged, archived, truncated, applied, checkpoint at minimum).
	if r.Events == 0 {
		t.Fatalf("flight recorder recorded nothing: %+v", r)
	}
	if r.Watermarks < 5 {
		t.Fatalf("watermark ladder too sparse (%d names): %+v", r.Watermarks, r)
	}
	// No threshold on OverheadPct: run-to-run noise at test scale exceeds
	// the 5% budget; the committed BENCH_pr3.json tracks the real number.
}

func TestTable1Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	rows, err := Table1(Options{Measure: 200 * time.Millisecond,
		WarmUp: 50 * time.Millisecond, SF: 400, Threads: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Metric == "" || r.HADR == "" || r.Socrates == "" {
			t.Fatalf("incomplete row %+v", r)
		}
	}
}
