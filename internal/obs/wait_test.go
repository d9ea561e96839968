package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWaitStatsExactMaxConcurrent pins the sketch's exact-aggregate
// guarantee: under concurrent recording the count and total are exact
// sums and the max is the true maximum (CAS max, not a sampled quantile).
func TestWaitStatsExactMaxConcurrent(t *testing.T) {
	var ws waitStats
	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Unique durations; the global max is planted by goroutine 0.
				d := time.Duration(g*perG+i+1) * time.Microsecond
				if g == 0 && i == perG/2 {
					d = time.Hour
				}
				ws.record(WaitCommitHarden, d)
			}
		}(g)
	}
	wg.Wait()

	snap := ws.snapshot()
	if len(snap) != 1 {
		t.Fatalf("Snapshot: got %d classes, want 1: %+v", len(snap), snap)
	}
	st := snap[0]
	if st.Class != "commit.harden" {
		t.Fatalf("class = %q, want commit.harden", st.Class)
	}
	if st.Count != goroutines*perG {
		t.Fatalf("count = %d, want %d", st.Count, goroutines*perG)
	}
	if st.MaxNS != uint64(time.Hour) {
		t.Fatalf("max = %d ns, want the planted 1h (%d ns)", st.MaxNS, uint64(time.Hour))
	}
	if st.TotalNS <= uint64(time.Hour) {
		t.Fatalf("total = %d ns, should exceed the planted max alone", st.TotalNS)
	}
}

// TestWaitRegionSemantics pins the WaitPoint contract: End on a zero
// region is a no-op, EndIf(false) records nothing, End/EndIf(true) record
// exactly one wait into the tier sketch, the global sketch, and the
// context's span.
func TestWaitRegionSemantics(t *testing.T) {
	set := NewWaitSet()
	rec := set.Tier("compute")
	ctx, span := NewTracer().StartSpan(context.Background(), TierCompute, "req")

	var zero WaitRegion
	zero.End() // must not panic or record

	rec.Begin(ctx, WaitLockRow).EndIf(false)
	if got := set.globalStats().snapshot(); len(got) != 0 {
		t.Fatalf("EndIf(false) recorded: %+v", got)
	}

	rec.Begin(ctx, WaitLockRow).EndIf(true)
	rec.Begin(ctx, WaitCommitHarden).End()

	global := set.globalStats().snapshot()
	if len(global) != 2 {
		t.Fatalf("global sketch: got %d classes, want 2: %+v", len(global), global)
	}
	for _, st := range global {
		if st.Count != 1 {
			t.Fatalf("class %s: count = %d, want 1", st.Class, st.Count)
		}
	}
	rep := set.Report()
	if len(rep.Tiers["compute"]) != 2 {
		t.Fatalf("compute tier: got %+v, want 2 classes", rep.Tiers["compute"])
	}
	span.End()
	bd := span.WaitBreakdown()
	if len(bd) != 2 {
		t.Fatalf("span breakdown: got %+v, want 2 classes", bd)
	}
}

// TestPackageWaitAttributesWithoutRecorder pins the nil-recorder path: a
// nil *WaitRecorder's Begin/End on a context carrying a span attributes
// the region's duration to the span even though no sketch is wired.
func TestPackageWaitAttributesWithoutRecorder(t *testing.T) {
	ctx, span := NewTracer().StartSpan(context.Background(), TierCompute, "req")
	var nilRec *WaitRecorder
	region := nilRec.Begin(ctx, WaitPageRemote)
	time.Sleep(time.Millisecond)
	region.End()
	span.End()

	bd := span.WaitBreakdown()
	if len(bd) != 1 || bd[0].Class != "page.remote" {
		t.Fatalf("breakdown = %+v, want one page.remote entry", bd)
	}
	if got := time.Duration(bd[0].TotalNS); got < time.Millisecond {
		t.Fatalf("total = %v, want >= the 1ms sleep", got)
	}

	// A nil context must be safe too (background loops).
	nilRec.Observe(nil, WaitDiskRead, time.Millisecond)
}

// TestSpanWaitBreakdownOrder pins the per-request report shape: classes
// sorted by descending total, summing to every wait recorded.
func TestSpanWaitBreakdownOrder(t *testing.T) {
	_, p := NewTracer().StartSpan(context.Background(), TierCompute, "req")
	p.recordWait(WaitPageMiss, 1*time.Millisecond)
	p.recordWait(WaitCommitHarden, 5*time.Millisecond)
	p.recordWait(WaitLockLatch, 3*time.Millisecond)
	p.End()

	bd := p.WaitBreakdown()
	want := []string{"commit.harden", "lock.latch", "page.miss"}
	if len(bd) != len(want) {
		t.Fatalf("breakdown = %+v, want %d classes", bd, len(want))
	}
	for i, cls := range want {
		if bd[i].Class != cls {
			t.Fatalf("breakdown[%d] = %s, want %s (descending total order)", i, bd[i].Class, cls)
		}
	}
	var total time.Duration
	for _, st := range bd {
		total += time.Duration(st.TotalNS)
	}
	if total != 9*time.Millisecond {
		t.Fatalf("total = %v, want 9ms", total)
	}
}

// TestWaitSetConcurrentRecordAndReport races recorders on multiple tiers
// against concurrent /waits snapshotting (Report + the Prometheus
// exposition). Run under -race (./internal/obs is in RACE_PKGS) this pins
// the lock-free record path against the snapshot path.
func TestWaitSetConcurrentRecordAndReport(t *testing.T) {
	set := NewWaitSet()
	tiers := []string{"compute", "xlog", "pageserver", "lz"}
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for i, tier := range tiers {
		wg.Add(1)
		go func(i int, tier string) {
			defer wg.Done()
			rec := set.Tier(tier)
			ctx, span := NewTracer().StartSpan(context.Background(), tier, "req")
			defer span.End()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				class := waitClass((n + i) % numWaitClasses)
				rec.Observe(ctx, class, time.Duration(n%1000)*time.Microsecond)
				rec.Begin(ctx, class).End()
			}
		}(i, tier)
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rep := set.Report()
				for _, st := range rep.Global {
					if st.TotalNS < uint64(st.Count) && st.TotalNS != 0 && st.Count != 0 {
						// Totals and counts advance independently; just touch them.
						_ = st
					}
				}
				if err := writePrometheusWaits(io.Discard, set); err != nil {
					t.Errorf("WritePrometheusWaits: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()

	rep := set.Report()
	if len(rep.Global) != numWaitClasses {
		t.Fatalf("global sketch has %d classes, want all %d live", len(rep.Global), numWaitClasses)
	}
	if len(rep.Tiers) != len(tiers) {
		t.Fatalf("tiers = %v, want %d", rep.Tiers, len(tiers))
	}
}

// TestWritePrometheusWaitsGolden pins the exact exposition: three
// families (seconds counter, count counter, max gauge), global series
// first with tier="", then tiers in sorted order, classes within each in
// descending-total order.
func TestWritePrometheusWaitsGolden(t *testing.T) {
	set := NewWaitSet()
	compute := set.Tier("compute")
	compute.Observe(nil, WaitCommitHarden, 1500*time.Microsecond)
	compute.Observe(nil, WaitCommitHarden, 500*time.Microsecond)
	set.Tier("xlog").Observe(nil, WaitDiskWrite, 3*time.Millisecond)

	var buf bytes.Buffer
	if err := writePrometheusWaits(&buf, set); err != nil {
		t.Fatalf("WritePrometheusWaits: %v", err)
	}
	want := `# TYPE socrates_wait_seconds_total counter
socrates_wait_seconds_total{tier="",class="disk.write"} 0.003
socrates_wait_seconds_total{tier="",class="commit.harden"} 0.002
socrates_wait_seconds_total{tier="compute",class="commit.harden"} 0.002
socrates_wait_seconds_total{tier="xlog",class="disk.write"} 0.003
# TYPE socrates_wait_count_total counter
socrates_wait_count_total{tier="",class="disk.write"} 1
socrates_wait_count_total{tier="",class="commit.harden"} 2
socrates_wait_count_total{tier="compute",class="commit.harden"} 2
socrates_wait_count_total{tier="xlog",class="disk.write"} 1
# TYPE socrates_wait_max_seconds gauge
socrates_wait_max_seconds{tier="",class="disk.write"} 0.003
socrates_wait_max_seconds{tier="",class="commit.harden"} 0.0015
socrates_wait_max_seconds{tier="compute",class="commit.harden"} 0.0015
socrates_wait_max_seconds{tier="xlog",class="disk.write"} 0.003
`
	if got := buf.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// Empty and nil sets must render nothing (no headerless families).
	buf.Reset()
	if err := writePrometheusWaits(&buf, NewWaitSet()); err != nil || buf.Len() != 0 {
		t.Fatalf("empty set: err=%v output=%q", err, buf.String())
	}
	if err := writePrometheusWaits(&buf, nil); err != nil || buf.Len() != 0 {
		t.Fatalf("nil set: err=%v output=%q", err, buf.String())
	}
}

// TestWaitsHTTPEndpoint pins the /waits surface: the default JSON
// document round-trips as a WaitReport, ?format=prom serves the
// exposition with the Prometheus content type, and /metrics includes the
// wait families alongside the registry's.
func TestWaitsHTTPEndpoint(t *testing.T) {
	set := NewWaitSet()
	set.Tier("compute").Observe(nil, WaitCommitHarden, 2*time.Millisecond)
	set.Tier("compute").Observe(nil, WaitLockLatch, time.Millisecond)

	srv := httptest.NewServer(NewHTTPHandler(Plane{
		Metrics: NewRegistry(),
		Waits:   set,
	}))
	defer srv.Close()

	get := func(path string) (int, string, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s body: %v", path, err)
		}
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	code, body, _ := get("/waits")
	if code != http.StatusOK {
		t.Fatalf("/waits: status %d", code)
	}
	var rep WaitReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/waits JSON: %v\n%s", err, body)
	}
	if len(rep.Global) != 2 || rep.Global[0].Class != "commit.harden" {
		t.Fatalf("/waits global = %+v, want commit.harden first of 2", rep.Global)
	}
	if len(rep.Tiers["compute"]) != 2 {
		t.Fatalf("/waits tiers = %+v, want 2 compute classes", rep.Tiers)
	}

	code, body, ctype := get("/waits?format=prom")
	if code != http.StatusOK {
		t.Fatalf("/waits?format=prom: status %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Fatalf("/waits?format=prom content type = %q", ctype)
	}
	for _, family := range []string{
		"socrates_wait_seconds_total", "socrates_wait_count_total", "socrates_wait_max_seconds",
	} {
		if !strings.Contains(body, fmt.Sprintf("%s{tier=\"compute\",class=\"commit.harden\"}", family)) {
			t.Fatalf("/waits?format=prom missing %s series:\n%s", family, body)
		}
	}

	_, body, _ = get("/metrics")
	if !strings.Contains(body, `socrates_wait_seconds_total{tier="",class="commit.harden"}`) {
		t.Fatalf("/metrics missing wait exposition:\n%s", body)
	}
}

// TestWatchdogTripFreezesTopWaits drives the watchdog's wait-freeze
// machinery tick by tick: waits recorded during the trip window must show
// up in the trip's TopWaits as window deltas (capped at 3 classes), and
// pre-window history must not.
func TestWatchdogTripFreezesTopWaits(t *testing.T) {
	ws := NewWatermarkSet()
	set := NewWaitSet()
	// Pre-window history that must NOT appear in the trip's window delta.
	set.globalStats().record(WaitDiskRead, time.Hour)

	d := newWatchdog(ws, nil, set, nil, WatchdogConfig{MaxLagLSN: -1, StallTicks: 3})

	publishLadder(ws, 500, 500, 500, 500)
	// Cycle the snapshot ring until every retained snapshot already
	// includes the pre-window history.
	for i := 0; i < 5; i++ {
		d.Tick()
	}
	// The window's signature: a quorum-loss window is dominated by
	// commit.quorum, with some harden and latch time underneath.
	for i := 0; i < 10; i++ {
		set.globalStats().record(WaitCommitQuorum, 10*time.Millisecond)
		set.globalStats().record(WaitCommitHarden, time.Millisecond)
		set.globalStats().record(WaitLockLatch, 100*time.Microsecond)
	}
	rung(ws, WMApplied, "ps-0").Publish(100) // behind and not moving
	for i := 0; i < 3; i++ {
		d.Tick()
	}
	trips := d.Trips()
	if len(trips) != 1 {
		t.Fatalf("trips = %+v, want 1 stall trip", trips)
	}
	trip := trips[0]
	if len(trip.TopWaits) == 0 || len(trip.TopWaits) > 3 {
		t.Fatalf("TopWaits = %+v, want 1..3 classes", trip.TopWaits)
	}
	if trip.TopWaits[0].Class != "commit.quorum" {
		t.Fatalf("TopWaits[0] = %+v, want commit.quorum dominating the window", trip.TopWaits[0])
	}
	if trip.TopWaits[0].Count != 10 || trip.TopWaits[0].TotalNS != uint64(100*time.Millisecond) {
		t.Fatalf("TopWaits[0] = %+v, want the window delta (10 waits, 100ms)", trip.TopWaits[0])
	}
	for _, st := range trip.TopWaits {
		if st.Class == "disk.read" {
			t.Fatalf("TopWaits includes pre-window history: %+v", st)
		}
	}
}
