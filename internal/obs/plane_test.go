package obs

import (
	"bytes"
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

// --- watermarks ---

func TestWatermarkMonotonePublish(t *testing.T) {
	ws := NewWatermarkSet()
	w := rung(ws, WMHardened, "")
	w.Publish(10)
	w.Publish(5) // stale: must not regress
	if got := w.Value(); got != 10 {
		t.Fatalf("value = %d, want 10 (monotone max)", got)
	}
	w.Publish(20)
	if got := w.Value(); got != 20 {
		t.Fatalf("value = %d, want 20", got)
	}
	if w.updatedAt().IsZero() {
		t.Fatal("UpdatedAt should be set after a publish")
	}
	if w.name != WMHardened || w.replica != "" {
		t.Fatalf("identity = %q/%q", w.name, w.replica)
	}
}

func TestWatermarkSetSnapshotAndReplicas(t *testing.T) {
	ws := NewWatermarkSet()
	rung(ws, WMApplied, "ps-1").Publish(7)
	rung(ws, WMApplied, "ps-0").Publish(9)
	rung(ws, WMCommit, "").Publish(11)
	snap := ws.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot len = %d, want 3", len(snap))
	}
	// Sorted by name then replica.
	if snap[0].Name != WMCommit || snap[1].Replica != "ps-0" || snap[2].Replica != "ps-1" {
		t.Fatalf("snapshot order wrong: %+v", snap)
	}
	if got := ws.Replicas(WMApplied); len(got) != 2 || got[0] != "ps-0" || got[1] != "ps-1" {
		t.Fatalf("replicas = %v", got)
	}
	// Same name+replica resolves to the same watermark.
	if rung(ws, WMApplied, "ps-0") != rung(ws, WMApplied, "ps-0") {
		t.Fatal("watermark lookup not stable")
	}
}

func TestTimeLag(t *testing.T) {
	ws := NewWatermarkSet()
	for lsn := uint64(1); lsn <= 5; lsn++ {
		ws.PublishCommit(lsn)
	}
	now := time.Now().Add(50 * time.Millisecond)
	// A follower at LSN 0 is missing every stamped commit; its time lag is
	// at least the age of the oldest stamp.
	if lag := ws.timeLag(0, now); lag < 50*time.Millisecond || lag > time.Minute {
		t.Fatalf("lag = %v, want >= 50ms", lag)
	}
	// A follower that applied everything has no lag.
	if lag := ws.timeLag(5, now); lag != 0 {
		t.Fatalf("caught-up lag = %v, want 0", lag)
	}
}

func TestLadderLags(t *testing.T) {
	ws := NewWatermarkSet()
	rung(ws, WMCommit, "").Publish(100)
	rung(ws, WMHardened, "").Publish(90)
	rung(ws, WMPromoted, "").Publish(80)
	rung(ws, WMApplied, "ps-0").Publish(50)
	lags := ws.ladderLags()
	if lags["lz.harden_lag_lsn"] != 10 {
		t.Fatalf("harden lag = %d, want 10", lags["lz.harden_lag_lsn"])
	}
	if lags["xlog.promote_lag_lsn"] != 10 {
		t.Fatalf("promote lag = %d, want 10", lags["xlog.promote_lag_lsn"])
	}
	if lags["pageserver.apply_lag_lsn/ps-0"] != 30 {
		t.Fatalf("apply lag = %d, want 30", lags["pageserver.apply_lag_lsn/ps-0"])
	}
}

// --- watchdog ---

// publishLadder sets every singleton rung to the given values.
func publishLadder(ws *WatermarkSet, commit, hardened, promoted, destaged uint64) {
	rung(ws, WMCommit, "").Publish(commit)
	rung(ws, WMHardened, "").Publish(hardened)
	rung(ws, WMPromoted, "").Publish(promoted)
	rung(ws, WMDestaged, "").Publish(destaged)
}

func TestWatchdogLagTripEdgeTriggered(t *testing.T) {
	ws := NewWatermarkSet()
	reg := NewRegistry()
	d := newWatchdog(ws, reg, nil, nil, WatchdogConfig{MaxLagLSN: 100, StallTicks: 1000})

	publishLadder(ws, 1000, 10, 10, 10) // hardened 990 behind commit
	d.Tick()
	if len(d.Trips()) != 1 {
		t.Fatalf("trips = %d, want 1", len(d.Trips()))
	}
	d.Tick() // same excursion: edge-triggered, no re-fire
	if len(d.Trips()) != 1 {
		t.Fatalf("trips after second tick = %d, want 1 (edge-triggered)", len(d.Trips()))
	}
	if fired := d.Trips(); len(fired) != 1 || fired[0].Kind != TripLag ||
		fired[0].Follower != WMHardened || fired[0].LagLSN != 990 {
		t.Fatalf("trip = %+v", d.Trips())
	}

	publishLadder(ws, 1000, 1000, 1000, 1000) // caught up: re-arms
	d.Tick()
	publishLadder(ws, 2000, 1000, 1000, 1000) // new excursion
	d.Tick()
	if len(d.Trips()) != 2 {
		t.Fatalf("trips after re-arm = %d, want 2", len(d.Trips()))
	}
	if got := reg.Gauge("lz.harden_lag_lsn").Value(); got != 1000 {
		t.Fatalf("harden lag gauge = %d, want 1000", got)
	}
	if got := reg.Counter("obs.watchdog.trips").Value(); got != 2 {
		t.Fatalf("trip counter = %d, want 2", got)
	}
}

func TestWatchdogStallTrip(t *testing.T) {
	ws := NewWatermarkSet()
	d := newWatchdog(ws, nil, nil, nil, WatchdogConfig{MaxLagLSN: -1, StallTicks: 3})

	publishLadder(ws, 500, 500, 500, 500)
	rung(ws, WMApplied, "ps-0").Publish(100) // behind and not moving
	for i := 0; i < 2; i++ {
		d.Tick()
	}
	if len(d.Trips()) != 0 {
		t.Fatalf("tripped after %d ticks, want none before StallTicks", 2)
	}
	d.Tick() // third consecutive stalled tick
	if len(d.Trips()) != 1 {
		t.Fatalf("trips = %d, want 1 stall trip", len(d.Trips()))
	}
	trips := d.Trips()
	if len(trips) != 1 || trips[0].Kind != TripStall ||
		trips[0].Follower != WMApplied+"/ps-0" || trips[0].Leader != WMPromoted {
		t.Fatalf("trip = %+v", trips)
	}

	// Progress clears the stall counter; catching up re-arms.
	rung(ws, WMApplied, "ps-0").Publish(500)
	d.Tick()
	if len(d.Trips()) != 1 {
		t.Fatalf("trips after recovery = %d, want still 1", len(d.Trips()))
	}
}

// TestNewPlaneFreezesTheFirstTripDump drives a NewPlane's watchdog tick by
// tick on a hand-set ladder: every trip lands in the flight ring as a
// watchdog.trip event, and watchdog.TripDump keeps the ring as it stood at the first.
func TestNewPlaneFreezesTheFirstTripDump(t *testing.T) {
	p := NewPlane(WatchdogConfig{MaxLagLSN: 100, StallTicks: 1000})
	if p.Tracer == nil || p.Metrics == nil || p.Watermarks == nil ||
		p.Flight == nil || p.Waits == nil || p.Watchdog == nil {
		t.Fatalf("NewPlane left a handle nil: %+v", p)
	}
	if p.Watchdog.TripDump() != nil {
		t.Fatal("a plane whose watchdog never fired has a trip dump")
	}
	tripEvents := func(jsonl []byte) int {
		n := 0
		for _, line := range bytes.Split(bytes.TrimSpace(jsonl), []byte("\n")) {
			var e FlightEvent
			if err := json.Unmarshal(line, &e); err != nil {
				t.Fatalf("dump line %q: %v", line, err)
			}
			if e.Kind == "watchdog.trip" {
				n++
			}
		}
		return n
	}

	publishLadder(p.Watermarks, 1000, 10, 10, 10) // hardened 990 behind commit
	p.Watchdog.Tick()
	first := p.Watchdog.TripDump()
	if len(p.Watchdog.Trips()) != 1 || tripEvents(first) != 1 {
		t.Fatalf("after the first trip: trips=%d, frozen dump:\n%s", len(p.Watchdog.Trips()), first)
	}

	publishLadder(p.Watermarks, 1000, 1000, 1000, 1000) // caught up: re-arms
	p.Watchdog.Tick()
	publishLadder(p.Watermarks, 2000, 1000, 1000, 1000) // second excursion
	p.Watchdog.Tick()
	if len(p.Watchdog.Trips()) != 2 {
		t.Fatalf("trips = %d, want 2", len(p.Watchdog.Trips()))
	}
	var ring bytes.Buffer
	if err := p.Flight.Dump(&ring); err != nil {
		t.Fatal(err)
	}
	if n := tripEvents(ring.Bytes()); n != 2 {
		t.Fatalf("flight ring holds %d watchdog.trip events, want 2:\n%s", n, ring.Bytes())
	}
	if got := p.Watchdog.TripDump(); !bytes.Equal(got, first) {
		t.Fatalf("the frozen dump moved at the second trip:\n--- first ---\n%s--- now ---\n%s", first, got)
	}
}

func TestWatchdogStartStop(t *testing.T) {
	ws := NewWatermarkSet()
	d := newWatchdog(ws, nil, nil, nil, WatchdogConfig{Interval: time.Millisecond})
	d.Start()
	d.Start() // idempotent
	time.Sleep(5 * time.Millisecond)
	d.Stop()
	d.Stop() // idempotent
}

// TestTripIsPublishedAfterItsDump: Trips never shows a trip before its
// flight event and the first trip's dump exist (DESIGN §16.6). The window
// it guards is as wide as one dump of the ring, so the test opens it 2,000
// times: a fresh plane with 200 events in its ring, a ladder far behind,
// Tick in a goroutine, and the test polling Trips until it shows the trip.
func TestTripIsPublishedAfterItsDump(t *testing.T) {
	for i := 0; i < 2000; i++ {
		p := NewPlane(WatchdogConfig{MaxLagLSN: 100, StallTicks: 1000})
		for e := 0; e < 200; e++ {
			p.Flight.Record(TierCompute, "test", uint64(e), 0, "")
		}
		publishLadder(p.Watermarks, 1000, 10, 10, 10)
		done := make(chan struct{})
		go func() {
			defer close(done)
			p.Watchdog.Tick()
		}()
		for len(p.Watchdog.Trips()) == 0 {
			select {
			case <-done:
				if len(p.Watchdog.Trips()) == 0 {
					t.Fatal("Tick returned without a trip")
				}
			default:
			}
		}
		if p.Watchdog.TripDump() == nil {
			t.Fatalf("iteration %d: Trips shows a trip and TripDump is nil", i)
		}
		<-done
	}
}

// --- flight recorder ---

func TestFlightRingWraparound(t *testing.T) {
	f := NewFlightRecorder(8)
	for i := 0; i < 20; i++ {
		f.Record(TierCompute, "test", uint64(i), 0, fmt.Sprintf("e%d", i))
	}
	if n := f.cursor.Load(); n != 20 {
		t.Fatalf("recorded = %d, want 20", n)
	}
	events := f.Events()
	if len(events) != 8 {
		t.Fatalf("events = %d, want 8", len(events))
	}
	// The ring retains exactly the newest 8 events (12..19).
	got := map[string]bool{}
	for _, e := range events {
		got[e.Detail] = true
	}
	for i := 12; i < 20; i++ {
		if !got[fmt.Sprintf("e%d", i)] {
			t.Fatalf("event e%d evicted; retained %v", i, got)
		}
	}
	// Time-ordered.
	for i := 1; i < len(events); i++ {
		if events[i].TS < events[i-1].TS {
			t.Fatalf("events not time-ordered at %d", i)
		}
	}
}

func TestFlightDumpJSONL(t *testing.T) {
	f := NewFlightRecorder(16)
	f.Record(TierXLOG, "xlog.destage", 42, 3*time.Millisecond, "blocks=2")
	f.RecordTrace(TierLZ, "lz.flush", 64, TraceID(7), time.Millisecond, "records=5")
	var buf bytes.Buffer
	if err := f.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("dump lines = %d, want 2:\n%s", len(lines), buf.String())
	}
	for _, line := range lines {
		var e FlightEvent
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %q not valid JSON: %v", line, err)
		}
		if e.Tier == "" || e.Kind == "" || e.TS == 0 {
			t.Fatalf("incomplete event %+v", e)
		}
	}
}

// TestFlightConcurrentWritersAndDumper is the -race test for the lock-free
// ring: many writers claiming slots while a dumper reads them.
func TestFlightConcurrentWritersAndDumper(t *testing.T) {
	f := NewFlightRecorder(64)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				f.RecordTrace(TierPageServer, "ps.apply", uint64(i), TraceID(w), time.Microsecond, "batch")
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = f.Events()
			// io.Discard cannot fail; this loop only exercises the reader path under race
			_ = f.Dump(io.Discard)
		}
	}()
	// Wait for the writers, then stop the dumper.
	done := make(chan struct{})
	go func() {
		for f.cursor.Load() < 16000 {
			time.Sleep(time.Millisecond) // test polling for writer completion
		}
		close(stop)
		close(done)
	}()
	<-done
	wg.Wait()
	if n := f.cursor.Load(); n != 16000 {
		t.Fatalf("recorded = %d, want 16000", n)
	}
	if n := len(f.Events()); n != 64 {
		t.Fatalf("len = %d, want 64", n)
	}
}

func TestPlaneNilSafety(t *testing.T) {
	var ws *WatermarkSet
	var f *FlightRecorder
	var d *watchdog
	ws.PublishCommit(1)
	rung(ws, "x.y", "").Publish(2)
	_ = ws.Snapshot()
	_ = ws.ladderLags()
	_ = ws.timeLag(0, time.Now())
	f.Record(TierLZ, "k", 1, 0, "")
	_ = f.Events()
	d.Tick()
	d.Start()
	d.Stop()
	_ = d.Trips()
	var p Plane
	if p.Watchdog.TripDump() != nil {
		t.Fatal("the zero plane has a trip dump")
	}
}

// --- prometheus exposition ---

func TestWritePrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("lz.flush.count").Add(3)
	reg.Gauge("pageserver.rbpex.pages").Set(42)
	h := reg.Histogram("lz.write.latency")
	h.Observe(500 * time.Nanosecond) // underflow bucket (le 1µs)
	h.Observe(3 * time.Microsecond)  // bucket [2µs,4µs) (le 4µs)

	ws := NewWatermarkSet()
	rung(ws, WMCommit, "").Publish(128)
	rung(ws, WMHardened, "").Publish(96)
	rung(ws, WMApplied, "ps-0").Publish(64)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := writePrometheusWatermarks(&buf, ws); err != nil {
		t.Fatal(err)
	}

	want := `# TYPE socrates_lz_flush_count counter
socrates_lz_flush_count 3
# TYPE socrates_pageserver_rbpex_pages gauge
socrates_pageserver_rbpex_pages 42
# TYPE socrates_lz_write_latency_seconds histogram
socrates_lz_write_latency_seconds_bucket{le="1e-06"} 1
socrates_lz_write_latency_seconds_bucket{le="2e-06"} 1
socrates_lz_write_latency_seconds_bucket{le="4e-06"} 2
socrates_lz_write_latency_seconds_bucket{le="+Inf"} 2
socrates_lz_write_latency_seconds_sum 3.5e-06
socrates_lz_write_latency_seconds_count 2
# TYPE socrates_watermark_lsn gauge
socrates_watermark_lsn{name="compute.commit_lsn",replica=""} 128
socrates_watermark_lsn{name="lz.hardened_lsn",replica=""} 96
socrates_watermark_lsn{name="pageserver.applied_lsn",replica="ps-0"} 64
`
	if got := buf.String(); got != want {
		t.Fatalf("prometheus exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// --- HTTP plane ---

func TestHTTPPlaneEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("engine.commits").Inc()
	ws := NewWatermarkSet()
	rung(ws, WMCommit, "").Publish(10)
	rung(ws, WMHardened, "").Publish(8)
	fr := NewFlightRecorder(16)
	fr.Record(TierLZ, "lz.flush", 8, time.Millisecond, "records=1")
	tr := NewTracer()
	d := newWatchdog(ws, reg, nil, nil, WatchdogConfig{})

	srv := httptest.NewServer(NewHTTPHandler(Plane{
		Metrics: reg, Watermarks: ws, Flight: fr, Tracer: tr, Watchdog: d,
	}))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 ||
		!strings.Contains(body, "socrates_engine_commits 1") ||
		!strings.Contains(body, `socrates_watermark_lsn{name="compute.commit_lsn",replica=""} 10`) {
		t.Fatalf("/metrics = %d:\n%s", code, body)
	}

	code, body := get("/watermarks")
	if code != 200 {
		t.Fatalf("/watermarks = %d", code)
	}
	var report watermarkReport
	if err := json.Unmarshal([]byte(body), &report); err != nil {
		t.Fatalf("/watermarks not JSON: %v", err)
	}
	if len(report.Watermarks) != 2 || report.Lags["lz.harden_lag_lsn"] != 2 {
		t.Fatalf("report = %+v", report)
	}

	if code, body := get("/flight"); code != 200 || !strings.Contains(body, `"lz.flush"`) {
		t.Fatalf("/flight = %d:\n%s", code, body)
	}

	code, body = get("/metrics.json")
	if code != 200 {
		t.Fatalf("/metrics.json = %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics.json not JSON: %v", err)
	}
	if snap.Counters["engine.commits"] != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}

	if code, _ := get("/traces"); code != 200 {
		t.Fatalf("/traces = %d", code)
	}
	if code, _ := get("/traces?id=9999"); code != 404 {
		t.Fatalf("/traces?id=9999 should 404")
	}
	if code, body := get("/"); code != 200 || !strings.Contains(body, "observability plane") {
		t.Fatalf("index = %d:\n%s", code, body)
	}
	if code, _ := get("/nosuch"); code != 404 {
		t.Fatalf("unknown path should 404")
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("pprof cmdline = %d", code)
	}
}

func TestServeAndClose(t *testing.T) {
	h := NewHTTPHandler(Plane{})
	srv, err := Serve("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// rung returns the rung on ws under (name, replica), owning one if there is
// none: the hand-set ladders below publish where a tier would.
func rung(ws *WatermarkSet, name, replica string) *Watermark {
	if w := ws.Watermark(name, replica); w != nil {
		return w
	}
	return ws.Own(name, replica)
}
