package main

import (
	"testing"
	"time"

	"socrates/internal/obs"
)

// The op stream is a pure function of (seed, workload, client).
func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	const n = 2000
	for i := range specs {
		s := &specs[i]
		for client := 0; client < numClients; client++ {
			a, b := streamHash(s, 7, client, n), streamHash(s, 7, client, n)
			if a != b {
				t.Errorf("%s client %d: same seed gave %x and %x", s.name, client, a, b)
			}
			if c := streamHash(s, 8, client, n); c == a {
				t.Errorf("%s client %d: seeds 7 and 8 gave the same stream", s.name, client)
			}
		}
		if streamHash(s, 7, 0, n) == streamHash(s, 7, 1, n) {
			t.Errorf("%s: both clients got the same stream", s.name)
		}
	}
}

// A reported tail is the highest percentile with at least ten samples
// beyond it, and the sample count travels with it.
func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 0.50}, {20, 0.50}, {40, 0.75}, {100, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {10000, 0.999}} {
		if got := supportedTail(tc.n); got != tc.want {
			t.Errorf("supportedTail(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
	l := make(latencies, 200)
	for i := range l {
		l[i] = int64(i+1) * int64(time.Millisecond)
	}
	s := l.summarize()
	if s.n != 200 || s.p50 != 100 || s.tailQ != 0.95 || s.tail != 190 {
		t.Errorf("summarize(1..200 ms) = %+v, want n=200 p50=100 tail=190 at p95", s)
	}
	l = make(latencies, 2000)
	for i := range l {
		l[i] = int64(i+1) * int64(time.Millisecond)
	}
	if s := l.summarize(); s.tailQ != 0.99 || s.tail != 1980 {
		t.Errorf("summarize(1..2000 ms) = %+v, want p99 = 1980", s)
	}
}

// Self time is duration minus the interval the children cover, overlaps
// counted once and children clipped to their parent.
func TestSelfTimeOnAHandBuiltTree(t *testing.T) {
	spans := []span{
		{parent: noSpan, name: spTxn, start: 0, end: 100}, // 0: root
		{parent: 0, name: spPut, start: 10, end: 30},      // 1
		{parent: 0, name: spPut, start: 20, end: 40},      // 2: overlaps 1 by 10
		{parent: 0, name: spCommit, start: 50, end: 120},  // 3: runs past the root
		{parent: 3, name: spGet, start: 60, end: 70},      // 4: grandchild
		{parent: noSpan, name: spTxn, start: 200, end: 260},
	}
	want := []int64{100 - (30 + 50), 20, 20, 70 - 10, 10, 60}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self time %d, want %d", i, got[i], want[i])
		}
	}
	// The same tree, children listed before their start order.
	spans[1], spans[2] = spans[2], spans[1]
	if got := selfTimes(spans); got[0] != want[0] {
		t.Errorf("unordered children: root self time %d, want %d", got[0], want[0])
	}
}

func TestHistWindowSubtractsTheEarlierSnapshot(t *testing.T) {
	reg := obs.NewRegistry().Histogram("h")
	for i := 0; i < 100; i++ {
		reg.Observe(3 * time.Microsecond)
	}
	before := reg.Buckets()
	for i := 0; i < 100; i++ {
		reg.Observe(100 * time.Microsecond)
	}
	w := newHistWindow(before, reg.Buckets())
	if w.n != 100 {
		t.Fatalf("window holds %d samples, want 100", w.n)
	}
	if p50 := w.quantileUS(0.5); p50 < 64 || p50 > 128 {
		t.Errorf("window p50 = %g us, want inside the 64-128 us bucket", p50)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "txn_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "tps", Better: "higher", Bound: 0.08}
	for _, tc := range []struct {
		def        metricDef
		base, cand []float64
		want       string
	}{
		{lower, []float64{1.00, 1.01, 0.99, 1.00}, []float64{1.05, 1.04, 1.06, 1.05}, verdictOK},
		{lower, []float64{1.00, 1.01, 0.99, 1.00}, []float64{1.20, 1.21, 1.19, 1.20}, verdictWorse},
		{lower, []float64{1.00, 1.01, 0.99, 1.00}, []float64{0.50, 0.51, 0.49, 0.50}, verdictOK},
		{higher, []float64{100, 101, 99, 100}, []float64{80, 81, 79, 80}, verdictWorse},
		{higher, []float64{100, 101, 99, 100}, []float64{120, 121, 119, 120}, verdictOK},
		{higher, []float64{100, 140, 60, 100}, []float64{80, 81, 79, 80}, verdictUnresolved},
	} {
		if _, _, _, got := judge(tc.def, tc.base, tc.cand); got != tc.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", tc.def.Name, tc.base, tc.cand, got, tc.want)
		}
	}
}

// Every workload, traced and untraced, at 1% scale: the run must be correct
// and print exactly the metrics BENCHMARK.json declares for its mode.
func TestSmokeEmitsExactlyTheDeclaredMetrics(t *testing.T) {
	m, _, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(m.Workloads), len(specs))
	}
	// The harness must not compute a metric nobody declared: an undeclared
	// number is one no later change is held to.
	declaredNames := map[string]bool{}
	for _, d := range append(append([]metricDef{}, m.EndToEnd...), m.PerLayer...) {
		declaredNames[d.Name] = true
	}
	const scale = 0.01
	probed := &result{Metrics: map[string]metric{}}
	if err := runProbes(probed, scale); err != nil {
		t.Fatal(err)
	}
	for _, wl := range m.Workloads {
		s, err := findSpec(wl.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(runConfig{spec: s.scaled(scale), seed: 1, seconds: 5,
				traced: traced, start: time.Now(), outDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d operations failed", wl.Name, traced, res.Failed, res.Attempted)
			}
			if traced {
				for name, mt := range probed.Metrics {
					res.Metrics[name] = mt
				}
			}
			got, err := declared(m, res)
			if err != nil {
				t.Errorf("%s traced=%v: %v", wl.Name, traced, err)
				continue
			}
			for name := range res.Metrics {
				if !declaredNames[name] {
					t.Errorf("%s traced=%v: measured %q, which BENCHMARK.json does not declare", wl.Name, traced, name)
				}
			}
			if !traced {
				for name, mt := range got {
					if mt.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, must never be 0", wl.Name, name, mt.Value)
					}
				}
			}
		}
	}
}
