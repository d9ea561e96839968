package metrics

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCPUMeterChargeAndBusy(t *testing.T) {
	m := NewCPUMeter(4)
	if m.cores != 4 {
		t.Fatalf("cores = %d, want 4", m.cores)
	}
	m.Charge(10 * time.Millisecond)
	m.Charge(5 * time.Millisecond)
	if got := m.Busy(); got != 15*time.Millisecond {
		t.Fatalf("busy = %v, want 15ms", got)
	}
}

func TestCPUMeterIgnoresNegativeCharge(t *testing.T) {
	m := NewCPUMeter(1)
	m.Charge(-time.Second)
	if m.Busy() != 0 {
		t.Fatalf("busy = %v, want 0", m.Busy())
	}
}

func TestCPUMeterUtilizationOver(t *testing.T) {
	m := NewCPUMeter(2)
	m.Charge(time.Second) // 1 core-second over a 1s window on 2 cores = 50%
	got := m.UtilizationOver(time.Second)
	if got < 49.9 || got > 50.1 {
		t.Fatalf("utilization = %v, want 50", got)
	}
}

func TestCPUMeterUtilizationClamped(t *testing.T) {
	m := NewCPUMeter(1)
	m.Charge(time.Hour)
	if got := m.UtilizationOver(time.Second); got != 100 {
		t.Fatalf("utilization = %v, want clamped to 100", got)
	}
	if got := m.UtilizationOver(0); got != 0 {
		t.Fatalf("utilization over zero window = %v, want 0", got)
	}
}

func TestCPUMeterReset(t *testing.T) {
	m := NewCPUMeter(1)
	m.Charge(time.Second)
	m.Reset()
	if m.Busy() != 0 {
		t.Fatalf("busy after reset = %v, want 0", m.Busy())
	}
}

func TestCPUMeterZeroCoresDefaultsToOne(t *testing.T) {
	m := NewCPUMeter(0)
	if m.cores != 1 {
		t.Fatalf("cores = %d, want 1", m.cores)
	}
}

func TestCPUMeterConcurrentCharge(t *testing.T) {
	m := NewCPUMeter(8)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				m.Charge(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := m.Busy(); got != 16*1000*time.Microsecond {
		t.Fatalf("busy = %v, want 16ms", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if s := h.Summarize(); s != (Summary{}) || h.Median() != 0 {
		t.Fatalf("empty histogram should report zeros, got %+v", s)
	}
}

func TestHistogramOrderStatistics(t *testing.T) {
	h := NewHistogram()
	for _, v := range []time.Duration{5, 1, 4, 2, 3} {
		h.Observe(v * time.Millisecond)
	}
	if got := h.Summarize().Min; got != time.Millisecond {
		t.Errorf("min = %v, want 1ms", got)
	}
	if got := h.Summarize().Max; got != 5*time.Millisecond {
		t.Errorf("max = %v, want 5ms", got)
	}
	if got := h.Median(); got != 3*time.Millisecond {
		t.Errorf("median = %v, want 3ms", got)
	}
	if got := h.Summarize().Mean; got != 3*time.Millisecond {
		t.Errorf("mean = %v, want 3ms", got)
	}

	// An even count reports the upper of the two middle samples, in
	// Median and in Summarize alike.
	even := NewHistogram()
	for _, v := range []time.Duration{4, 1, 3, 2} {
		even.Observe(v * time.Millisecond)
	}
	if got := even.Median(); got != 3*time.Millisecond {
		t.Errorf("even median = %v, want the upper middle 3ms", got)
	}
	if got := even.Summarize().Median; got != 3*time.Millisecond {
		t.Errorf("even Summarize median = %v, want 3ms", got)
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i))
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Errorf("q1 = %v, want 100", got)
	}
	if got := h.Quantile(0.99); got < 95 || got > 100 {
		t.Errorf("q99 = %v, want near 100", got)
	}
}

func TestHistogramStdev(t *testing.T) {
	h := NewHistogram()
	// Samples 2 and 4: mean 3, population stdev 1.
	h.Observe(2)
	h.Observe(4)
	if got := h.Summarize().Stdev; got != 1 {
		t.Fatalf("stdev = %v, want 1", got)
	}
}

func TestHistogramStdevSingleSampleIsZero(t *testing.T) {
	h := NewHistogram()
	h.Observe(42)
	if got := h.Summarize().Stdev; got != 0 {
		t.Fatalf("stdev of one sample = %v, want 0", got)
	}
}

func TestHistogramSummarizeMatchesIndividualStats(t *testing.T) {
	h := NewHistogram()
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 257; i++ {
		h.Observe(time.Duration(r.Intn(1_000_000)))
	}
	s := h.Summarize()
	if s.Min != h.Quantile(0) || s.Max != h.Quantile(1) || s.Median != h.Median() || s.Count != 257 {
		t.Fatalf("summary %+v disagrees with individual statistics", s)
	}
}

func TestHistogramSummaryString(t *testing.T) {
	h := NewHistogram()
	h.Observe(1500 * time.Microsecond)
	got := h.Summarize().String()
	want := "n=1 min=1500us median=1500us max=1500us stdev=0us"
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// Property: min <= median <= max and min <= mean <= max for any sample set.
func TestHistogramOrderingProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range raw {
			h.Observe(time.Duration(v))
		}
		s := h.Summarize()
		return s.Min <= s.Median && s.Median <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.Observe(time.Duration(n*1000 + j))
			}
		}(i)
	}
	wg.Wait()
	if h.Summarize().Count != 4000 {
		t.Fatalf("count = %d, want 4000", h.Summarize().Count)
	}
}

func TestHistogramReservoirBoundsMemory(t *testing.T) {
	h := NewHistogram()
	const n = 3 * reservoirCap
	for i := 1; i <= n; i++ {
		h.Observe(time.Duration(i))
	}
	if got := len(h.samples); got > reservoirCap {
		t.Fatalf("retained %d samples, want <= %d", got, reservoirCap)
	}
	if got := h.Summarize().Count; got != n {
		t.Fatalf("count = %d, want %d (true observation count)", got, n)
	}
}

func TestHistogramReservoirExactAggregates(t *testing.T) {
	h := NewHistogram()
	const n = 2*reservoirCap + 123
	for i := 1; i <= n; i++ {
		h.Observe(time.Duration(i))
	}
	// Count/Min/Max/Mean are exact regardless of sampling.
	s := h.Summarize()
	if s.Count != n || s.Min != 1 || s.Max != n || s.Median != h.Median() {
		t.Errorf("summary %+v: want count %d, min 1, max %d, median %v", s, n, n, h.Median())
	}
	wantMean := time.Duration((n + 1) / 2)
	if s.Mean < wantMean-1 || s.Mean > wantMean+1 {
		t.Errorf("mean = %v, want ~%v", s.Mean, wantMean)
	}
}

// TestHistogramExactMaxConcurrent pins the exact-aggregate guarantee under
// contention *past the reservoir cap*: with 8 writers racing Algorithm R
// replacement, Count and Max must still be exact — the true maximum may have
// been displaced from the reservoir, but it must never drift out of the
// running aggregates, and Quantile(1) must report it verbatim (never a
// reservoir-sampled stand-in).
func TestHistogramExactMaxConcurrent(t *testing.T) {
	h := NewHistogram()
	const (
		writers = 8
		each    = reservoirCap/4 + 1037 // 8 writers → 2x the cap, sampling engaged
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				d := time.Duration(j%1000 + 1)
				if w == 3 && j == each/2 {
					d = time.Hour // the one true max, buried mid-stream
				}
				h.Observe(d)
			}
		}(w)
	}
	wg.Wait()
	if got, want := h.Summarize().Count, writers*each; got != want {
		t.Errorf("count = %d, want %d", got, want)
	}
	if got := h.Summarize().Max; got != time.Hour {
		t.Errorf("max = %v, want %v (exact running max, not a reservoir survivor)", got, time.Hour)
	}
	if got := h.Quantile(1); got != time.Hour {
		t.Errorf("Quantile(1) = %v, want %v (must be the exact max, never a sampled quantile)", got, time.Hour)
	}
}

func TestHistogramReservoirQuantilesStayFaithful(t *testing.T) {
	h := NewHistogram()
	const n = 4 * reservoirCap
	for i := 1; i <= n; i++ {
		h.Observe(time.Duration(i))
	}
	// With a 64k uniform reservoir the standard error on a quantile's rank
	// is ~0.2%; 3% tolerance leaves a wide margin for the fixed seed.
	for _, tc := range []struct {
		q    float64
		want time.Duration
	}{{0.5, n / 2}, {0.9, 9 * n / 10}, {0.99, 99 * n / 100}} {
		got := h.Quantile(tc.q)
		tol := time.Duration(n * 3 / 100)
		if got < tc.want-tol || got > tc.want+tol {
			t.Errorf("q%.2f = %v, want %v +/- %v", tc.q, got, tc.want, tol)
		}
	}
	// Extremes remain exact.
	if h.Quantile(0) != 1 || h.Quantile(1) != n {
		t.Errorf("extreme quantiles (%v, %v) not exact", h.Quantile(0), h.Quantile(1))
	}
}
