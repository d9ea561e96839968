// Package metrics holds the two measurement primitives the experiments need
// and the obs registry does not provide: a simulated CPU meter (so experiments
// report the paper's CPU% columns deterministically) and a sample-keeping
// latency Histogram with the exact min/median/max/stdev order statistics the
// paper's Table 6 reports. Named, always-on instruments (counters, gauges,
// bucketed histograms) are obs.Counter/Gauge/Histogram; a tier's private
// event counts are plain atomic.Int64 fields.
//
// The CPU meter models a node with a fixed number of cores. Code paths charge
// the meter with the simulated CPU cost of the work they represent (for
// example, an XIO REST call charges more CPU than a DirectDrive call, which
// is the root cause of the paper's Table 7 result). Utilization is the
// charged busy time divided by wall-clock time times core count.
package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// CPUMeter accounts simulated CPU time for a node with a fixed core count.
// It is safe for concurrent use.
type CPUMeter struct {
	cores   int
	busyNS  atomic.Int64
	started atomic.Int64 // wall-clock start, unix nanos
}

// NewCPUMeter returns a meter for a node with the given number of cores.
func NewCPUMeter(cores int) *CPUMeter {
	if cores <= 0 {
		cores = 1
	}
	m := &CPUMeter{cores: cores}
	m.started.Store(time.Now().UnixNano())
	return m
}

// Charge adds d of simulated CPU busy time.
func (m *CPUMeter) Charge(d time.Duration) {
	if d > 0 {
		m.busyNS.Add(int64(d))
	}
}

// Busy reports the total charged busy time.
func (m *CPUMeter) Busy() time.Duration { return time.Duration(m.busyNS.Load()) }

// Reset zeroes the busy time and restarts the wall clock.
func (m *CPUMeter) Reset() {
	m.busyNS.Store(0)
	m.started.Store(time.Now().UnixNano())
}

// Utilization reports simulated CPU utilization in percent since the last
// Reset, clamped to [0, 100]. A node that charged 1 core-second of work over
// a 1 s window on a 4-core meter reports 25%.
func (m *CPUMeter) Utilization() float64 {
	wall := time.Since(time.Unix(0, m.started.Load()))
	if wall <= 0 {
		return 0
	}
	u := 100 * float64(m.busyNS.Load()) / (float64(wall) * float64(m.cores))
	if u < 0 {
		return 0
	}
	if u > 100 {
		return 100
	}
	return u
}

// UtilizationOver reports utilization assuming the given wall-clock window
// instead of the meter's own clock. Useful when the caller controls the
// measurement window precisely.
func (m *CPUMeter) UtilizationOver(wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	u := 100 * float64(m.busyNS.Load()) / (float64(wall) * float64(m.cores))
	if u > 100 {
		u = 100
	}
	return u
}

// reservoirCap bounds how many raw samples a Histogram retains. Below the
// cap every sample is kept and order statistics are exact. At or above the
// cap, new samples displace stored ones via Vitter's Algorithm R, so the
// retained set stays a uniform random sample of everything observed and
// quantiles remain statistically faithful while memory stays bounded: a
// workload.Drive window of any length holds at most this many samples.
const reservoirCap = 1 << 16

// Histogram collects duration samples and reports order statistics.
//
// Summarize's Count, Min, Max and Stdev are always exact: they are
// maintained as running aggregates over every observation. Median and
// quantile are exact until reservoirCap samples have been observed, after
// which they are computed over a uniform reservoir of reservoirCap samples
// (Algorithm R).
// Experiment windows are far shorter than the cap, so the paper's tables are
// unaffected.
type Histogram struct {
	mu      sync.Mutex
	samples []time.Duration
	sorted  bool

	// Exact running aggregates over all observations (not just the
	// reservoir).
	total      int64
	sum, sumSq float64
	min, max   time.Duration

	// rng drives reservoir replacement; lazily seeded so zero-value and
	// NewHistogram histograms both work.
	rng *rand.Rand
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	h.total++
	v := float64(d)
	h.sum += v
	h.sumSq += v * v
	if h.total == 1 || d < h.min {
		h.min = d
	}
	if h.total == 1 || d > h.max {
		h.max = d
	}
	if len(h.samples) < reservoirCap {
		h.samples = append(h.samples, d)
		h.sorted = false
	} else {
		// Algorithm R: the i-th observation (1-based) replaces a random
		// reservoir slot with probability cap/i, keeping the reservoir a
		// uniform sample of all i observations.
		if h.rng == nil {
			h.rng = rand.New(rand.NewSource(0x9e3779b9))
		}
		if j := h.rng.Int63n(h.total); j < reservoirCap {
			h.samples[j] = d
			h.sorted = false
		}
	}
	h.mu.Unlock()
}

func (h *Histogram) sortLocked() {
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
}

// Median reports the middle sample: the upper of the two middle samples
// for even counts, the same order statistic Summarize reports.
func (h *Histogram) Median() time.Duration { return h.quantile(0.5) }

// quantile reports the q-th quantile (0 <= q <= 1) by nearest-rank over the
// retained samples — exact below reservoirCap observations, estimated from
// the uniform reservoir above it. The extremes (q<=0, q>=1) are always
// exact.
func (h *Histogram) quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.samples)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	h.sortLocked()
	idx := int(q * float64(n))
	if idx >= n {
		idx = n - 1
	}
	return h.samples[idx]
}

// stdevLocked reports the exact population standard deviation from the
// running moments; caller holds h.mu.
func (h *Histogram) stdevLocked() time.Duration {
	if h.total < 2 {
		return 0
	}
	mean := h.sum / float64(h.total)
	variance := h.sumSq/float64(h.total) - mean*mean
	if variance < 0 { // float cancellation guard
		variance = 0
	}
	return time.Duration(math.Sqrt(variance))
}

// Summary holds the statistics the paper's latency tables report.
type Summary struct {
	Count  int
	Min    time.Duration
	Median time.Duration
	Max    time.Duration
	Stdev  time.Duration
}

// Summarize reports all statistics at once. Count, Min, Max and Stdev
// come from the exact running aggregates; Median comes from the
// retained samples (exact below reservoirCap).
func (h *Histogram) Summarize() Summary {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.samples)
	if n == 0 {
		return Summary{}
	}
	h.sortLocked()
	return Summary{
		Count:  int(h.total),
		Min:    h.min,
		Median: h.samples[n/2],
		Max:    h.max,
		Stdev:  h.stdevLocked(),
	}
}

// String formats the summary in microseconds, mirroring the paper's Table 6.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%dus median=%dus max=%dus stdev=%dus",
		s.Count, s.Min.Microseconds(), s.Median.Microseconds(),
		s.Max.Microseconds(), s.Stdev.Microseconds())
}
