package obs

import (
	"encoding/json"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a process-wide table of named instruments. Names are
// dot-separated and tier-prefixed by convention
// ("pageserver.getpage.latency", "xlog.feed.blocks"), so snapshots can
// be grouped per tier. All methods are nil-safe and instruments are
// created on first use.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named latency histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 level.
type Gauge struct{ v atomic.Int64 }

// Set stores the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value reads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram records durations into bounded exponential buckets:
// bucket i covers [2^i µs, 2^(i+1) µs), i in [0, histBuckets), with an
// underflow bucket for <1µs. Memory is O(1) regardless of sample count,
// unlike the experiments' sample-keeping histogram (internal/metrics), which
// holds raw samples for exact order statistics.
const histBuckets = 32 // 1µs .. ~4295s

type Histogram struct {
	mu      sync.Mutex
	buckets [histBuckets + 1]uint64 // [0] = underflow (<1µs)
	count   uint64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
}

func newHistogram() *Histogram { return &Histogram{} }

func bucketFor(d time.Duration) int {
	us := d.Microseconds()
	if us < 1 {
		return 0
	}
	b := 1 + int(math.Floor(math.Log2(float64(us))))
	if b > histBuckets {
		b = histBuckets
	}
	return b
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.mu.Lock()
	h.buckets[bucketFor(d)]++
	h.count++
	h.sum += d
	if h.count == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.mu.Unlock()
}

// ObserveCount records a size — pages in a sweep, records in a batch — in
// the same power-of-two buckets, one unit to the microsecond: a summary's
// P50 of 300µs reads as 300, and the Prometheus family, named _seconds like
// every histogram here, carries it scaled by 1e-6.
func (h *Histogram) ObserveCount(n int) { h.Observe(time.Duration(n) * time.Microsecond) }

// Since is shorthand for Observe(time.Since(start)).
func (h *Histogram) Since(start time.Time) { h.Observe(time.Since(start)) }

// HistSummary is an exported view of a histogram.
type HistSummary struct {
	Count uint64        `json:"count"`
	Sum   time.Duration `json:"sum_ns"`
	Min   time.Duration `json:"min_ns"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"`
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`
	Max   time.Duration `json:"max_ns"`
}

func bucketUpper(i int) time.Duration {
	if i == 0 {
		return time.Microsecond
	}
	return time.Duration(1<<uint(i)) * time.Microsecond
}

// Summary exports count/sum/min/max and bucket-interpolated percentiles.
func (h *Histogram) Summary() HistSummary {
	if h == nil {
		return HistSummary{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistSummary{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	if h.count == 0 {
		return s
	}
	s.Mean = h.sum / time.Duration(h.count)
	pct := func(q float64) time.Duration {
		target := uint64(math.Ceil(q * float64(h.count)))
		if target == 0 {
			target = 1
		}
		var seen uint64
		for i, n := range h.buckets {
			seen += n
			if seen >= target {
				up := bucketUpper(i)
				if up > h.max {
					up = h.max
				}
				return up
			}
		}
		return h.max
	}
	s.P50, s.P95, s.P99 = pct(0.50), pct(0.95), pct(0.99)
	return s
}

// HistBuckets is a cumulative-bucket export of a histogram: Uppers[i] is
// the inclusive upper bound of bucket i and Cumulative[i] counts every
// sample at or below it — exactly the shape a Prometheus histogram's
// `le`-labeled series needs.
type HistBuckets struct {
	Uppers     []time.Duration
	Cumulative []uint64
	Count      uint64
	Sum        time.Duration
}

// Buckets exports the histogram's cumulative buckets, skipping trailing
// empty buckets (the +Inf bucket is implied by Count).
func (h *Histogram) Buckets() HistBuckets {
	if h == nil {
		return HistBuckets{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	// Find the last occupied bucket so exports stay compact.
	last := -1
	for i, n := range h.buckets {
		if n > 0 {
			last = i
		}
	}
	out := HistBuckets{Count: h.count, Sum: h.sum}
	var cum uint64
	for i := 0; i <= last; i++ {
		cum += h.buckets[i]
		out.Uppers = append(out.Uppers, bucketUpper(i))
		out.Cumulative = append(out.Cumulative, cum)
	}
	return out
}

// Snapshot is a point-in-time export of every instrument in a registry.
type Snapshot struct {
	Taken      time.Time              `json:"taken"`
	Counters   map[string]uint64      `json:"counters,omitempty"`
	Gauges     map[string]int64       `json:"gauges,omitempty"`
	Histograms map[string]HistSummary `json:"histograms,omitempty"`
}

// Snapshot exports all instruments.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Taken:      time.Now(),
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistSummary{},
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counts {
		snap.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		snap.Histograms[name] = h.Summary()
	}
	return snap
}

// JSON renders the snapshot as indented JSON.
func (s Snapshot) JSON() string {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return "{}"
	}
	return string(b)
}
