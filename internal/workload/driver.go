// Package workload provides the generic multi-threaded benchmark driver
// shared by the CDB and TPC-E workload generators: N client threads issue
// transactions against a database for a fixed window and the driver
// aggregates the numbers the paper's tables report — read/write/total TPS,
// commit latency statistics, and abort counts.
package workload

import (
	"sync"
	"sync/atomic"
	"time"

	"socrates/internal/metrics"
)

// kind classifies one executed transaction.
type kind int

// Transaction kinds.
const (
	Read kind = iota
	Write
)

// Outcome describes one executed transaction.
type Outcome struct {
	Kind    kind
	Latency time.Duration
	Aborted bool // a write conflict aborted it; any other error is a failure
}

// Runner issues one transaction per call. Each driver thread owns one
// Runner, so implementations need not be safe for concurrent use.
type Runner interface {
	Run() (Outcome, error)
}

// Config tunes a drive.
type Config struct {
	// Threads is the client thread count (the paper's "client threads").
	Threads int
	// Duration is the measurement window.
	Duration time.Duration
	// Count, if nonzero, bounds the measured phase by work instead of
	// wall clock: the threads collectively execute exactly Count
	// transactions and stop. This is the deterministic-work-accounting
	// mode — on a loaded machine the drive takes longer but does the
	// same work, so counters derived from it (commits, log bytes) do not
	// race the scheduler the way rates over a fixed window do. When both
	// Count and Duration are set, Duration is a safety bound.
	Count int64
	// WarmUp runs the workload without measuring first (cache warming).
	WarmUp time.Duration
	// Meter, if set, is reset at the start of the measurement window so
	// CPU% covers exactly the measured interval.
	Meter *metrics.CPUMeter
}

// Metrics aggregates a drive's results.
type Metrics struct {
	ReadTxns  int64
	WriteTxns int64
	Failed    int64 // attempts that returned an error and did not abort
	Elapsed   time.Duration
	// WriteLatency collects commit latencies of write transactions —
	// the paper's Table 6 statistics.
	WriteLatency *metrics.Histogram
	// CPUPercent is the meter utilization over the window (0 if no meter).
	CPUPercent float64
}

// TotalTPS reports total committed transactions per second.
func (m Metrics) TotalTPS() float64 { return m.perSecond(m.ReadTxns + m.WriteTxns) }

// ReadTPS reports read transactions per second.
func (m Metrics) ReadTPS() float64 { return m.perSecond(m.ReadTxns) }

// WriteTPS reports write transactions per second.
func (m Metrics) WriteTPS() float64 { return m.perSecond(m.WriteTxns) }

// perSecond is n over the window, 0 for an empty window.
func (m Metrics) perSecond(n int64) float64 {
	if m.Elapsed <= 0 {
		return 0
	}
	return float64(n) / m.Elapsed.Seconds()
}

// Drive runs cfg.Threads runners until the window closes and aggregates
// results. newRunner is called once per thread with the thread index.
func Drive(newRunner func(id int) Runner, cfg Config) Metrics {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	runners := make([]Runner, cfg.Threads)
	for i := range runners {
		runners[i] = newRunner(i)
	}

	if cfg.WarmUp > 0 {
		runPhase(runners, cfg.WarmUp, 0, nil)
	}
	if cfg.Meter != nil {
		cfg.Meter.Reset()
	}
	m := &Metrics{WriteLatency: metrics.NewHistogram()}
	start := time.Now()
	runPhase(runners, cfg.Duration, cfg.Count, m)
	m.Elapsed = time.Since(start)
	if cfg.Meter != nil {
		m.CPUPercent = cfg.Meter.UtilizationOver(m.Elapsed)
	}
	return *m
}

// runPhase executes all runners until the deadline or until the shared
// work budget is spent; if m is non-nil it accumulates outcomes (locked;
// the histogram locks internally).
func runPhase(runners []Runner, d time.Duration, count int64, m *Metrics) {
	if d <= 0 && count <= 0 {
		return
	}
	deadline := time.Time{}
	if d > 0 {
		deadline = time.Now().Add(d)
	}
	var budget atomic.Int64
	budget.Store(count)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for _, r := range runners {
		wg.Add(1)
		go func(r Runner) {
			defer wg.Done()
			for {
				// In work-bounded mode a thread draws one unit from the
				// shared budget and owns it until a transaction commits
				// (aborted and errored attempts retry the same unit), so
				// the phase completes exactly count successful
				// transactions. The Duration safety bound still ends a
				// wedged drive.
				if count > 0 && budget.Add(-1) < 0 {
					return
				}
				for {
					if !deadline.IsZero() && !time.Now().Before(deadline) {
						return
					}
					out, err := r.Run()
					ok := err == nil && !out.Aborted
					if m != nil && !out.Aborted {
						mu.Lock()
						switch {
						case err != nil:
							m.Failed++
						case out.Kind == Write:
							m.WriteTxns++
						default:
							m.ReadTxns++
						}
						mu.Unlock()
						if ok && out.Kind == Write {
							m.WriteLatency.Observe(out.Latency)
						}
					}
					if ok || count <= 0 {
						break
					}
				}
			}
		}(r)
	}
	wg.Wait()
}
