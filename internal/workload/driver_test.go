package workload

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"socrates/internal/metrics"
)

// scriptedRunner returns canned outcomes in sequence, then repeats the last.
type scriptedRunner struct {
	outcomes []Outcome
	errs     []error
	i        int
	calls    *atomic.Int64
}

func (r *scriptedRunner) Run() (Outcome, error) {
	if r.calls != nil {
		r.calls.Add(1)
	}
	idx := r.i
	if idx >= len(r.outcomes) {
		idx = len(r.outcomes) - 1
	}
	r.i++
	var err error
	if idx < len(r.errs) {
		err = r.errs[idx]
	}
	time.Sleep(time.Millisecond) // keep loop counts bounded
	return r.outcomes[idx], err
}

func TestDriveCounts(t *testing.T) {
	var calls atomic.Int64
	m := Drive(func(id int) Runner {
		return &scriptedRunner{
			outcomes: []Outcome{
				{Kind: Read, Latency: time.Millisecond},
				{Kind: Write, Latency: 2 * time.Millisecond},
				{Kind: Write, Aborted: true},
				{Kind: Read},
			},
			errs:  []error{nil, nil, nil, errors.New("boom")},
			calls: &calls,
		}
	}, Config{Threads: 2, Duration: 60 * time.Millisecond})

	if m.ReadTxns == 0 || m.WriteTxns == 0 {
		t.Fatalf("reads=%d writes=%d", m.ReadTxns, m.WriteTxns)
	}
	if m.Aborts == 0 || m.Errors == 0 {
		t.Fatalf("aborts=%d errors=%d", m.Aborts, m.Errors)
	}
	if m.Elapsed < 50*time.Millisecond {
		t.Fatalf("elapsed = %v", m.Elapsed)
	}
	if m.WriteLatency.Summarize().Count == 0 {
		t.Fatal("write latencies not recorded")
	}
	if calls.Load() == 0 {
		t.Fatal("runner never called")
	}
}

// flakyRunner aborts every other attempt — the shape that exposed the
// budget-draw-vs-commit gap in work-bounded drives.
type flakyRunner struct {
	n     int
	calls *atomic.Int64
}

func (r *flakyRunner) Run() (Outcome, error) {
	if r.calls != nil {
		r.calls.Add(1)
	}
	r.n++
	return Outcome{Kind: Write, Aborted: r.n%2 == 0, Latency: time.Microsecond}, nil
}

// TestDriveFixedWork pins the deterministic-work-accounting contract: a
// Count-bounded drive completes exactly Count successful transactions —
// aborted attempts retry their budget unit instead of consuming it — no
// matter how threads interleave.
func TestDriveFixedWork(t *testing.T) {
	const work = 500
	for _, threads := range []int{1, 4, 16} {
		var calls atomic.Int64
		m := Drive(func(id int) Runner {
			return &flakyRunner{calls: &calls}
		}, Config{Threads: threads, Count: work, Duration: 30 * time.Second})
		if got := m.ReadTxns + m.WriteTxns; got != work {
			t.Fatalf("threads=%d: %d committed transactions, want exactly %d", threads, got, work)
		}
		if m.Aborts == 0 {
			t.Fatalf("threads=%d: flaky runner never aborted; retry path untested", threads)
		}
		if calls.Load() != work+m.Aborts {
			t.Fatalf("threads=%d: %d attempts != %d commits + %d aborts",
				threads, calls.Load(), work, m.Aborts)
		}
	}
}

// TestDriveFixedWorkSafetyBound: a drive that can never commit must still
// end at the Duration bound instead of spinning forever on its budget.
func TestDriveFixedWorkSafetyBound(t *testing.T) {
	start := time.Now()
	m := Drive(func(id int) Runner {
		return &scriptedRunner{
			outcomes: []Outcome{{Kind: Write, Aborted: true}},
		}
	}, Config{Threads: 2, Count: 1000, Duration: 50 * time.Millisecond})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("wedged drive ran %v past its safety bound", elapsed)
	}
	if got := m.ReadTxns + m.WriteTxns; got != 0 {
		t.Fatalf("%d transactions committed by an always-aborting runner", got)
	}
}

func TestDriveTPSMath(t *testing.T) {
	m := Metrics{ReadTxns: 300, WriteTxns: 100, Elapsed: 2 * time.Second}
	if m.TotalTPS() != 200 || m.ReadTPS() != 150 || m.WriteTPS() != 50 {
		t.Fatalf("tps = %v %v %v", m.TotalTPS(), m.ReadTPS(), m.WriteTPS())
	}
	empty := Metrics{}
	if empty.TotalTPS() != 0 || empty.ReadTPS() != 0 || empty.WriteTPS() != 0 {
		t.Fatal("zero-window TPS should be 0")
	}
}

func TestDriveWarmupNotMeasured(t *testing.T) {
	var calls atomic.Int64
	m := Drive(func(id int) Runner {
		return &scriptedRunner{
			outcomes: []Outcome{{Kind: Read}},
			calls:    &calls,
		}
	}, Config{Threads: 1, Duration: 30 * time.Millisecond, WarmUp: 30 * time.Millisecond})
	// The runner ran during warm-up too, but only the window is counted.
	if m.ReadTxns >= calls.Load() {
		t.Fatalf("measured %d of %d calls; warm-up leaked into metrics",
			m.ReadTxns, calls.Load())
	}
}

func TestDriveMeterWindow(t *testing.T) {
	meter := metrics.NewCPUMeter(1)
	meter.Charge(time.Hour) // pre-drive garbage must be reset
	m := Drive(func(id int) Runner {
		return &scriptedRunner{outcomes: []Outcome{{Kind: Read}}}
	}, Config{Threads: 1, Duration: 30 * time.Millisecond, Meter: meter})
	if m.CPUPercent > 50 {
		t.Fatalf("CPU%% = %.1f; meter was not reset at window start", m.CPUPercent)
	}
}

func TestDriveDefaultsToOneThread(t *testing.T) {
	m := Drive(func(id int) Runner {
		return &scriptedRunner{outcomes: []Outcome{{Kind: Read}}}
	}, Config{Duration: 20 * time.Millisecond})
	if m.ReadTxns == 0 {
		t.Fatal("no transactions with default threads")
	}
}
