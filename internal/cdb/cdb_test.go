package cdb

import (
	"math/rand"
	"testing"
	"time"

	"socrates/internal/engine"
	"socrates/internal/fcb"
	"socrates/internal/metrics"
	"socrates/internal/workload"
)

func newEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e, err := engine.Create(engine.Config{
		Pages: fcb.NewMemFile(),
		Log:   engine.NewMemPipeline(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSetupCreatesSixTables(t *testing.T) {
	e := newEngine(t)
	w := New(200)
	if err := w.Setup(e); err != nil {
		t.Fatal(err)
	}
	names, err := e.Tables()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 6 {
		t.Fatalf("tables = %v", names)
	}
	// Scaled table actually holds SF rows.
	count := 0
	_ = e.BeginRO().Scan(TableScaledLean, nil, nil, func(k, v []byte) bool {
		count++
		return true
	})
	if count != 200 {
		t.Fatalf("lean rows = %d", count)
	}
}

func TestMixDistribution(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	counts := map[TxnType]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[DefaultMix.pick(r)]++
	}
	for ty := TxnType(0); ty < numTxnTypes; ty++ {
		want := DefaultMix.Weights[ty]
		got := 100 * counts[ty] / n
		if got < want-3 || got > want+3 {
			t.Errorf("%v: %d%%, want ~%d%%", ty, got, want)
		}
	}
	// UpdateLiteMix draws only update-lite.
	for i := 0; i < 100; i++ {
		if got := UpdateLiteMix.pick(r); got != UpdateLite {
			t.Fatalf("UpdateLiteMix drew %v", got)
		}
	}
}

func TestReadWriteClassification(t *testing.T) {
	writes := map[TxnType]bool{UpdateLite: true, UpdateHeavy: true, BulkInsert: true}
	for ty := TxnType(0); ty < numTxnTypes; ty++ {
		if ty.IsWrite() != writes[ty] {
			t.Errorf("%v IsWrite = %v", ty, ty.IsWrite())
		}
	}
}

func TestAllTxnTypesExecute(t *testing.T) {
	e := newEngine(t)
	w := New(300)
	if err := w.Setup(e); err != nil {
		t.Fatal(err)
	}
	c := w.NewClient(1)
	meter := metrics.NewCPUMeter(1)
	seen := map[TxnType]bool{}
	for i := 0; i < 300 && len(seen) < int(numTxnTypes); i++ {
		stats, err := c.RunType(e, c.Pick(DefaultMix), meter)
		if err != nil {
			t.Fatalf("%v: %v", stats.Type, err)
		}
		seen[stats.Type] = true
	}
	if len(seen) != int(numTxnTypes) {
		t.Fatalf("only %d txn types executed: %v", len(seen), seen)
	}
	if meter.Busy() == 0 {
		t.Fatal("no CPU charged")
	}
}

func TestZipfSkewIsHot(t *testing.T) {
	w := New(10000)
	c := w.NewClient(1)
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if c.hotRow() < 1000 { // hottest 10% of rows
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.5 {
		t.Fatalf("hottest 10%% drew only %.0f%% of accesses; skew too weak", frac*100)
	}
}

func TestDriveCollectsMetrics(t *testing.T) {
	e := newEngine(t)
	w := New(200)
	if err := w.Setup(e); err != nil {
		t.Fatal(err)
	}
	meter := metrics.NewCPUMeter(4)
	m := workload.Drive(func(id int) workload.Runner {
		return Runner{C: w.NewClient(id), E: e, Mix: DefaultMix, Meter: meter}
	}, workload.Config{
		Threads:  4,
		Duration: 150 * time.Millisecond,
		WarmUp:   20 * time.Millisecond,
		Meter:    meter,
	})
	if m.ReadTxns == 0 || m.WriteTxns == 0 {
		t.Fatalf("reads=%d writes=%d", m.ReadTxns, m.WriteTxns)
	}
	if m.TotalTPS() <= 0 || m.ReadTPS() <= 0 || m.WriteTPS() <= 0 {
		t.Fatal("zero TPS reported")
	}
	// Default mix is read-dominant, roughly 3:1.
	ratio := float64(m.ReadTxns) / float64(m.WriteTxns)
	if ratio < 1.5 || ratio > 6 {
		t.Fatalf("read:write = %.1f, want ~3", ratio)
	}
	if m.WriteLatency.Summarize().Count == 0 {
		t.Fatal("no write latencies recorded")
	}
	if m.CPUPercent <= 0 {
		t.Fatal("no CPU utilization reported")
	}
}

func TestDriveWriteConflictsCountAsAborts(t *testing.T) {
	e := newEngine(t)
	w := New(4) // tiny table: heavy write contention
	if err := w.Setup(e); err != nil {
		t.Fatal(err)
	}
	m := workload.Drive(func(id int) workload.Runner {
		return Runner{C: w.NewClient(id), E: e, Mix: UpdateLiteMix}
	}, workload.Config{Threads: 8, Duration: 100 * time.Millisecond})
	if m.Aborts == 0 {
		t.Skip("no conflicts this run (timing dependent)")
	}
	if m.WriteTxns == 0 {
		t.Fatal("no commits despite running")
	}
}
