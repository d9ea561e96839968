package tpce

import (
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

func TestSetupLoadsSchema(t *testing.T) {
	e := newEngine(t)
	w := New(50)
	if err := w.Setup(e); err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []struct {
		name string
		want int
	}{
		{tableCustomers, 50},
		{tableAccounts, 100},
		{tableTrades, 400},
	} {
		count := 0
		_ = e.BeginRO().Scan(tbl.name, nil, nil, func(k, v []byte) bool {
			count++
			return true
		})
		if count != tbl.want {
			t.Errorf("%s rows = %d, want %d", tbl.name, count, tbl.want)
		}
	}
}

func TestAllTxnKindsExecute(t *testing.T) {
	e := newEngine(t)
	w := New(100)
	if err := w.Setup(e); err != nil {
		t.Fatal(err)
	}
	meter := metrics.NewCPUMeter(1)
	c := w.NewClient(e, meter, 1)
	reads, writes := 0, 0
	for i := 0; i < 200; i++ {
		out, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		if out.Kind == workload.Write {
			writes++
		} else {
			reads++
		}
	}
	if reads == 0 || writes == 0 {
		t.Fatalf("reads=%d writes=%d", reads, writes)
	}
	// TPC-E is read-dominant.
	if reads < writes*2 {
		t.Fatalf("mix not read-dominant: %d reads, %d writes", reads, writes)
	}
	if meter.Busy() == 0 {
		t.Fatal("no CPU charged")
	}
}

func TestTradeOrderPersists(t *testing.T) {
	e := newEngine(t)
	w := New(20)
	if err := w.Setup(e); err != nil {
		t.Fatal(err)
	}
	c := w.NewClient(e, nil, 3)
	if err := c.tradeOrder(); err != nil {
		t.Fatal(err)
	}
	count := 0
	_ = e.BeginRO().Scan(tableTrades, nil, nil, func(k, v []byte) bool {
		count++
		return true
	})
	if count != 20*2*4+1 {
		t.Fatalf("trades = %d", count)
	}
}

func TestSkewIsStrongerThanCDB(t *testing.T) {
	w := New(10000)
	c := w.NewClient(nil, nil, 1)
	hot := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if c.hotCustomer() < 100 { // hottest 1%
			hot++
		}
	}
	if frac := float64(hot) / n; frac < 0.4 {
		t.Fatalf("hottest 1%% drew %.0f%%; TPC-E skew should be strong", frac*100)
	}
}

func TestDriveWithGenericHarness(t *testing.T) {
	e := newEngine(t)
	w := New(100)
	if err := w.Setup(e); err != nil {
		t.Fatal(err)
	}
	m := workload.Drive(func(id int) workload.Runner {
		return w.NewClient(e, nil, id)
	}, workload.Config{Threads: 4, Duration: 100 * time.Millisecond})
	if m.ReadTxns == 0 {
		t.Fatal("no reads executed")
	}
}
