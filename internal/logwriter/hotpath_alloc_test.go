package logwriter

import (
	"testing"

	"socrates/internal/testutil"
	"socrates/internal/wal"
)

// TestCommitAppendAllocs is the allocation contract for LogWriter.Append,
// the stage every committed record passes through. Only non-boundary
// records are staged, so nothing is flushable and the measurement sees
// the pure staging cost: after warmup has grown the pending slice, an
// append is LSN assignment plus a slot store — zero allocations.
func TestCommitAppendAllocs(t *testing.T) {
	testutil.SkipIfRace(t)

	w := New(nil, 1)
	defer w.Close()

	rec := func() *wal.Record {
		return &wal.Record{Kind: wal.KindCellPut, Page: 3,
			Key: []byte("k"), Value: []byte("v")}
	}
	// Warmup grows pending well past what the measured runs will add, so
	// amortized slice growth is outside the measurement window.
	for i := 0; i < 50000; i++ {
		w.Append(rec())
	}
	const runs = 1000
	recs := make([]*wal.Record, runs+1)
	for i := range recs {
		recs[i] = rec()
	}
	i := 0
	avg := testing.AllocsPerRun(runs, func() {
		w.Append(recs[i])
		i++
	})
	t.Logf("commit append: %.2f allocs/op (budget 0)", avg)
	if avg > 0 {
		t.Fatalf("commit append: %.2f allocs/op, budget 0", avg)
	}
}
