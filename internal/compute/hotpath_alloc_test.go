package compute

import (
	"testing"

	"socrates/internal/btree"
	"socrates/internal/page"
	"socrates/internal/recovery"
	"socrates/internal/testutil"
	"socrates/internal/wal"
)

// TestSecondaryApplyAllocs is the allocation contract for a secondary's
// apply feed: the redo cursor under the recovery.Cached policy, run once per
// record. A record for a page the secondary does not cache is ignored (§4.5)
// and allocates nothing; one for a cached page costs btree redo — the
// spliced payload and the new page around it — and nothing of its own.
func TestSecondaryApplyAllocs(t *testing.T) {
	testutil.SkipIfRace(t)

	f := newRemoteFile(t, &pageServerStub{lsn: 1}, 1)
	redo := recovery.NewReplayer(&recovery.Cached{Pending: f, Cache: f.Cache()}, 1, nil)
	const cached, uncached = 5, 6
	if err := redo.ApplyRecord(&wal.Record{LSN: 2, Kind: wal.KindPageImage,
		Page: cached, PageType: page.TypeLeaf, Value: btree.EmptyNodePayload()}, 0); err != nil || !f.Cache().Contains(cached) {
		t.Fatalf("admitting the cached page: %v", err)
	}

	const runs = 200
	lsn := page.LSN(2)
	for _, c := range []struct {
		name   string
		id     page.ID
		budget float64
	}{
		{"ignored", uncached, 0},
		{"cached", cached, 2},
	} {
		recs := make([]*wal.Record, runs+1)
		for i := range recs {
			lsn = lsn.Next()
			recs[i] = &wal.Record{LSN: lsn, Kind: wal.KindCellPut, Page: c.id,
				Key: []byte("k"), Value: []byte("v")}
		}
		i := 0
		avg := testing.AllocsPerRun(runs, func() {
			if err := redo.ApplyRecord(recs[i], 0); err != nil {
				t.Fatal(err)
			}
			i++
		})
		t.Logf("secondary apply, %s page: %.1f allocs/op (budget %.0f)", c.name, avg, c.budget)
		if avg > c.budget {
			t.Errorf("secondary apply, %s page: %.1f allocs/op, budget %.0f", c.name, avg, c.budget)
		}
	}
	// Every run went the way its case says: the cached page took each record,
	// the other page was never admitted.
	if got, _ := f.Cache().GetLSN(cached); got != lsn || f.Cache().Contains(uncached) {
		t.Fatalf("cached page at LSN %d (want %d), uncached page admitted %v", got, lsn, f.Cache().Contains(uncached))
	}
}
