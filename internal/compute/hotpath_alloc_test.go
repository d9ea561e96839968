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
// and allocates nothing. The first record of a pull for a cached page copies
// it into the cursor's set — the spliced payload and the new page around it
// — and the pull's install puts the copy in the cache; every later record
// of the pull edits that copy in place.
func TestSecondaryApplyAllocs(t *testing.T) {
	testutil.SkipIfRace(t)

	f := newRemoteFile(t, &pageServerStub{lsn: 1}, 1)
	redo := recovery.NewReplayer(&recovery.Cached{Pending: f, Cache: f.Cache()}, 1)
	const cached, uncached = 5, 6
	if err := redo.ApplyRecord(&wal.Record{LSN: 2, Kind: wal.KindPageImage,
		Page: cached, PageType: page.TypeLeaf, Value: btree.EmptyNodePayload()}, 0); err != nil {
		t.Fatalf("admitting the cached page: %v", err)
	}
	if err := redo.PageSet().Install(); err != nil || !f.Cache().Contains(cached) {
		t.Fatalf("admitting the cached page: %v", err)
	}

	const runs = 200
	lsn := page.LSN(2)
	for _, c := range []struct {
		name    string
		id      page.ID
		install bool // each run is a pull of one record, installed
		budget  float64
	}{
		{"ignored", uncached, false, 0},
		{"cached, first record of a pull", cached, true, 2},
		{"cached, later record of a pull", cached, false, 0},
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
			if c.install {
				if err := redo.PageSet().Install(); err != nil {
					t.Fatal(err)
				}
			}
			i++
		})
		t.Logf("secondary apply, %s: %.1f allocs/op (budget %.0f)", c.name, avg, c.budget)
		if avg > c.budget {
			t.Errorf("secondary apply, %s: %.1f allocs/op, budget %.0f", c.name, avg, c.budget)
		}
	}
	// Every run went the way its case says: the cached page took each record
	// once the last pull was installed, the other page was never admitted.
	if err := redo.PageSet().Install(); err != nil {
		t.Fatal(err)
	}
	if got, _ := cachedLSN(f.Cache(), cached); got != lsn || f.Cache().Contains(uncached) {
		t.Fatalf("cached page at LSN %d (want %d), uncached page admitted %v", got, lsn, f.Cache().Contains(uncached))
	}
}
