package compute

import (
	"context"
	"sync"
	"testing"

	"socrates/internal/btree"
	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/rbpex"
	"socrates/internal/wal"
)

// TestLogWriterConcurrentAppendAndWatermarks drives the log pipeline from
// many committers while other goroutines read every exported watermark and
// counter. Under -race this pins the locking discipline of the hot path:
// Append / WaitHarden vs. the leaders, up to eight at once, that advance
// the hardened watermark out of order.
func TestLogWriterConcurrentAppendAndWatermarks(t *testing.T) {
	lz := newLZ(t)
	w := newLZWriter(lz)
	defer w.Close()

	const committers = 8
	const perWorker = 40
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Watermark readers: HardenedEnd / Stats race the leaders.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last page.LSN
			for {
				select {
				case <-stop:
					return
				default:
				}
				h := w.HardenedEnd()
				if h.Before(last) {
					t.Errorf("hardened watermark went backwards: %d -> %d", last, h)
					return
				}
				last = h
				_, _ = w.Stats()
			}
		}()
	}

	var commitWG sync.WaitGroup
	for c := 0; c < committers; c++ {
		commitWG.Add(1)
		go func(c int) {
			defer commitWG.Done()
			for i := 0; i < perWorker; i++ {
				txn := uint64(c*perWorker + i + 1)
				w.Append(&wal.Record{Kind: wal.KindCellPut, Page: page.ID(txn%7 + 1), Key: []byte("k")})
				lsn := w.Append(wal.NewCommit(txn, txn))
				if err := w.WaitHarden(context.Background(), lsn); err != nil {
					t.Errorf("WaitHarden(%d): %v", lsn, err)
					return
				}
			}
		}(c)
	}
	commitWG.Wait()
	close(stop)
	wg.Wait()

	// Every appended record (2 per commit) must be hardened.
	want := page.LSN(1 + 2*committers*perWorker)
	if got := w.HardenedEnd(); got != want {
		t.Fatalf("hardened end = %d, want %d", got, want)
	}
}

// TestRemotePageFileConcurrentEvictTracking races evictions against misses —
// the bookkeeping behind GetPage@LSN's "highest LSN for every page evicted"
// requirement (§4.4). Writers evict through real Puts into a one-page cache
// (the record is written under the cache's lock); readers register misses and
// read the minimum LSN (under the page file's lock, then the cache's). A page's
// minimum LSN never falls, and is the highest LSN it was evicted at.
func TestRemotePageFileConcurrentEvictTracking(t *testing.T) {
	f, err := NewRemotePageFile(rbpex.Config{MemPages: 1}, nil, func() page.LSN { return 7 }, obs.Plane{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const pages, writers, readers, puts = 16, 4, 4, 400
	leaf := func(id page.ID, lsn page.LSN) *page.Page {
		return &page.Page{ID: id, LSN: lsn, Type: page.TypeLeaf, Data: btree.EmptyNodePayload()}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= puts; i++ {
				// LSNs above the floor, distinct across writers.
				if err := f.Write(leaf(page.ID(i%pages+1), page.LSN(8+i*writers+w))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var seen [pages + 1]page.LSN
			for i := 0; i < puts; i++ {
				id := page.ID(i%pages + 1)
				reg, owner := f.register(id)
				if owner {
					f.mu.Lock()
					delete(f.pending, id)
					f.mu.Unlock()
				}
				lsn := f.minLSN(id)
				if reg != nil && lsn.Before(reg.lsn) {
					t.Errorf("page %d: minimum LSN %d after a registration at %d", id, lsn, reg.lsn)
					return
				}
				if lsn.Before(seen[id]) || lsn.Before(7) {
					t.Errorf("page %d: minimum LSN fell from %d to %d", id, seen[id], lsn)
					return
				}
				seen[id] = lsn
			}
		}()
	}
	wg.Wait()
	// Then one at a time, each page at a version newer than any before it:
	// in a one-page cache every put evicts the page before, and the record
	// keeps the highest LSN.
	for id := page.ID(1); id <= pages+1; id++ {
		if err := f.Write(leaf(id, page.LSN(100000+id))); err != nil {
			t.Fatal(err)
		}
	}
	for id := page.ID(1); id <= pages; id++ {
		if got, want := f.minLSN(id), page.LSN(100000+id); got != want {
			t.Fatalf("page %d: minimum LSN %d, want its last eviction %d", id, got, want)
		}
	}
	if got := f.minLSN(page.ID(999)); got != 7 {
		t.Fatalf("unknown page floor = %d, want 7", got)
	}
}
