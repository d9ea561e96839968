package compute

import (
	"context"
	"sync"
	"testing"

	"socrates/internal/page"
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
	want := page.LSN(1).Add(uint64(2 * committers * perWorker))
	if got := w.HardenedEnd(); got != want {
		t.Fatalf("hardened end = %d, want %d", got, want)
	}
}

// TestRemotePageFileConcurrentEvictTracking races eviction notes against
// minLSN lookups — the bookkeeping behind GetPage@LSN's "highest LSN for
// every page evicted" requirement (§4.4).
func TestRemotePageFileConcurrentEvictTracking(t *testing.T) {
	f := &RemotePageFile{
		evicted: make(map[page.ID]page.LSN),
		pending: make(map[page.ID]*registration),
		floor:   func() page.LSN { return 7 },
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= 200; i++ {
				id := page.ID(i%16 + 1)
				f.noteEvicted(id, page.LSN(i))
				got := f.minLSN(id)
				if got.Before(page.LSN(1)) {
					t.Errorf("minLSN(%d) = %d", id, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// The note is monotone: the highest LSN wins for every page.
	for id := page.ID(1); id <= 16; id++ {
		if f.minLSN(id).Before(f.minLSN(id)) {
			t.Fatalf("unstable minLSN for page %d", id)
		}
	}
	if got := f.minLSN(page.ID(999)); got != 7 {
		t.Fatalf("unknown page floor = %d, want 7", got)
	}
}
