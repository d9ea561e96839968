package compute

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"socrates/internal/btree"
	"socrates/internal/engine"
	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/rbio"
	"socrates/internal/rbpex"
	"socrates/internal/simdisk"
	"socrates/internal/wal"
)

// until polls cond — an event another goroutine brings about — inside the
// hang guard.
func until(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(hangGuard)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: still waiting after %v", what, hangGuard)
		}
		time.Sleep(50 * time.Microsecond) // deadline-bounded poll for an event another goroutine brings about
	}
}

// stallAt readies a secondary's cache so that its apply thread stops at the
// pull's first record for page q: q waits on the SSD tier, the memory tier
// holds one page the SSD tier lacks, the write-behind backlog is full and
// the cache devices are held. Reading q promotes it, which must evict, which
// waits for room in the backlog: the cache's blocked_puts counter then reads
// one more. The secondary's feed must not have started; release lets the
// devices go.
func stallAt(t *testing.T, cache *rbpex.Cache, ssd, meta *simdisk.Device, q page.ID) (release func()) {
	t.Helper()
	put := func(id page.ID) {
		if err := cache.Put(&page.Page{ID: id, LSN: 500, Type: page.TypeLeaf, Data: btree.EmptyNodePayload()}); err != nil {
			t.Fatal(err)
		}
	}
	put(q)
	put(q + 1) // q to the SSD tier
	cache.Sync()
	releaseSSD, releaseMeta := ssd.HoldWrites(), meta.HoldWrites()
	for id := q + 2; id < q+2+16; id++ { // each evicts the one before: sixteen in the backlog
		put(id)
	}
	released := false
	return func() {
		if !released {
			released = true
			releaseSSD()
			releaseMeta()
		}
	}
}

// TestSecondaryFetchFloorCoversThePullInFlight is the stale read a fetch
// floor of applied−1 allowed, as an exact schedule. A pull carries two
// records for a page P the secondary does not hold. The first goes by,
// ignored; then a reader misses on P and registers its fetch; then the
// second arrives and is queued for it. applied still stands at the pull's
// start, so a floor of applied−1 asks the page server for P as of before the
// pull — and the reader caches P with the second record and without the
// first. With the floor raised to the pull's end before its records are
// handled, the request carries at least the pull's last LSN and the cached
// page shows both.
//
// What stops the apply thread between the two records is the node's own
// cache (stallAt): a record between them reads a page that must be promoted
// from the SSD tier while the write-behind backlog is full and the cache
// devices are held.
func TestSecondaryFetchFloorCoversThePullInFlight(t *testing.T) {
	const (
		start = page.LSN(1000)
		p     = page.ID(5000) // beyond the pages of the database the node attaches to
		q     = p + 1
	)
	srv := newFakePageServer()
	srv.buildDatabase(t, engine.NewMemPipeline(), 4)
	others := srv.handler()
	base := &page.Page{ID: p, LSN: 500, Type: page.TypeLeaf, Data: btree.EmptyNodePayload()}
	bld := wal.NewBuilder(start, page.Partitioning{})
	first := &wal.Record{Txn: 9, Kind: wal.KindCellPut, Page: p, PageType: page.TypeLeaf, Key: []byte("first"), Value: []byte("1")}
	second := &wal.Record{Txn: 9, Kind: wal.KindCellPut, Page: p, PageType: page.TypeLeaf, Key: []byte("second"), Value: []byte("2")}
	bld.Append(first)
	bld.Append(&wal.Record{Txn: 9, Kind: wal.KindCellPut, Page: q, PageType: page.TypeLeaf, Key: []byte("q"), Value: []byte("q")})
	bld.Append(second)
	bld.Append(wal.NewCommit(9, 101))
	blk := bld.Flush()

	// A page server that honours GetPage@LSN for P: the base image with the
	// pull's records up to the requested LSN applied.
	var mu sync.Mutex
	var asked []page.LSN
	serve := make(chan struct{})
	net := rbio.NewInstantNetwork()
	net.Serve("ps", func(ctx context.Context, req *rbio.Request) *rbio.Response {
		if req.Type != rbio.MsgGetPage || req.Page != p {
			return others(ctx, req)
		}
		mu.Lock()
		asked = append(asked, req.LSN)
		mu.Unlock()
		pg := base
		for _, rec := range []*wal.Record{first, second} {
			if rec.LSN.AtMost(req.LSN) {
				next, _, err := btree.Apply(pg, rec)
				if err != nil {
					return rbio.Errorf("%v", err)
				}
				pg = next
			}
		}
		buf, err := pg.Encode()
		if err != nil {
			return rbio.Errorf("%v", err)
		}
		resp := rbio.Ok()
		resp.Payload = buf
		return resp
	})
	net.Serve("xlog", xlogOnce(start, blk.End, blk.Encode(), serve))
	sel := rbio.NewSelector(rbio.NewClient(net.Dial("ps")))
	ssd, meta := simdisk.New(simdisk.Instant), simdisk.New(simdisk.Instant)
	reg := obs.NewRegistry()
	blockedPuts := reg.Counter("compute.rbpex.writebehind.blocked_puts")
	sec, err := NewSecondary(SecondaryConfig{
		Name:          "sec",
		XLOG:          rbio.NewClient(net.Dial("xlog")),
		Resolve:       func(page.ID) (*rbio.Selector, error) { return sel, nil },
		StartLSN:      start,
		StartTS:       100,
		CacheMemPages: 1, CacheSSDPages: 64, CacheSSD: ssd, CacheMeta: meta,
		Obs: obs.Plane{Metrics: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sec.Stop()
	cache := sec.pages.Cache()
	release := stallAt(t, cache, ssd, meta, q)
	defer release()

	close(serve)
	until(t, "the apply thread to stop at the record between P's two", func() bool {
		return blockedPuts.Value() == 1
	})
	sec.pages.mu.Lock()
	pending := len(sec.pages.pending)
	sec.pages.mu.Unlock()
	if cache.Contains(p) || pending != 0 || sec.AppliedLSN() != start {
		t.Fatalf("mid-pull: page %d cached %v, %d fetches pending, applied %d; want the first record gone by ignored and nothing else", p, cache.Contains(p), pending, sec.AppliedLSN())
	}

	// The reader misses, registers, fetches — and waits for room in the
	// backlog with its page in hand, the registration still open.
	got := make(chan *page.Page, 1)
	go func() {
		pg, err := sec.pages.Read(p)
		if err != nil {
			t.Errorf("read of page %d: %v", p, err)
		}
		got <- pg
	}()
	until(t, "the reader's install to wait behind the apply thread", func() bool {
		return blockedPuts.Value() == 2
	})
	release()
	var pg *page.Page
	select {
	case pg = <-got:
	case <-time.After(hangGuard):
		t.Fatal("the read never returned")
	}
	if !sec.WaitApplied(blk.End, hangGuard) {
		t.Fatalf("applied = %d, want %d", sec.AppliedLSN(), blk.End)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(asked) != 1 || asked[0].Before(blk.End.Prev()) {
		t.Fatalf("GetPage asked for LSN %v; want one request at %d or above, the last LSN of the pull being applied", asked, blk.End.Prev())
	}
	// The reader may hold the image as fetched, before the queued redo; the
	// cache holds the page with it.
	holds := func(whose string, pg *page.Page, recs ...*wal.Record) {
		t.Helper()
		for _, rec := range recs {
			if _, found, err := btree.LookupCell(pg, rec.Key); err != nil || !found {
				t.Errorf("%s (LSN %d) lacks %q, the record at LSN %d: found %v, err %v", whose, pg.LSN, rec.Key, rec.LSN, found, err)
			}
		}
	}
	if pg != nil {
		holds("the reader's page", pg, first)
	}
	holds("the cached page", mustGet(t, cache, p), first, second)
}

func mustGet(t *testing.T, c *rbpex.Cache, id page.ID) *page.Page {
	t.Helper()
	pg, ok := c.Get(id)
	if !ok {
		t.Fatalf("page %d is not cached", id)
	}
	return pg
}

// TestScansRacingEvictionsReturnTheSameRows: scans over a cache a fraction
// of the tree's size, so that every install — the scans' own and their
// read-ahead's — evicts into the write-behind queue while other scans read
// the same pages out of memory, the backlog and the SSD tier. Every scan
// returns the rows a scan of the page server's own copy returns, and nothing
// waits for the backlog bound. Run under -race: the pages are shared.
func TestScansRacingEvictionsReturnTheSameRows(t *testing.T) {
	srv := newFakePageServer()
	root := srv.loadTree(t, 1200)
	want := scanKeys(t, btree.Open(&storePager{MemFile: srv.store}, wal.NewMemLog(), root), 0, 1200)

	net := rbio.NewInstantNetwork()
	net.Serve("ps", srv.handler())
	sel := rbio.NewSelector(rbio.NewClient(net.Dial("ps")))
	reg := obs.NewRegistry()
	f, err := newRemotePageFile(rbpex.Config{MemPages: 4, SSDPages: 12,
		SSD: simdisk.New(simdisk.Instant), Meta: simdisk.New(simdisk.Instant)},
		func(page.ID) (*rbio.Selector, error) { return sel, nil }, func() page.LSN { return 1 },
		obs.Plane{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tree := btree.Open(pagerOver{f}, wal.NewMemLog(), root)
			for round := 0; round < 6; round++ {
				lo := (w*170 + round*90) % 800
				got := scanKeys(t, tree, lo, lo+400)
				if fmt.Sprint(got) != fmt.Sprint(want[lo:lo+400]) {
					t.Errorf("scanner %d round %d: %d rows from %d, differing from the page server's", w, round, len(got), lo)
					return
				}
			}
		}(w)
	}
	within(t, "the scans", wg.Wait)
	f.Close()
	within(t, "Sync", f.Cache().Sync)
	wb := func(name string) uint64 { return reg.Counter("compute.rbpex.writebehind." + name).Value() }
	if wb("queued") == 0 || wb("queued") != wb("written")+wb("superseded") || wb("dropped") != 0 || wb("batches") == 0 {
		t.Fatalf("write-behind after the scans: queued %d, written %d, superseded %d, dropped %d, batches %d; want every evicted page written",
			wb("queued"), wb("written"), wb("superseded"), wb("dropped"), wb("batches"))
	}
}

func scanKeys(t *testing.T, tree *btree.Tree, lo, hi int) []string {
	t.Helper()
	var keys []string
	if err := tree.Scan(rowKey(lo), rowKey(hi), func(k, _ []byte) bool {
		keys = append(keys, string(k))
		return true
	}); err != nil {
		t.Errorf("scan [%d,%d): %v", lo, hi, err)
	}
	return keys
}
