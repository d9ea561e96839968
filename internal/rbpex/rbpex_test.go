package rbpex

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"socrates/internal/btree"
	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/simdisk"
	"socrates/internal/wal"
)

func mkPage(id page.ID, lsn page.LSN, marker byte) *page.Page {
	return &page.Page{ID: id, LSN: lsn, Type: page.TypeLeaf, Data: []byte{marker}}
}

func sparseCache(t *testing.T, memPages, ssdPages int) (*Cache, Config) {
	t.Helper()
	cfg := Config{
		MemPages: memPages,
		SSDPages: ssdPages,
		SSD:      simdisk.New(simdisk.Instant),
		Meta:     simdisk.New(simdisk.Instant),
	}
	if ssdPages == 0 {
		cfg.SSD, cfg.Meta = nil, nil
	}
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, cfg
}

func TestMemHit(t *testing.T) {
	c, _ := sparseCache(t, 4, 0)
	if err := c.Put(mkPage(1, 10, 'a')); err != nil {
		t.Fatal(err)
	}
	pg, ok := c.Get(1)
	if !ok || pg.LSN != 10 || pg.Data[0] != 'a' {
		t.Fatalf("get = %+v %v", pg, ok)
	}
	m, s, x := c.Stats()
	if m != 1 || s != 0 || x != 0 {
		t.Fatalf("stats = %d %d %d", m, s, x)
	}
}

func TestMiss(t *testing.T) {
	c, _ := sparseCache(t, 4, 0)
	if _, ok := c.Get(99); ok {
		t.Fatal("phantom hit")
	}
	if _, _, x := c.Stats(); x != 1 {
		t.Fatal("miss not counted")
	}
}

// TestCachePagesImmutable is the ownership rule (DESIGN §16) from the
// reader's side: a page held from Get keeps its bytes and LSN while redo,
// eviction to SSD and promotion churn the same page ID underneath it. The
// memory tier hands out its own pointer, so under -race any in-place edit
// anywhere on the path is also a reported data race with the holders.
func TestCachePagesImmutable(t *testing.T) {
	c, _ := sparseCache(t, 2, 8)
	const id = page.ID(1)
	if err := c.Put(&page.Page{ID: id, LSN: 1, Type: page.TypeLeaf, Data: btree.EmptyNodePayload()}); err != nil {
		t.Fatal(err)
	}
	first, ok := c.Get(id)
	if !ok {
		t.Fatal("page missing after Put")
	}
	if again, _ := c.Get(id); again != first {
		t.Fatal("memory hit did not return the stored page")
	}

	// hold takes the current version and returns a check that it is still
	// what it was.
	hold := func() func() {
		pg, ok := c.Get(id)
		if !ok {
			t.Error("page vanished from a cache with an SSD tier")
			return func() {}
		}
		want := pg.Clone()
		return func() {
			if pg.LSN != want.LSN || !bytes.Equal(pg.Data, want.Data) {
				t.Errorf("held page changed: lsn %d -> %d", want.LSN, pg.LSN)
			}
		}
	}
	checkFirst := hold()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var checks []func()
			for {
				select {
				case <-stop:
					for _, check := range checks {
						check()
					}
					return
				default:
					checks = append(checks, hold())
				}
			}
		}()
	}
	// One writer, as on every tier: redo onto the page, then traffic on
	// other IDs that pushes it out to the SSD tier and back.
	for i := 0; i < 300; i++ {
		cur, ok := c.Get(id) // promotes when the page sits on SSD
		if !ok {
			t.Fatal("page vanished")
		}
		rec := &wal.Record{LSN: cur.LSN.Next(), Kind: wal.KindCellPut, Page: id,
			Key: []byte(fmt.Sprintf("k%03d", i%40)), Value: []byte(fmt.Sprintf("v%d", i))}
		next, applied, err := btree.Apply(cur, rec)
		if err != nil || !applied || next == cur {
			t.Fatalf("redo %d: applied %v err %v", i, applied, err)
		}
		if err := c.Put(next); err != nil {
			t.Fatal(err)
		}
		for other := page.ID(2); other <= 4; other++ {
			if err := c.Put(mkPage(other, page.LSN(i+1), byte(i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	checkFirst()
	if first.LSN != 1 || !bytes.Equal(first.Data, btree.EmptyNodePayload()) {
		t.Fatalf("the first version changed: lsn %d, %d payload bytes", first.LSN, len(first.Data))
	}
	if cur, _ := c.Get(id); cur.LSN != 301 {
		t.Fatalf("current version at lsn %d, want 301", cur.LSN)
	}
}

// TestPromoteKeepsNewerResident: the SSD read of a promotion runs without
// the lock, so a Put may land first; the stale image must not shadow it.
func TestPromoteKeepsNewerResident(t *testing.T) {
	c, _ := sparseCache(t, 4, 8)
	_ = c.Put(mkPage(1, 20, 'n'))
	_, _ = c.put(mkPage(1, 10, 'o'), promoted)
	if pg, _ := c.Get(1); pg.LSN != 20 || pg.Data[0] != 'n' {
		t.Fatalf("promotion displaced the resident page: %+v", pg)
	}
}

// TestPutFetchedNeverMovesPageBackwards: an image fetched from another copy
// of the database is installed only if the cache knows of no newer version —
// resident, on its way to the SSD tier, on it, or gone from the cache
// altogether and remembered by its eviction record.
func TestPutFetchedNeverMovesPageBackwards(t *testing.T) {
	c, _ := sparseCache(t, 2, 8)
	put := func(pg *page.Page) bool {
		t.Helper()
		installed, err := c.PutFetched(pg)
		if err != nil {
			t.Fatal(err)
		}
		return installed
	}
	holds := func(id page.ID, lsn page.LSN, marker byte) {
		t.Helper()
		if pg, ok := c.Get(id); !ok || pg.LSN != lsn || pg.Data[0] != marker {
			t.Fatalf("page %d = %+v %v, want lsn %d %q", id, pg, ok, lsn, marker)
		}
	}

	// Resident: an older image is dropped, the same version changes
	// nothing, a newer one replaces it.
	_ = c.Put(mkPage(1, 20, 'n'))
	if put(mkPage(1, 10, 'o')) || put(mkPage(1, 20, 'x')) {
		t.Fatal("a fetched image no newer than the resident page was installed")
	}
	holds(1, 20, 'n')
	if !put(mkPage(1, 30, 'f')) {
		t.Fatal("a fetched image newer than the resident page was dropped")
	}
	holds(1, 30, 'f')

	// On the SSD tier only: pages 2 and 3 push page 1 out of memory.
	_ = c.Put(mkPage(2, 21, 'b'))
	_ = c.Put(mkPage(3, 22, 'c'))
	if put(mkPage(1, 25, 'o')) {
		t.Fatal("a fetched image older than the SSD copy was installed")
	}
	holds(1, 30, 'f')

	// In flight to the SSD tier.
	c.mu.Lock()
	c.demoting[7] = demotion{id: 7, lsn: 40, pg: mkPage(7, 40, 'd')}
	c.mu.Unlock()
	if !c.Contains(7) || put(mkPage(7, 35, 'o')) {
		t.Fatal("a page on its way to the SSD tier does not count as cached")
	}
	holds(7, 40, 'd')

	// Gone from the cache: only the eviction record knows.
	c.mu.Lock()
	c.evicted[9] = 50
	c.mu.Unlock()
	if put(mkPage(9, 45, 'o')) || c.Contains(9) {
		t.Fatal("a fetched image older than the page's evicted version was installed")
	}
	if !put(mkPage(9, 50, 'e')) {
		t.Fatal("the evicted version itself was dropped")
	}
	holds(9, 50, 'e')

	// Put stays unconditional: it is for the version the caller just made.
	_ = c.Put(mkPage(9, 48, 'w'))
	holds(9, 48, 'w')
}

func TestMemEvictionToSSD(t *testing.T) {
	c, _ := sparseCache(t, 2, 8)
	for i := 1; i <= 3; i++ {
		_ = c.Put(mkPage(page.ID(i), page.LSN(i), byte(i)))
	}
	// Page 1 was LRU and demoted to SSD.
	c.Sync()
	pg, ok := c.Get(1)
	if !ok || pg.Data[0] != 1 {
		t.Fatalf("SSD get = %+v %v", pg, ok)
	}
	_, ssdHits, _ := c.Stats()
	if ssdHits != 1 {
		t.Fatalf("ssdHits = %d", ssdHits)
	}
}

// A page read off a device or the wire is spilled to the SSD as the image it
// was read from, and a page built in memory as its encoding, whatever their
// order in a batch. The decoded pages' images carry a marker past the
// payload, where the checksum does not look and an encoding writes zeros:
// finding it in a slot shows the image went to the device as it was read,
// not encoded again. The SSD holds the drainer's first write, so the
// demotions behind it queue up and go out as one batch of both kinds.
func TestSpillWritesDecodedImages(t *testing.T) {
	c, cfg := sparseCache(t, 2, 8)
	release := cfg.SSD.HoldWrites()
	want := make(map[page.ID][]byte)
	for i := 1; i <= 6; i++ {
		pg := mkPage(page.ID(i), page.LSN(i), byte(i))
		img, err := pg.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			img[page.Size-1] = 0x5A
			if pg, err = page.Decode(img); err != nil {
				t.Fatal(err)
			}
		}
		want[pg.ID] = img
		if err := c.Put(pg); err != nil {
			t.Fatal(err)
		}
	}
	release()
	c.Sync()
	if ws := writeBehind(c); ws.Batches >= ws.Written {
		t.Fatalf("%d pages in %d batches: no batch held more than one page", ws.Written, ws.Batches)
	}
	spilled := make(map[page.ID]bool)
	for off := int64(0); off < cfg.SSD.Size(); off += page.Size {
		slot := make([]byte, page.Size)
		if err := cfg.SSD.ReadAt(slot, off); err != nil {
			t.Fatal(err)
		}
		pg, err := page.Decode(slot)
		if err != nil {
			continue // a slot nothing was written to
		}
		if !bytes.Equal(slot, want[pg.ID]) {
			t.Fatalf("page %d: the SSD slot differs from the image it was put with", pg.ID)
		}
		if spilled[pg.ID] {
			t.Fatalf("page %d is in two slots", pg.ID)
		}
		spilled[pg.ID] = true
	}
	if len(spilled) != 4 {
		t.Fatalf("pages %v spilled, want 4 (6 put into a 2-page memory tier)", spilled)
	}
}

func TestEvictionWithoutSSDRecordsLSN(t *testing.T) {
	c, _ := sparseCache(t, 2, 0)
	flight := obs.NewFlightRecorder(0)
	c.Instrument(obs.Plane{Flight: flight}, "compute.rbpex", nil)
	_ = c.Put(mkPage(1, 11, 'a'))
	_ = c.Put(mkPage(2, 12, 'b'))
	_ = c.Put(mkPage(3, 13, 'c'))
	if evicted := evictedOf(c); !reflect.DeepEqual(evicted, map[page.ID]page.LSN{1: 11}) {
		t.Fatalf("evicted = %v, want page 1 at LSN 11", evicted)
	}
	if ev := flight.Events(); len(ev) != 1 || ev[0].Tier != obs.TierCompute || ev[0].Kind != "compute.evict" ||
		ev[0].LSN != 11 || ev[0].Detail != "page 1" {
		t.Fatalf("flight events %+v, want one compute.evict of page 1 at LSN 11", ev)
	}
	// The record outlives the page's return, and an image older than it is
	// not installed.
	if installed, _ := c.PutFetched(mkPage(1, 10, 'x')); installed || c.Contains(1) {
		t.Fatal("a fetched image older than the evicted version was installed")
	}
	if installed, _ := c.PutFetched(mkPage(1, 11, 'a')); !installed || c.EvictedLSN(1) != 11 {
		t.Fatalf("the evicted version itself: installed %v, EvictedLSN %d", installed, c.EvictedLSN(1))
	}
}

func TestSSDEvictionRecordsLSN(t *testing.T) {
	c, _ := sparseCache(t, 1, 2)
	// Fill: mem holds 1 page, SSD holds 2; the 4th insert pushes the
	// oldest page out of the cache entirely.
	for i := 1; i <= 4; i++ {
		_ = c.Put(mkPage(page.ID(i), page.LSN(i*10), byte(i)))
		c.Sync()
	}
	if c.Contains(1) || c.EvictedLSN(1) != 10 {
		t.Fatalf("page 1: cached %v, evicted at LSN %d; want gone, at LSN 10", c.Contains(1), c.EvictedLSN(1))
	}
}

// TestCoveringCacheRecordsNoEviction: a page server's cache evicts from its
// memory tier like any other, but nobody asks it what left: it records
// nothing.
func TestCoveringCacheRecordsNoEviction(t *testing.T) {
	c, err := Open(Config{MemPages: 1, SSDPages: 4, Covering: true, Base: 1,
		SSD: simdisk.New(simdisk.Instant), Meta: simdisk.New(simdisk.Instant)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		if err := c.Put(mkPage(page.ID(i), page.LSN(i*10), byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	for id := page.ID(1); id <= 4; id++ {
		if lsn := c.EvictedLSN(id); lsn != 0 {
			t.Fatalf("covering cache recorded page %d evicted at LSN %d", id, lsn)
		}
	}
	if evicted := evictedOf(c); evicted != nil {
		t.Fatalf("covering cache keeps an eviction record: %v", evicted)
	}
}

func TestLRUOrderRespectsAccess(t *testing.T) {
	c, _ := sparseCache(t, 2, 4)
	_ = c.Put(mkPage(1, 1, 'a'))
	_ = c.Put(mkPage(2, 2, 'b'))
	if _, ok := c.Get(1); !ok { // touch 1 so 2 becomes LRU
		t.Fatal("page 1 missing")
	}
	_ = c.Put(mkPage(3, 3, 'c')) // evicts 2, not 1
	c.ResetStats()
	_, _ = c.Get(1)
	m, s, _ := c.Stats()
	if m != 1 || s != 0 {
		t.Fatalf("page 1 should still be a mem hit (m=%d s=%d)", m, s)
	}
}

func TestUpdateRefreshesVersion(t *testing.T) {
	c, _ := sparseCache(t, 2, 4)
	_ = c.Put(mkPage(1, 1, 'a'))
	_ = c.Put(mkPage(1, 5, 'A')) // newer version of the same page
	// Force a demotion and re-read from SSD to check the latest landed.
	_ = c.Put(mkPage(2, 2, 'b'))
	_ = c.Put(mkPage(3, 3, 'c'))
	pg, ok := c.Get(1)
	if !ok || pg.LSN != 5 || pg.Data[0] != 'A' {
		t.Fatalf("got %+v", pg)
	}
}

func TestGetLSNAndContains(t *testing.T) {
	c, _ := sparseCache(t, 1, 4)
	_ = c.Put(mkPage(1, 7, 'a'))
	if lsn, ok := cachedLSN(c, 1); !ok || lsn != 7 {
		t.Fatalf("mem lsn = %d %v", lsn, ok)
	}
	_ = c.Put(mkPage(2, 8, 'b')) // demotes 1 to SSD
	if lsn, ok := cachedLSN(c, 1); !ok || lsn != 7 {
		t.Fatalf("lsn on the way to SSD = %d %v", lsn, ok)
	}
	c.Sync()
	if lsn, ok := cachedLSN(c, 1); !ok || lsn != 7 {
		t.Fatalf("ssd lsn = %d %v", lsn, ok)
	}
	if !c.Contains(1) || !c.Contains(2) || c.Contains(3) {
		t.Fatal("Contains wrong")
	}
	if _, ok := cachedLSN(c, 3); ok {
		t.Fatal("phantom LSN")
	}
}

func TestRecoveryRestoresSSDTier(t *testing.T) {
	ssd := simdisk.New(simdisk.Instant)
	meta := simdisk.New(simdisk.Instant)
	cfg := Config{MemPages: 2, SSDPages: 8, SSD: ssd, Meta: meta}
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		_ = c.Put(mkPage(page.ID(i), page.LSN(i*100), byte(i)))
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a new cache over the same devices.
	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		pg, ok := re.Get(page.ID(i))
		if !ok || pg.LSN != page.LSN(i*100) || pg.Data[0] != byte(i) {
			t.Fatalf("page %d after recovery: %+v %v", i, pg, ok)
		}
	}
	min, found := re.MinSSDLSN()
	if !found || min != 100 {
		t.Fatalf("MinSSDLSN = %d %v", min, found)
	}
}

// A crash loses the memory tier and the write-behind backlog, nothing that
// is on SSD.
func TestRecoveryWithoutFlushLosesOnlyMemTier(t *testing.T) {
	ssd := simdisk.New(simdisk.Instant)
	meta := simdisk.New(simdisk.Instant)
	cfg := Config{MemPages: 2, SSDPages: 8, SSD: ssd, Meta: meta}
	c, _ := Open(cfg)
	for i := 1; i <= 4; i++ {
		_ = c.Put(mkPage(page.ID(i), page.LSN(i), byte(i)))
	}
	// Pages 1 and 2 were demoted; 3 and 4 are memory-only. Crash now.
	c.Sync()
	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !re.Contains(1) || !re.Contains(2) {
		t.Fatal("SSD-tier pages lost")
	}
	if re.Contains(3) || re.Contains(4) {
		t.Fatal("mem-tier pages survived a crash (impossible)")
	}
}

func TestSlotReuseAfterEviction(t *testing.T) {
	c, _ := sparseCache(t, 1, 2)
	for i := 1; i <= 6; i++ {
		_ = c.Put(mkPage(page.ID(i), page.LSN(i), byte(i)))
	}
	// Slots must not grow beyond SSDPages.
	if c.cfg.SSD.Size() > int64(2*page.Size) {
		t.Fatalf("SSD grew to %d bytes, want <= %d", c.cfg.SSD.Size(), 2*page.Size)
	}
}

func coveringCache(t *testing.T, base page.ID, pages int) *Cache {
	t.Helper()
	c, err := Open(Config{
		MemPages: 2,
		SSDPages: pages,
		Covering: true,
		Base:     base,
		SSD:      simdisk.New(simdisk.Instant),
		Meta:     simdisk.New(simdisk.Instant),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCoveringSeedAndReadRange(t *testing.T) {
	c := coveringCache(t, 100, 16)
	for i := 0; i < 16; i++ {
		if err := c.Seed(mkPage(100+page.ID(i), 1, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	// The range [104, 112) reads back page by page, each from its own slot.
	for i := 4; i < 12; i++ {
		id := 100 + page.ID(i)
		pg, ok := c.Get(id)
		if !ok || pg.ID != id || pg.Data[0] != byte(i) {
			t.Fatalf("page %d = %+v %v", id, pg, ok)
		}
	}
}

func TestCoveringNeverEvictsSSD(t *testing.T) {
	c := coveringCache(t, 0, 64)
	for i := 0; i < 64; i++ {
		_ = c.Seed(mkPage(page.ID(i), 1, byte(i)))
	}
	// Churn the memory tier hard; every page must stay readable.
	for round := 0; round < 3; round++ {
		for i := 0; i < 64; i++ {
			pg, ok := c.Get(page.ID(i))
			if !ok || pg.Data[0] != byte(i) {
				t.Fatalf("page %d lost (round %d)", i, round)
			}
		}
	}
	if c.Len() != 64 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestCoveringRecovery(t *testing.T) {
	ssd := simdisk.New(simdisk.Instant)
	meta := simdisk.New(simdisk.Instant)
	cfg := Config{MemPages: 2, SSDPages: 8, Covering: true, Base: 50,
		SSD: ssd, Meta: meta}
	c, _ := Open(cfg)
	for i := 0; i < 8; i++ {
		_ = c.Seed(mkPage(50+page.ID(i), page.LSN(i+1), byte(i)))
	}
	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		pg, ok := re.Get(50 + page.ID(i))
		if !ok || pg.Data[0] != byte(i) || pg.LSN != page.LSN(i+1) {
			t.Fatalf("recovered page %d = %+v %v", 50+i, pg, ok)
		}
	}
}

func TestHitRate(t *testing.T) {
	c, _ := sparseCache(t, 4, 0)
	_ = c.Put(mkPage(1, 1, 'a'))
	_, _ = c.Get(1) // hit
	_, _ = c.Get(2) // miss
	_, _ = c.Get(1) // hit
	if got := c.HitRate(); got < 0.66 || got > 0.67 {
		t.Fatalf("hit rate = %v, want 2/3", got)
	}
	c.ResetStats()
	if c.HitRate() != 0 {
		t.Fatal("reset did not clear stats")
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{MemPages: 0}); err == nil {
		t.Fatal("MemPages=0 should fail")
	}
	if _, err := Open(Config{MemPages: 1, SSDPages: 4}); err == nil {
		t.Fatal("missing devices should fail")
	}
	if _, err := Open(Config{MemPages: 1, Covering: true}); err == nil {
		t.Fatal("covering without SSDPages should fail")
	}
}

func TestConcurrentGetPut(t *testing.T) {
	c, _ := sparseCache(t, 16, 64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := page.ID(i % 32)
				if i%3 == 0 {
					if err := c.Put(mkPage(id, page.LSN(i), byte(w))); err != nil {
						t.Error(err)
						return
					}
				} else {
					c.Get(id)
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestManyPagesStress(t *testing.T) {
	c, _ := sparseCache(t, 8, 32)
	for i := 0; i < 500; i++ {
		id := page.ID(i % 64)
		_ = c.Put(&page.Page{ID: id, LSN: page.LSN(i + 1), Type: page.TypeLeaf,
			Data: []byte(fmt.Sprintf("payload-%d", i))})
	}
	c.Sync() // pages on their way to the SSD tier count as cached, over and above the two tiers
	if c.Len() > 40 {
		t.Fatalf("cache len %d exceeds capacity", c.Len())
	}
}

// cachedLSN is the LSN of the copy Get would return for id, found without
// reading it or touching the tiers' order.
func cachedLSN(c *Cache, id page.ID) (page.LSN, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.mem[id]; ok {
		return e.pg.LSN, true
	}
	if i := c.aheadIndexLocked(id); i >= 0 {
		return c.ahead[i].LSN, true
	}
	if d, ok := c.demoting[id]; ok {
		return d.lsn, true
	}
	if e, ok := c.ssd[id]; ok {
		return e.lsn, true
	}
	return 0, false
}
