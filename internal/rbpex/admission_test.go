package rbpex

import (
	"math/rand"
	"reflect"
	"testing"

	"socrates/internal/page"
	"socrates/internal/simdisk"
	"socrates/internal/testutil"
)

// --- the policy replay: which admission policy, on a read-miss-shaped stream ---

// access is one step of a recorded page-access stream: a read somebody waits
// for, or a read-ahead hint.
type access struct {
	id   page.ID
	hint bool
}

// readMissStream is the page-access stream of the benchmark's read-miss
// workload in miniature, a pure function of the seed: the CDB read-only mix
// (60% point lookups, 25% 50-row scans, 15% 200-row scans) over four trees —
// two of 8,000 lean rows (a root over ~130 leaves), one of 8,000 fat rows (a
// root over two inner nodes over ~570 leaves), one of 1,000 rows — rows drawn
// zipf 1.03, tables 4:3:2:1. A scan reads the path to its first leaf, hints
// the in-range leaves behind it (at most 16: btree.ReadAhead), then reads the
// leaves in order; hints land before the first leaf does. With shift > 0 the
// hot rows move every shift transactions.
func readMissStream(seed int64, txns, shift int) []access {
	type tree struct {
		rows, perLeaf, perInner int
		base                    page.ID // root; inner nodes and leaves follow
	}
	trees := []tree{
		{rows: 8000, perLeaf: 60, base: 1000},
		{rows: 8000, perLeaf: 60, base: 2000},
		{rows: 8000, perLeaf: 14, perInner: 290, base: 3000},
		{rows: 1000, perLeaf: 90, base: 5000},
	}
	var out []access
	path := func(t tree, leaf int) {
		out = append(out, access{id: t.base})
		if t.perInner > 0 {
			out = append(out, access{id: t.base + 1 + page.ID(leaf/t.perInner)})
		}
	}
	leafID := func(t tree, leaf int) page.ID { return t.base + 10 + page.ID(leaf) }

	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.03, 8, 7999)
	for i := 0; i < txns; i++ {
		kind := rng.Intn(100)
		row := int(zipf.Uint64())
		if shift > 0 {
			row = (row + (i/shift)*1777) % 8000
		}
		t := trees[[]int{0, 0, 0, 0, 1, 1, 1, 2, 2, 3}[rng.Intn(10)]]
		row %= t.rows
		span := 1
		switch {
		case kind >= 85:
			span = 200
		case kind >= 60:
			span = 50
		}
		first, last := row/t.perLeaf, min(row+span-1, t.rows-1)/t.perLeaf
		path(t, first)
		for leaf := first + 1; leaf <= last && leaf <= first+16; leaf++ {
			out = append(out, access{id: leafID(t, leaf), hint: true})
		}
		for leaf := first; leaf <= last; leaf++ {
			out = append(out, access{id: leafID(t, leaf)})
			if next := leaf + 16 + 1; next <= last {
				out = append(out, access{id: leafID(t, next), hint: true})
			}
		}
	}
	return out
}

func (r *refCache) contains(id page.ID) bool {
	_, inMem := r.mem[id]
	_, onSSD := r.ssd[id]
	return inMem || onSSD || r.parkedAt(id) >= 0
}

// replay runs the stream through the model the way RemotePageFile drives the
// cache — a hint for an uncached page installs it (PutHinted), a read that
// misses fetches and installs (PutFetched) — and counts the round trips a
// reader waited for, the pages fetched on hints, and the SSD-tier reads.
func replay(r *refCache, stream []access) (demandMisses, hintFetches, ssdReads int64) {
	for _, a := range stream {
		switch {
		case !a.hint:
			if _, ok := r.get(a.id); !ok {
				demandMisses++
				r.put(version(a.id, 1), fetched)
			}
		case !r.contains(a.id):
			hintFetches++
			r.put(version(a.id, 1), hinted)
		}
	}
	return demandMisses, hintFetches, r.ssdHits
}

// TestReplayAdmissionPolicies is where the policy was chosen (ROADMAP 4a in
// miniature): microseconds per policy, no simulator. 8+24 pages, 16,800
// transactions (one benchmark run's worth); seed 1, the other four within 3%.
// Cost is 305 µs a demand miss plus 85 µs an SSD read, in seconds.
//
//	                               hot set fixed               hot set moves every 300 txns
//	policy                         demand  hints  SSD    cost  demand  hints  SSD    cost
//	plain LRU, hints into memory   12,965 15,549 20,734  5.72  13,817 15,715 20,278  5.94
//	ahead area alone               12,693 15,387 14,562  5.11  13,508 15,574 14,178  5.33
//	segments alone, 3/4            18,670 15,426 19,480  7.35  19,693 15,652 18,945  7.62
//	both, protected 1/2            10,807 15,085 13,004  4.40  11,732 15,357 12,422  4.63
//	both, protected 3/4             9,653 14,530 13,047  4.05  10,998 15,345 11,330  4.32   <- the cache
//	both, protected 7/8             9,006 14,303 13,242  3.87  11,388 16,074  8,889  4.23
//
// Neither half works alone: parked read-ahead stops flushing the memory tier
// but plain LRU still loses the roots to every scan's leaves, and segments
// without the ahead area protect whatever sixteen hinted pages left standing.
// Together, any split from 1/2 up takes most of the gain. 7/8 reads another
// 7% better while the hot set stands still and no better than 3/4 once it
// moves — one probationary page in a tier of eight is no room to be seen
// twice in — and on the benchmark itself the three are within its noise
// (EXPERIMENTS.md). So: a constant, 3/4, the conventional one.
//
// The test pins the claim: against plain LRU the shipped policy saves at
// least 15% of the round trips a reader waits for on every seed, moving hot
// set or not, without fetching more on hints.
func TestReplayAdmissionPolicies(t *testing.T) {
	policies := []struct {
		name      string
		protShare int // eighths
		noAhead   bool
	}{
		{"plain LRU, hints into memory", 0, true},
		{"ahead area alone", 0, false},
		{"segments alone, 3/4", 6, true},
		{"both, protected 1/2", 4, false},
		{"both, protected 3/4", 2 * protectedShare, false},
		{"both, protected 7/8", 7, false},
	}
	const lru, shipped = 0, 4
	for seed := int64(1); seed <= 5; seed++ {
		for _, shift := range []int{0, 300} {
			stream := readMissStream(seed, 16800, shift)
			var demand, hints [6]int64
			for i, p := range policies {
				var ssd int64
				demand[i], hints[i], ssd = replay(newRefPolicy(8, 24, p.protShare, p.noAhead), stream)
				t.Logf("seed %d shift %3d  %-30s demand %5d  hints %5d  SSD reads %5d  cost %.2f s", seed, shift, p.name,
					demand[i], hints[i], ssd, (305*float64(demand[i])+85*float64(ssd))/1e6)
			}
			if float64(demand[shipped]) > 0.85*float64(demand[lru]) {
				t.Errorf("seed %d shift %d: %d demand misses against plain LRU's %d; want at least 15%% fewer", seed, shift, demand[shipped], demand[lru])
			}
			if hints[shipped] > hints[lru] {
				t.Errorf("seed %d shift %d: %d pages fetched on hints against plain LRU's %d", seed, shift, hints[shipped], hints[lru])
			}
		}
	}
}

// --- the policy itself, on the cache ---

// TestScanDoesNotEvictHotSet: pages that were referenced twice survive one
// pass over ten times the cache's capacity, in the tier they were in. (Plain
// LRU loses all of them to the first 32 pages of the scan.)
func TestScanDoesNotEvictHotSet(t *testing.T) {
	const memPages, ssdPages = 8, 24
	c, _ := sparseCache(t, memPages, ssdPages)
	twice := func(id page.ID) {
		t.Helper()
		if err := c.Put(version(id, 1)); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get(id); !ok {
			t.Fatalf("page %d missing right after its put", id)
		}
	}
	// Ten pages referenced twice and then pushed out of memory by six more:
	// the first ten are the SSD tier's hot set, the six the memory tier's.
	for id := page.ID(1); id <= 16; id++ {
		twice(id)
	}
	// Eight pages seen once fill memory's probation and push the rest of
	// the ten out.
	for id := page.ID(900); id < 908; id++ {
		_ = c.Put(version(id, 1))
	}
	c.Sync()
	for id := page.ID(1000); id < 1000+10*(memPages+ssdPages); id++ {
		if err := c.Put(version(id, 1)); err != nil {
			t.Fatal(err)
		}
	}
	c.Sync()
	c.ResetStats()
	for id := page.ID(11); id <= 16; id++ {
		if _, ok := c.Get(id); !ok {
			t.Fatalf("page %d of the memory tier's hot set did not survive the scan", id)
		}
	}
	if mem, ssd, _ := c.Stats(); mem != 6 || ssd != 0 {
		t.Fatalf("memory tier's hot set after the scan: %d memory hits, %d SSD hits; want 6 and 0", mem, ssd)
	}
	for id := page.ID(1); id <= 10; id++ {
		if _, ok := c.Get(id); !ok {
			t.Fatalf("page %d of the SSD tier's hot set did not survive the scan", id)
		}
	}
	if _, ssd, misses := c.Stats(); ssd != 10 || misses != 0 {
		t.Fatalf("SSD tier's hot set after the scan: %d SSD hits, %d misses; want 10 and 0", ssd, misses)
	}

	// A covering cache (page server): its SSD tier holds every page, so a
	// page read from there has been referenced once, not twice. The
	// checkpoint sweep reads every dirty page once, with Get.
	const partition = 10 * memPages
	cov, err := Open(Config{MemPages: memPages, SSDPages: partition, Covering: true, Base: 1,
		SSD: simdisk.New(simdisk.Instant), Meta: simdisk.New(simdisk.Instant)})
	if err != nil {
		t.Fatal(err)
	}
	for id := page.ID(1); id <= partition; id++ {
		if err := cov.Seed(version(id, 1)); err != nil {
			t.Fatal(err)
		}
	}
	for pass := 0; pass < 2; pass++ {
		for id := page.ID(1); id <= 6; id++ {
			cov.Get(id)
		}
	}
	for id := page.ID(7); id <= partition; id++ {
		if _, ok := cov.Get(id); !ok {
			t.Fatalf("covering cache misses page %d", id)
		}
	}
	cov.ResetStats()
	for id := page.ID(1); id <= 6; id++ {
		cov.Get(id)
	}
	if mem, ssd, _ := cov.Stats(); mem != 6 || ssd != 0 {
		t.Fatalf("covering cache's hot set after the sweep: %d memory hits, %d SSD hits; want 6 and 0", mem, ssd)
	}
}

// TestAheadArea is the ahead area's contract (DESIGN §20.1): in the cache for
// every lookup, outside it for every eviction.
func TestAheadArea(t *testing.T) {
	c, _ := sparseCache(t, 2, 8)
	cfg := c.cfg
	hint := func(id page.ID, lsn page.LSN) bool {
		t.Helper()
		installed, err := c.PutHinted(version(id, lsn))
		if err != nil {
			t.Fatal(err)
		}
		return installed
	}
	ssdWrites := func() int64 { _, w, _, _ := cfg.SSD.Stats(); return w }
	resident := func(id page.ID) bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, ok := c.mem[id]
		return ok
	}

	_ = c.Put(version(100, 3))
	_ = c.Put(version(101, 3))
	// A scan's worth of hints — a window and the page it is on — evicts
	// nothing and writes nothing.
	for id := page.ID(1); id <= aheadPages; id++ {
		if !hint(id, 5) {
			t.Fatalf("hint of page %d was refused", id)
		}
	}
	c.Sync()
	for id := page.ID(1); id <= aheadPages; id++ {
		if lsn, ok := cachedLSN(c, id); !c.Contains(id) || !ok || lsn != 5 || resident(id) {
			t.Fatalf("parked page %d: Contains %v, GetLSN %d %v, in the memory tier %v", id, c.Contains(id), lsn, ok, resident(id))
		}
	}
	if !resident(100) || !resident(101) || len(evictedOf(c)) != 0 || ssdWrites() != 0 || c.Len() != 2+aheadPages {
		t.Fatalf("a full area: memory tier keeps 100 %v 101 %v, evictions %v, %d SSD writes, Len %d",
			resident(100), resident(101), evictedOf(c), ssdWrites(), c.Len())
	}

	// One more displaces the oldest: gone from the cache, recorded at its
	// LSN, written nowhere.
	hint(aheadPages+1, 5)
	c.Sync()
	if c.Contains(1) || !reflect.DeepEqual(evictedOf(c), map[page.ID]page.LSN{1: 5}) || ssdWrites() != 0 || writeBehind(c).Queued != 0 {
		t.Fatalf("one hint more: page 1 cached %v, evictions %v, %d SSD writes, %+v", c.Contains(1), evictedOf(c), ssdWrites(), writeBehind(c))
	}
	if got, want := c.aheadCounts(), (aheadCounts{Parked: aheadPages + 1, Displaced: 1}); got != want {
		t.Fatalf("ahead area: %+v, want %+v", got, want)
	}

	// The first Get is a memory hit and moves the page into the memory tier;
	// the second is a hit like any other.
	c.ResetStats()
	for i := 0; i < 2; i++ {
		if pg, ok := c.Get(2); !ok || pg.LSN != 5 || !resident(2) {
			t.Fatalf("Get %d of a parked page: %+v %v, in the memory tier %v", i, pg, ok, resident(2))
		}
	}
	if mem, ssd, misses := c.Stats(); mem != 2 || ssd != 0 || misses != 0 || c.aheadCounts().Read != 1 {
		t.Fatalf("two Gets of a parked page: %d/%d/%d hits, %+v; want two memory hits, one first read", mem, ssd, misses, c.aheadCounts())
	}

	// Never backwards: older than the parked image, than the resident one,
	// than the one that left the cache.
	if hint(3, 4) || hint(100, 2) || hint(1, 4) {
		t.Fatal("a hinted image older than the cached or evicted version was installed")
	}
	if installed, _ := c.PutFetched(version(3, 4)); installed {
		t.Fatal("a fetched image older than the parked one was installed")
	}
	// Log apply looks at a parked page without reading it (Parked), and the
	// image with the redo applied replaces the parked one where it is.
	mem0, ssd0, misses0 := c.Stats()
	if pg, ok := c.Parked(3); !ok || pg.LSN != 5 {
		t.Fatalf("Parked(3) = %+v %v, want the page at LSN 5", pg, ok)
	}
	if _, ok := c.Parked(100); ok {
		t.Fatal("Parked reports a page of the memory tier")
	}
	if !hint(3, 6) || c.aheadCounts() != (aheadCounts{Parked: aheadPages + 1, Read: 1, Displaced: 1}) {
		t.Fatalf("a newer image of a parked page: %+v", c.aheadCounts())
	}
	if lsn, _ := cachedLSN(c, 3); lsn != 6 || resident(3) {
		t.Fatalf("parked page 3 at LSN %d, in the memory tier %v; want 6, still parked", lsn, resident(3))
	}
	if mem, ssd, misses := c.Stats(); mem != mem0 || ssd != ssd0 || misses != misses0 {
		t.Fatalf("looking at a parked page counted: %d/%d/%d hits and misses, before %d/%d/%d", mem, ssd, misses, mem0, ssd0, misses0)
	}

	// Fetched for a reader, the parked version moves into the memory tier: it
	// has been read, though not from here.
	if installed, _ := c.PutFetched(version(5, 5)); !installed || !resident(5) || c.aheadCounts().Read != 1 {
		t.Fatalf("PutFetched of the parked version: installed %v, in the memory tier %v, %+v", installed, resident(5), c.aheadCounts())
	}

	// A Put of a parked page supersedes it: no eviction, no first read.
	_ = c.Put(version(4, 9))
	if lsn, _ := cachedLSN(c, 4); lsn != 9 || !resident(4) {
		t.Fatalf("page 4 after its Put: LSN %d, in the memory tier %v", lsn, resident(4))
	}
	c.mu.Lock()
	stillParked := c.aheadIndexLocked(4) >= 0
	c.mu.Unlock()
	if lsn := c.EvictedLSN(4); lsn != 0 {
		t.Fatalf("the Put of a parked page recorded its eviction at LSN %d", lsn)
	}
	if stillParked || c.aheadCounts().Read != 1 {
		t.Fatalf("page 4 after its Put: still parked %v, %+v", stillParked, c.aheadCounts())
	}

	// A page the tiers hold in an older version is no stranger: the hinted
	// image takes that version's place, like a fetched one.
	c.Sync()
	c.mu.Lock()
	var onSSD page.ID
	for id := range c.ssd {
		if _, inMem := c.mem[id]; !inMem {
			onSSD = id
		}
	}
	c.mu.Unlock()
	if onSSD == 0 || !hint(onSSD, 20) || !resident(onSSD) {
		t.Fatalf("hint of page %d, which the SSD tier holds: in the memory tier %v", onSSD, resident(onSSD))
	}

	// A crash leaves no trace of the area.
	c.Sync()
	re, err := Open(Config{MemPages: cfg.MemPages, SSDPages: cfg.SSDPages, SSD: cfg.SSD, Meta: cfg.Meta})
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	parked := aheadOf(c.ahead)
	c.mu.Unlock()
	if len(parked) == 0 {
		t.Fatal("the test was meant to crash with pages parked")
	}
	for _, p := range parked {
		if re.Contains(p.ID) {
			t.Fatalf("parked page %d survived a crash", p.ID)
		}
	}
}

// TestGetHitAllocs: a memory hit allocates nothing — the move from probation
// to the protected segment, and the fall back of the page it displaces,
// included (the pages go round: every Get after the first few moves two).
func TestGetHitAllocs(t *testing.T) {
	testutil.SkipIfRace(t)
	c, _ := sparseCache(t, 8, 0)
	for id := page.ID(0); id < 8; id++ {
		_ = c.Put(version(id, 1))
	}
	next := page.ID(0)
	avg := testing.AllocsPerRun(1000, func() {
		if _, ok := c.Get(next % 8); !ok {
			t.Fatal("cached page missed")
		}
		next++
	})
	c.mu.Lock()
	prot := c.memLRU.prot
	c.mu.Unlock()
	if avg != 0 || prot != c.memLRU.protCap {
		t.Fatalf("memory hit: %.2f allocs/op with %d pages protected; want 0 with the segment full", avg, prot)
	}
}
