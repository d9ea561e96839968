package rbpex

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/simdisk"
	"socrates/internal/testutil"
)

// hangGuard bounds the waits of these tests. None of them measures time: a
// wait that runs into the guard is a hang.
const hangGuard = 30 * time.Second

// within fails the test if fn has not returned inside the hang guard.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(hangGuard):
		t.Fatalf("hang: %s", what)
	}
}

// until polls cond — an event another goroutine brings about — inside the
// hang guard.
func until(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(hangGuard)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("hang: %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// version builds the page's image at lsn; the payload is a function of both,
// so equal versions are equal bytes wherever they were made.
func version(id page.ID, lsn page.LSN) *page.Page {
	data := make([]byte, 16)
	binary.LittleEndian.PutUint64(data[0:8], uint64(id))
	binary.LittleEndian.PutUint64(data[8:16], uint64(lsn))
	return &page.Page{ID: id, LSN: lsn, Type: page.TypeLeaf, Data: data}
}

type evictRec struct {
	ID  page.ID
	LSN page.LSN
}

// --- the reference: the cache as one sequential program ---

type refRow struct {
	Slot int
	LSN  page.LSN
}

type refSSD struct {
	slot int
	lsn  page.LSN
}

// refTier is the replacement order of one tier (DESIGN §20.2), as two slices
// of page IDs, most recent first.
type refTier struct {
	protCap    int
	prot, prob []page.ID
}

func (t *refTier) remove(id page.ID) (wasProtected bool) {
	if i := slices.Index(t.prot, id); i >= 0 {
		t.prot = slices.Delete(t.prot, i, i+1)
		return true
	}
	i := slices.Index(t.prob, id)
	t.prob = slices.Delete(t.prob, i, i+1)
	return false
}

func (t *refTier) admit(id page.ID, protected bool) {
	t.prob = slices.Insert(t.prob, 0, id)
	if protected {
		t.touch(id)
	}
}

func (t *refTier) touch(id page.ID) {
	t.remove(id)
	t.prot = slices.Insert(t.prot, 0, id)
	if len(t.prot) > t.protCap {
		last := t.prot[len(t.prot)-1]
		t.prot = t.prot[:len(t.prot)-1]
		t.prob = slices.Insert(t.prob, 0, last)
	}
}

func (t *refTier) refresh(id page.ID) {
	if t.remove(id) {
		t.prot = slices.Insert(t.prot, 0, id)
	} else {
		t.prob = slices.Insert(t.prob, 0, id)
	}
}

func (t *refTier) victim() page.ID {
	if len(t.prob) > 0 {
		return t.prob[len(t.prob)-1]
	}
	return t.prot[len(t.prot)-1]
}

// refCache is the sparse cache as one sequential program: the ahead area, two
// segmented tiers, and demotion done inline — evict the memory victim, choose
// its slot, write it, change the metadata rows, publish — one page at a time,
// everything done when put returns. Devices are maps. The write-behind cache
// must be indistinguishable from it whenever its backlog is empty.
//
// protShare is the protected share of each tier in eighths: 0 is plain LRU. noAhead turns PutHinted into PutFetched. Both exist
// for the replay in admission_test.go, which compares policies.
type refCache struct {
	memPages, ssdPages int
	noAhead            bool

	mem    map[page.ID]*page.Page
	memHot map[page.ID]bool // has been protected during this stay in memory
	memLRU refTier
	ahead  []*page.Page // oldest first
	ssd    map[page.ID]*refSSD
	ssdLRU refTier
	free   []int
	next   int

	slots map[int]*page.Page // the SSD device
	rows  map[page.ID]refRow // the metadata table

	memHits, ssdHits, misses int64
	parked, read, displaced  int64
	evicted                  map[page.ID]page.LSN // the highest LSN of every page evicted
}

func newRefCache(memPages, ssdPages int) *refCache {
	return newRefPolicy(memPages, ssdPages, 2*protectedShare, false)
}

func newRefPolicy(memPages, ssdPages, protShare int, noAhead bool) *refCache {
	return &refCache{
		memPages: memPages, ssdPages: ssdPages, noAhead: noAhead,
		mem: map[page.ID]*page.Page{}, memHot: map[page.ID]bool{},
		memLRU: refTier{protCap: memPages * protShare / 8},
		ssd:    map[page.ID]*refSSD{},
		ssdLRU: refTier{protCap: ssdPages * protShare / 8},
		slots:  map[int]*page.Page{}, rows: map[page.ID]refRow{},
		evicted: map[page.ID]page.LSN{},
	}
}

func (r *refCache) evict(id page.ID, lsn page.LSN) {
	r.evicted[id] = page.MaxLSN(r.evicted[id], lsn)
}

func (r *refCache) parkedAt(id page.ID) int {
	return slices.IndexFunc(r.ahead, func(pg *page.Page) bool { return pg.ID == id })
}

func (r *refCache) get(id page.ID) (*page.Page, bool) {
	if pg, ok := r.mem[id]; ok {
		r.memLRU.touch(id)
		r.memHot[id] = true
		r.memHits++
		return pg, true
	}
	if i := r.parkedAt(id); i >= 0 {
		pg := r.ahead[i]
		r.ahead = slices.Delete(r.ahead, i, i+1)
		r.read++
		r.memHits++
		r.admit(pg, false)
		return pg, true
	}
	e, ok := r.ssd[id]
	if !ok {
		r.misses++
		return nil, false
	}
	r.ssdLRU.touch(id)
	pg := r.slots[e.slot]
	r.ssdHits++
	r.put(pg, promoted)
	return pg, true
}

func (r *refCache) superseded(pg *page.Page, from origin) bool {
	if cur, resident := r.mem[pg.ID]; resident {
		return cur.LSN.AtLeast(pg.LSN)
	}
	if i := r.parkedAt(pg.ID); i >= 0 {
		return r.ahead[i].LSN.After(pg.LSN) || (from != fetched && r.ahead[i].LSN == pg.LSN)
	}
	e, onSSD := r.ssd[pg.ID]
	return onSSD && e.lsn.After(pg.LSN)
}

func (r *refCache) put(pg *page.Page, from origin) bool {
	if from == hinted && r.noAhead {
		from = fetched
	}
	if from != written && (r.superseded(pg, from) || (from != promoted && r.evicted[pg.ID].After(pg.LSN))) {
		return false
	}
	if _, ok := r.mem[pg.ID]; ok {
		r.mem[pg.ID] = pg
		r.memLRU.touch(pg.ID)
		r.memHot[pg.ID] = true
		return true
	}
	_, onSSD := r.ssd[pg.ID]
	switch i := r.parkedAt(pg.ID); {
	case i >= 0 && from == hinted:
		r.ahead[i] = pg
		return true
	case i >= 0:
		r.ahead = slices.Delete(r.ahead, i, i+1)
	case from == hinted && !onSSD:
		if len(r.ahead) == aheadPages {
			r.displaced++
			r.evict(r.ahead[0].ID, r.ahead[0].LSN)
			r.ahead = slices.Delete(r.ahead, 0, 1)
		}
		r.ahead = append(r.ahead, pg)
		r.parked++
		return true
	}
	r.admit(pg, from == promoted)
	return true
}

func (r *refCache) admit(pg *page.Page, protected bool) {
	r.mem[pg.ID] = pg
	r.memLRU.admit(pg.ID, protected)
	r.memHot[pg.ID] = protected
	for len(r.mem) > r.memPages {
		id := r.memLRU.victim()
		v, hot := r.mem[id], r.memHot[id]
		r.memLRU.remove(id)
		delete(r.mem, id)
		delete(r.memHot, id)
		r.evict(id, v.LSN)
		if r.ssdPages > 0 {
			r.demote(v, hot)
		}
	}
}

func (r *refCache) demote(pg *page.Page, hot bool) {
	e, exists := r.ssd[pg.ID]
	if exists {
		if hot {
			r.ssdLRU.touch(pg.ID)
		} else {
			r.ssdLRU.refresh(pg.ID)
		}
		if e.lsn.Before(pg.LSN) {
			r.slots[e.slot] = pg
			e.lsn = pg.LSN
		}
		return
	}
	var slot int
	switch {
	case len(r.free) > 0:
		slot = r.free[len(r.free)-1]
		r.free = r.free[:len(r.free)-1]
	case len(r.ssd) < r.ssdPages:
		slot = r.next
		r.next++
	default:
		vid := r.ssdLRU.victim()
		ve := r.ssd[vid]
		r.ssdLRU.remove(vid)
		delete(r.ssd, vid)
		slot = ve.slot
		r.evict(vid, ve.lsn)
		delete(r.rows, vid)
	}
	r.slots[slot] = pg
	r.rows[pg.ID] = refRow{slot, pg.LSN}
	r.ssd[pg.ID] = &refSSD{slot: slot, lsn: pg.LSN}
	r.ssdLRU.admit(pg.ID, hot)
}

// cacheState is everything the two caches are compared by.
type cacheState struct {
	MemProt, MemProb, SSDProt, SSDProb []page.ID // most recent first
	MemLSN                             map[page.ID]page.LSN
	MemHot                             map[page.ID]bool
	Ahead                              []evictRec         // oldest first
	SSD                                map[page.ID]refRow // slot and LSN of the entry
	Free                               []int
	Next                               int
	Rows                               map[page.ID]refRow // durable metadata
	MemHits, SSDHits, Misses           int64
	Parked                             aheadCounts
	Evicted                            map[page.ID]page.LSN
}

// wbStats is what the write-behind queue did since Open: pages queued for
// the drainer; of those, written to the SSD tier; skipped because a newer
// version was queued behind or the SSD copy had caught up; lost to a failed
// device write; drainer rounds; and puts that found the backlog full.
type wbStats struct{ Queued, Written, Superseded, Dropped, Batches, BlockedPuts int64 }

// writeBehind reads the counts off the registry sparseCache instruments the
// cache with.
func writeBehind(c *Cache) wbStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := func(ctr *obs.Counter) int64 { return int64(ctr.Value()) }
	return wbStats{n(c.queued), n(c.written), n(c.superseded), n(c.dropped), n(c.batches), n(c.blockedPuts)}
}

// aheadCounts is what became of the pages PutHinted parked.
type aheadCounts struct{ Parked, Read, Displaced int64 }

func (c *Cache) aheadCounts() aheadCounts {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.aheadCountsLocked()
}

func (c *Cache) aheadCountsLocked() aheadCounts {
	return aheadCounts{Parked: int64(c.parked.Value()), Read: int64(c.aheadRead.Value()),
		Displaced: int64(c.displaced.Value())}
}

func aheadOf(pages []*page.Page) []evictRec {
	out := []evictRec{}
	for _, pg := range pages {
		out = append(out, evictRec{pg.ID, pg.LSN})
	}
	return out
}

func (r *refCache) state() cacheState {
	s := cacheState{MemProt: append([]page.ID{}, r.memLRU.prot...), MemProb: append([]page.ID{}, r.memLRU.prob...),
		SSDProt: append([]page.ID{}, r.ssdLRU.prot...), SSDProb: append([]page.ID{}, r.ssdLRU.prob...),
		MemLSN: map[page.ID]page.LSN{}, MemHot: map[page.ID]bool{}, Ahead: aheadOf(r.ahead), SSD: map[page.ID]refRow{},
		Free: append([]int{}, r.free...), Next: r.next, Rows: map[page.ID]refRow{},
		MemHits: r.memHits, SSDHits: r.ssdHits, Misses: r.misses,
		Parked:  aheadCounts{Parked: r.parked, Read: r.read, Displaced: r.displaced},
		Evicted: maps.Clone(r.evicted)}
	for id, pg := range r.mem {
		s.MemLSN[id] = pg.LSN
		s.MemHot[id] = r.memHot[id]
	}
	for id, e := range r.ssd {
		s.SSD[id] = refRow{e.slot, e.lsn}
	}
	for id, row := range r.rows {
		s.Rows[id] = row
	}
	return s
}

// segments lists a tier's replacement order, most recent first, and checks
// the segment bookkeeping on the way.
func segments(t *testing.T, l *segLRU) (prot, prob []page.ID) {
	t.Helper()
	prot, prob = []page.ID{}, []page.ID{}
	for n := l.root.next; n != &l.root; n = n.next {
		switch {
		case n == &l.bound:
			if len(prot) != l.prot || l.prot > l.protCap {
				t.Fatalf("%d entries before the boundary, %d counted, %d allowed", len(prot), l.prot, l.protCap)
			}
		case n.protected:
			if !n.wasProtected {
				t.Fatalf("page %d is protected and never was", n.id)
			}
			prot = append(prot, n.id)
		default:
			prob = append(prob, n.id)
		}
	}
	if len(prot) != l.prot {
		t.Fatalf("protected entries behind the boundary: %v, %d counted", prot, l.prot)
	}
	return prot, prob
}

// stateOf reads the same out of a drained cache, and checks on the way that
// the backlog is empty and that every SSD entry's slot holds that page at
// that LSN.
func stateOf(t *testing.T, c *Cache) cacheState {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.backlog != 0 || len(c.queue) != 0 || len(c.demoting) != 0 || c.claimed != 0 {
		t.Fatalf("drained cache has backlog %d, queue %d, demoting %d, claimed %d",
			c.backlog, len(c.queue), len(c.demoting), c.claimed)
	}
	s := cacheState{MemLSN: map[page.ID]page.LSN{}, MemHot: map[page.ID]bool{}, Ahead: aheadOf(c.ahead),
		SSD: map[page.ID]refRow{}, Free: append([]int{}, c.free...), Next: c.nextSlot, Rows: map[page.ID]refRow{},
		Parked:  c.aheadCountsLocked(),
		Evicted: maps.Clone(c.evicted)}
	s.MemProt, s.MemProb = segments(t, &c.memLRU)
	s.SSDProt, s.SSDProb = segments(t, &c.ssdLRU)
	s.MemHits, s.SSDHits, s.Misses = c.Stats()
	for id, e := range c.mem {
		s.MemLSN[id] = e.pg.LSN
		s.MemHot[id] = e.wasProtected
	}
	buf := make([]byte, page.Size)
	for id, e := range c.ssd {
		if e.pins != 0 {
			t.Fatalf("page %d is still pinned in a drained cache", id)
		}
		s.SSD[id] = refRow{e.slot, e.lsn}
		if err := c.cfg.SSD.ReadAt(buf, int64(e.slot)*page.Size); err != nil {
			t.Fatalf("reading slot %d of page %d: %v", e.slot, id, err)
		}
		pg, err := page.Decode(append([]byte(nil), buf...))
		if err != nil || pg.ID != id || pg.LSN != e.lsn {
			t.Fatalf("slot %d should hold page %d at LSN %d, holds %+v (%v)", e.slot, id, e.lsn, pg, err)
		}
	}
	c.meta.Range(func(key string, val []byte) bool {
		id, _ := decodeMetaKey(key)
		s.Rows[id] = refRow{int(binary.LittleEndian.Uint64(val[0:8])), page.LSN(binary.LittleEndian.Uint64(val[8:16]))}
		return true
	})
	return s
}

// evictedOf copies the cache's eviction record.
func evictedOf(c *Cache) map[page.ID]page.LSN {
	c.mu.Lock()
	defer c.mu.Unlock()
	return maps.Clone(c.evicted)
}

// TestWriteBehindMatchesInlineModel: random Get/Put/PutFetched/PutHinted
// traces, the backlog drained after every operation — the cache is then,
// operation for operation, the sequential model: same hits and misses, same
// pages in the same order in both segments of both tiers and in the ahead
// area, same slots, same free list, same durable rows, the same highest LSN
// recorded for every page evicted.
func TestWriteBehindMatchesInlineModel(t *testing.T) {
	ops := 1500
	if testing.Short() || testutil.RaceEnabled {
		ops = 300 // the comparison reads every slot back after every operation
	}
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		memPages, ssdPages := 1+rng.Intn(8), 1+rng.Intn(24)
		universe := 1 + rng.Intn(2*(memPages+ssdPages)+4)
		c, _ := sparseCache(t, memPages, ssdPages)
		ref := newRefCache(memPages, ssdPages)
		latest := map[page.ID]page.LSN{}
		var clock page.LSN
		zipf := rand.NewZipf(rng, 1.2, 2, uint64(universe-1))
		for i := 0; i < ops; i++ {
			id := page.ID(1 + zipf.Uint64())
			what := ""
			switch k := rng.Intn(10); {
			case k < 5:
				what = fmt.Sprintf("Get(%d)", id)
				got, ok := c.Get(id)
				want, wantOK := ref.get(id)
				if ok != wantOK || (ok && (got.LSN != want.LSN || got.ID != id)) {
					t.Fatalf("seed %d op %d %s = %+v %v, inline model %+v %v", seed, i, what, got, ok, want, wantOK)
				}
			case k < 7:
				clock++
				latest[id] = clock
				what = fmt.Sprintf("Put(%d@%d)", id, clock)
				if err := c.Put(version(id, clock)); err != nil {
					t.Fatal(err)
				}
				ref.put(version(id, clock), written)
			default:
				// An image fetched somewhere else, for a reader (k = 7) or on
				// a hint: the page's newest version, or (a flight that was
				// overtaken) an older one. Hints come in runs of pages the
				// trace has not touched, as a scan's do, so that the ahead
				// area fills and displaces.
				from, install := fetched, c.PutFetched
				if k > 7 {
					from, install = hinted, c.PutHinted
					if rng.Intn(2) == 0 {
						id = page.ID(universe + 1 + rng.Intn(3*aheadPages))
					}
				}
				lsn := latest[id]
				if lsn == 0 {
					clock++
					lsn, latest[id] = clock, clock
				} else if rng.Intn(3) == 0 {
					lsn = 1 + page.LSN(rng.Intn(int(lsn)))
				}
				what = fmt.Sprintf("put(%d@%d, origin %d)", id, lsn, from)
				installed, err := install(version(id, lsn))
				if err != nil {
					t.Fatal(err)
				}
				if want := ref.put(version(id, lsn), from); installed != want {
					t.Fatalf("seed %d op %d %s installed %v, inline model %v", seed, i, what, installed, want)
				}
			}
			within(t, "Sync", c.Sync)
			if got, want := stateOf(t, c), ref.state(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d (%d+%d pages) after op %d %s:\nwrite-behind %+v\ninline model %+v",
					seed, memPages, ssdPages, i, what, got, want)
			}
		}
	}
}

// holdDevices holds the writes of both cache devices and returns the two
// releases.
func holdDevices(c *Cache) (releaseSSD, releaseMeta func()) {
	return c.cfg.SSD.HoldWrites(), c.cfg.Meta.HoldWrites()
}

// TestNothingWaitsForTheDevice: with SSD and metadata devices whose writes
// never come back, puts that evict, fetched installs and SSD hits all return;
// every evicted page reads back at its newest version out of the backlog;
// the put that finds the backlog full — and only that one — waits, until the
// devices write again. (The inline demotion hangs at the first eviction.)
func TestNothingWaitsForTheDevice(t *testing.T) {
	c, _ := sparseCache(t, 2, 64)
	// Ten pages on the SSD tier for the SSD hits further down.
	for id := page.ID(101); id <= 112; id++ {
		_ = c.Put(version(id, 1))
	}
	within(t, "Sync on working devices", c.Sync)
	c.ResetStats()
	base := writeBehind(c)

	releaseSSD, releaseMeta := holdDevices(c)
	released := false
	release := func() {
		if !released {
			released = true
			releaseSSD()
			releaseMeta()
		}
	}
	defer release()

	newest := map[page.ID]page.LSN{}
	lsn := page.LSN(10)
	put := func(id page.ID, fetched bool) {
		lsn++
		newest[id] = lsn
		if !fetched {
			if err := c.Put(version(id, lsn)); err != nil {
				t.Error(err)
			}
		} else if installed, err := c.PutFetched(version(id, lsn)); err != nil || !installed {
			t.Errorf("PutFetched(%d@%d) = %v, %v", id, lsn, installed, err)
		}
	}
	backlog := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.backlog
	}
	within(t, "puts, fetched installs and SSD hits against devices that never answer", func() {
		// Three kinds of eviction, over five pages so that versions overtake
		// each other in the queue, until the backlog is three short of full.
		for i := 0; backlog() < backlogPages-3; i++ {
			switch i % 3 {
			case 0:
				put(page.ID(1+i%5), false)
			case 1:
				put(page.ID(1+i%5), true)
			default:
				hit := page.ID(101 + i%10)
				if pg, ok := c.Get(hit); !ok || pg.ID != hit {
					t.Errorf("Get(%d) = %+v, %v", hit, pg, ok)
				}
			}
		}
		// Pages that are nowhere on SSD fill the rest: each put queues one.
		for id := page.ID(201); backlog() < backlogPages; id++ {
			put(id, false)
		}
	})
	if _, ssdHits, _ := c.Stats(); ssdHits == 0 {
		t.Fatal("the trace was meant to include SSD hits")
	}
	if wb := writeBehind(c); wb.Written != base.Written || wb.BlockedPuts != 0 || wb.Queued != base.Queued+backlogPages {
		t.Fatalf("with the backlog just full: %+v (before the hold: %+v)", wb, base)
	}
	readBack := func(when string) {
		t.Helper()
		for id, want := range newest {
			if got, ok := cachedLSN(c, id); !ok || got != want || !c.Contains(id) {
				t.Fatalf("%s page %d: GetLSN %d %v, Contains %v; want LSN %d", when, id, got, ok, c.Contains(id), want)
			}
		}
	}
	readBack("from the backlog")
	for id, want := range newest {
		if _, resident := c.mem[id]; resident {
			continue
		}
		if pg, ok := c.Get(id); !ok || pg.LSN != want {
			t.Fatalf("page %d reads back from the backlog as %+v %v, want its newest version, LSN %d", id, pg, ok, want)
		}
	}

	// The next eviction has to wait.
	blocked := make(chan struct{})
	go func() { defer close(blocked); put(301, false) }()
	until(t, "the put that finds the backlog full to wait", func() bool { return writeBehind(c).BlockedPuts == 1 })
	select {
	case <-blocked:
		t.Fatal("a put went through a full backlog")
	default:
	}
	release()
	select {
	case <-blocked:
	case <-time.After(hangGuard):
		t.Fatal("hang: the waiting put after the devices wrote again")
	}
	within(t, "Sync after release", c.Sync)
	wb := writeBehind(c)
	if wb.Queued != wb.Written+wb.Superseded || wb.Dropped != 0 || wb.Superseded == 0 || wb.BlockedPuts != 1 {
		t.Fatalf("after the drain: %+v; want every queued page written or overtaken, some overtaken", wb)
	}
	readBack("after the drain")
}

// TestChooseSlotsOneSlotOneWriter drives the slot choice directly: batches
// that need in-place rewrites and fresh victims together, on caches so small
// that the victims run out. No slot is handed to two pages of a batch, an
// entry being rewritten is nobody's victim, and what finds no victim waits.
func TestChooseSlotsOneSlotOneWriter(t *testing.T) {
	for _, ssdPages := range []int{1, 3} {
		c, _ := sparseCache(t, 1, ssdPages)
		// Fill the SSD tier: pages 1..ssdPages, page 1 least recent.
		for id := page.ID(1); id <= page.ID(ssdPages)+1; id++ {
			_ = c.Put(version(id, 1))
		}
		within(t, "Sync", c.Sync)

		// The hot page rewritten in place at the head of the batch, then more
		// new pages than the tier has other entries, then the hot page's
		// neighbour in place.
		batch := []demotion{{id: 1, lsn: 9, pg: version(1, 9)}}
		for id := page.ID(50); id < 50+page.ID(ssdPages)+2; id++ {
			batch = append(batch, demotion{id: id, lsn: 9, pg: version(id, 9)})
		}
		batch = append(batch, demotion{id: page.ID(ssdPages), lsn: 9, pg: version(page.ID(ssdPages), 9)})

		c.mu.Lock()
		n := c.chooseSlotsLocked(batch)
		slots := map[int]page.ID{}
		for _, d := range batch[:n] {
			if d.skip {
				continue
			}
			if other, taken := slots[d.slot]; taken {
				t.Fatalf("%d SSD pages: slot %d handed to pages %d and %d of one batch", ssdPages, d.slot, other, d.id)
			}
			slots[d.slot] = d.id
			if d.hasVictim && d.victim == 1 {
				t.Fatalf("%d SSD pages: page %d took the slot that page 1 is being rewritten in", ssdPages, d.id)
			}
		}
		if !batch[0].inPlace || batch[0].slot != c.ssd[1].slot || c.ssd[1].pins != 1 {
			t.Fatalf("%d SSD pages: the hot page: %+v, entry %+v", ssdPages, batch[0], c.ssd[1])
		}
		// All other entries can be taken, one each; then the batch stops.
		if want := 1 + (ssdPages - 1); n != want {
			t.Fatalf("%d SSD pages: %d of the batch got slots, want %d (then the victims run out)", ssdPages, n, want)
		}
		if _, stillThere := c.ssd[1]; !stillThere || len(c.ssd) != 1 {
			t.Fatalf("%d SSD pages: entries after the choice: %d, page 1 there: %v", ssdPages, len(c.ssd), stillThere)
		}
		c.publishLocked(batch[:n])
		c.mu.Unlock()
	}
}

// TestBatchesMatchInlineModel: pure eviction traffic, with the drainer held
// so that real multi-page batches form — in-place rewrites, fresh victims,
// versions overtaking each other, victims running out on 1+1 and 1+3 caches.
// Drained, the cache holds what the inline model holds after the same puts:
// same pages, versions and LRU order in both tiers, the same highest LSN
// recorded for every page evicted. (Which slot a page sits in may differ: a skipped
// version takes none.) stateOf checks that every slot holds its page.
func TestBatchesMatchInlineModel(t *testing.T) {
	shapes := [][2]int{{1, 1}, {1, 3}, {2, 5}, {4, 24}}
	rounds, streams := 60, 40
	if testing.Short() {
		rounds, streams = 10, 8
	}
	// Each shape runs one long stream of uniformly drawn pages and then short
	// ones in which a quarter of the puts go to three pages: those are put
	// while resident, leave the memory tier hot, and enter the SSD tier
	// protected in the middle of a batch.
	for si := 0; si < len(shapes)*(1+streams); si++ {
		shape, skewed := shapes[si%len(shapes)], si >= len(shapes)
		memPages, ssdPages := shape[0], shape[1]
		rng := rand.New(rand.NewSource(int64(100 + si)))
		c, _ := sparseCache(t, memPages, ssdPages)
		ref := newRefCache(memPages, ssdPages)
		universe := memPages + ssdPages + 3
		var clock page.LSN
		for round := 0; round < rounds; round++ {
			if skewed && round == rounds/3 {
				break
			}
			release := c.cfg.SSD.HoldWrites()
			burst := 1 + rng.Intn(backlogPages-1) // fewer evictions than the bound: no put waits
			within(t, "a burst of puts against a held SSD", func() {
				for i := 0; i < burst; i++ {
					clock++
					id := page.ID(1 + rng.Intn(universe))
					if skewed && rng.Intn(4) == 0 {
						id = page.ID(1 + rng.Intn(3))
					}
					if err := c.Put(version(id, clock)); err != nil {
						t.Error(err)
					}
					ref.put(version(id, clock), written)
				}
			})
			release()
			within(t, "Sync", c.Sync)

			got, want := stateOf(t, c), ref.state()
			slotsOf := func(s cacheState) (lsns map[page.ID]page.LSN, slots []int) {
				lsns = map[page.ID]page.LSN{}
				for id, e := range s.SSD {
					lsns[id] = e.LSN
					slots = append(slots, e.Slot)
				}
				slots = append(slots, s.Free...)
				sort.Ints(slots)
				return lsns, slots
			}
			gotLSNs, gotSlots := slotsOf(got)
			wantLSNs, _ := slotsOf(want)
			if !reflect.DeepEqual(got.MemProt, want.MemProt) || !reflect.DeepEqual(got.MemProb, want.MemProb) ||
				!reflect.DeepEqual(got.MemLSN, want.MemLSN) || !reflect.DeepEqual(got.MemHot, want.MemHot) ||
				!reflect.DeepEqual(got.SSDProt, want.SSDProt) || !reflect.DeepEqual(got.SSDProb, want.SSDProb) ||
				!reflect.DeepEqual(gotLSNs, wantLSNs) {
				t.Fatalf("%d+%d pages, round %d (burst %d):\nwrite-behind %+v\ninline model %+v",
					memPages, ssdPages, round, burst, got, want)
			}
			for i, slot := range gotSlots {
				if slot != i {
					t.Fatalf("%d+%d pages, round %d: slots in use or free are %v, want each of 0..%d once",
						memPages, ssdPages, round, gotSlots, got.Next-1)
				}
			}
			if len(gotSlots) != got.Next || got.Next > ssdPages {
				t.Fatalf("%d+%d pages, round %d: %d slots accounted for, %d handed out", memPages, ssdPages, round, len(gotSlots), got.Next)
			}
			// The memory tier records its evictions at the puts, the SSD
			// tier when the drainer chooses slots. A version that was
			// overtaken in the queue never reached the SSD tier, where the
			// inline model wrote it: the model may evict an SSD copy this
			// cache kept pinned for the newer version, or evict a page at a
			// newer LSN than this cache ever wrote. The newest evicted
			// version of every page, which is all GetPage@LSN asks of the
			// record, is the same.
			if !reflect.DeepEqual(got.Evicted, want.Evicted) {
				t.Fatalf("%d+%d pages, round %d: eviction record\nwrite-behind %v\ninline model %v",
					memPages, ssdPages, round, got.Evicted, want.Evicted)
			}
		}
		wb := writeBehind(c)
		if skewed {
			continue
		}
		t.Logf("%d+%d pages: %+v", memPages, ssdPages, wb)
		if wb.Superseded == 0 || wb.Batches >= wb.Queued {
			t.Fatalf("%d+%d pages: %+v; the bursts were meant to form multi-page batches with overtaken versions", memPages, ssdPages, wb)
		}
	}
}

// cloneDevice copies a device's bytes, cut off at size, onto a fresh one: the
// state a crash at this moment leaves behind.
func cloneDevice(t *testing.T, d *simdisk.Device, size int64) *simdisk.Device {
	t.Helper()
	out := simdisk.New(simdisk.Instant)
	if size == 0 {
		return out
	}
	buf := make([]byte, size)
	if err := d.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := out.WriteAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkReopened opens a cache on the devices a crash left behind and checks
// what it recovered: no slot is in use twice or both in use and free; every
// row leads to its page, at the recorded LSN or newer, or to a slot that now
// holds another page (a miss); and a page that reads back is no older than
// floor says — the newest version the crashed cache had published.
func checkReopened(t *testing.T, what string, cfg Config, floor map[page.ID]page.LSN) {
	t.Helper()
	re, err := Open(cfg)
	if err != nil {
		t.Fatalf("%s: reopening: %v", what, err)
	}
	re.mu.Lock()
	used := map[int]page.ID{}
	rows := map[page.ID]refRow{}
	for id, e := range re.ssd {
		rows[id] = refRow{e.slot, e.lsn}
		if other, twice := used[e.slot]; twice {
			t.Fatalf("%s: slot %d belongs to pages %d and %d", what, e.slot, other, id)
		}
		used[e.slot] = id
	}
	for _, slot := range re.free {
		if other, twice := used[slot]; twice {
			t.Fatalf("%s: slot %d is free and belongs to page %d (0: free twice)", what, slot, other)
		}
		used[slot] = 0
	}
	if len(used) != re.nextSlot {
		t.Fatalf("%s: %d slots accounted for, %d handed out", what, len(used), re.nextSlot)
	}
	re.mu.Unlock()
	for id, row := range rows {
		pg, ok := re.Get(id)
		if !ok {
			continue
		}
		if pg.ID != id || pg.LSN.Before(row.LSN) {
			t.Fatalf("%s: row of page %d (slot %d, LSN %d) reads back %+v", what, id, row.Slot, row.LSN, pg)
		}
		if pg.LSN.Before(floor[id]) {
			t.Fatalf("%s: page %d recovered at LSN %d, older than the published LSN %d", what, id, pg.LSN, floor[id])
		}
	}
	within(t, what+": Sync of the reopened cache", re.Sync)
}

// publishedLSNs is the newest version of each page the cache has on SSD as
// of its last publication: what a crash may not go back behind.
func publishedLSNs(c *Cache) map[page.ID]page.LSN {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := map[page.ID]page.LSN{}
	for id, e := range c.ssd {
		out[id] = e.lsn
	}
	return out
}

// TestCrashAtEveryPointOfABatch cuts the run at each step of a multi-page
// batch — before its slot writes, between the slot writes and the metadata
// append, at every byte of the append — and reopens the cache on what the
// devices held at that moment (checkReopened).
func TestCrashAtEveryPointOfABatch(t *testing.T) {
	c, cfg := sparseCache(t, 1, 4)
	crashed := func(metaSize int64) Config {
		cut := cfg
		cut.SSD = cloneDevice(t, cfg.SSD, cfg.SSD.Size())
		cut.Meta = cloneDevice(t, cfg.Meta, metaSize)
		return cut
	}
	var clock page.LSN
	put := func(ids ...page.ID) {
		for _, id := range ids {
			clock++
			if err := c.Put(version(id, clock)); err != nil {
				t.Fatal(err)
			}
		}
	}
	batches := func() int64 { return writeBehind(c).Batches }
	ssdWrites := func() int64 { _, w, _, _ := cfg.SSD.Stats(); return w }

	// Fill the SSD tier and rewrite two of its pages, so that their recorded
	// LSNs are stale: {1@5, 2@6, 3@3, 4@4}, 5@7 in memory.
	put(1, 2, 3, 4, 1, 2, 5)
	within(t, "Sync", c.Sync)
	before := batches()

	// Behind a held SSD the first eviction goes out as a batch of its own
	// and waits at the device ...
	releaseSSD := cfg.SSD.HoldWrites()
	put(8)
	until(t, "the drainer to take the first eviction", func() bool { return batches() == before+1 })
	// ... and the rest queue up behind it: a new page (8), an in-place
	// rewrite (1), a version that is overtaken in the queue (6@10, whose turn
	// is passed), another new page (7, which takes the slot of 2), 2 again,
	// and 6@14 — for which the tier has no victim left in this batch.
	put(1, 6, 7, 2, 6, 6, 9)
	// Let the one-page batch through to the metadata device, hold the SSD
	// again behind it, and let it finish: the drainer chooses the big batch
	// and stops at the SSD.
	releaseMeta := cfg.Meta.HoldWrites()
	written := ssdWrites()
	releaseSSD()
	until(t, "the first batch's slot write", func() bool { return ssdWrites() == written+1 })
	releaseSSD = cfg.SSD.HoldWrites()
	releaseMeta()
	until(t, "the second batch to be chosen", func() bool { return batches() == before+2 })
	releaseMeta = cfg.Meta.HoldWrites()
	floor := publishedLSNs(c)
	metaBefore := cfg.Meta.Size()

	checkReopened(t, "before the slot writes", crashed(metaBefore), floor)

	written = ssdWrites()
	releaseSSD()
	until(t, "the second batch's four slot writes", func() bool { return ssdWrites() == written+4 })
	releaseSSD = cfg.SSD.HoldWrites() // the third batch (6@14) stops here
	checkReopened(t, "between the slot writes and the append", crashed(metaBefore), floor)

	releaseMeta()
	until(t, "the second batch to publish and the third to be chosen", func() bool { return batches() == before+3 })
	metaAfter := cfg.Meta.Size()
	if metaAfter <= metaBefore {
		t.Fatalf("the batch appended nothing (%d -> %d bytes)", metaBefore, metaAfter)
	}
	for cut := metaBefore; cut <= metaAfter; cut++ {
		checkReopened(t, fmt.Sprintf("append torn at byte %d of [%d,%d]", cut, metaBefore, metaAfter), crashed(cut), floor)
	}
	checkReopened(t, "after the batch", crashed(metaAfter), publishedLSNs(c))

	releaseSSD()
	within(t, "Sync", c.Sync)
	checkReopened(t, "drained", crashed(cfg.Meta.Size()), publishedLSNs(c))
	if got, want := publishedLSNs(c), (map[page.ID]page.LSN{1: 9, 7: 11, 2: 12, 6: 14}); !reflect.DeepEqual(got, want) {
		t.Fatalf("SSD tier after the drain: %v, want %v", got, want)
	}
}

// TestDeviceFailureDropsTheBatch: write-behind has no caller to report a
// failed device write to. The batch's pages leave the cache — a later Get
// misses rather than reading an older copy — the failure is counted, the
// eviction record still names the lost version, and the tier's slot
// accounting stays whole, in the running cache and in one reopened on the
// same devices.
func TestDeviceFailureDropsTheBatch(t *testing.T) {
	c, _ := sparseCache(t, 1, 3)
	cfg := c.cfg
	put := func(id page.ID, lsn page.LSN) {
		t.Helper()
		if err := c.Put(version(id, lsn)); err != nil {
			t.Fatalf("Put reported the drainer's trouble: %v", err)
		}
	}
	gone := func(when string, id page.ID, lost page.LSN, dropped int64) {
		t.Helper()
		within(t, "Sync", c.Sync)
		if wb := writeBehind(c); wb.Dropped != dropped {
			t.Fatalf("%s: %+v, want %d dropped", when, wb, dropped)
		}
		if pg, ok := c.Get(id); ok {
			t.Fatalf("%s: page %d reads back as %+v after version %d of it was lost", when, id, pg, lost)
		}
		if got := c.EvictedLSN(id); got != lost {
			t.Fatalf("%s: page %d's eviction is recorded at LSN %d, want %d", when, id, got, lost)
		}
	}
	// SSD {1, 3, 2} (front first), 4 in memory; then 1 again, at LSN 7.
	put(2, 1)
	put(3, 1)
	put(1, 1)
	put(4, 1)
	put(1, 7) // 4 takes the slot of 2
	within(t, "Sync", c.Sync)

	// An in-place rewrite fails at the SSD: the old copy must go with it.
	cfg.SSD.FailNext(fmt.Errorf("injected slot write failure"))
	put(5, 8) // evicts 1@7 into the failing write
	gone("slot write failed", 1, 7, 1)

	// A new page fails at the metadata append, its slot already written and
	// its victim already gone.
	put(6, 9) // 5 takes the freed slot: SSD {5, 4, 3}
	within(t, "Sync", c.Sync)
	cfg.Meta.FailNext(fmt.Errorf("injected append failure"))
	put(7, 10) // evicts 6@9, which takes the slot of 3
	gone("append failed", 6, 9, 2)
	if c.Contains(3) {
		t.Fatal("the victim of a dropped page came back")
	}

	// The metadata device stays down: the victim's row cannot be deleted, so
	// its slot stays out of use — the row would claim it after a restart.
	put(8, 11) // 7 takes the slot freed above: SSD {7, 5, 4}
	within(t, "Sync", c.Sync)
	cfg.Meta.SetOutage(true)
	put(9, 12) // evicts 8@11, which takes the slot of 4
	gone("metadata device down", 8, 11, 3)
	cfg.Meta.SetOutage(false)

	// The cache goes on working on the slots it has left.
	for i := 0; i < 20; i++ {
		put(page.ID(20+i%6), page.LSN(100+i))
	}
	within(t, "Sync", c.Sync)
	stateOf(t, c)
	checkReopened(t, "after the failures", cfg, publishedLSNs(c))
}

// TestPutReusedPagePointer is bench/probes.go's rbpex.put_evict: one Page
// value, its ID rewritten before every Put — against the ownership rule, but
// it must not wedge the queue: the bookkeeping goes by the ID and LSN
// captured at eviction.
func TestPutReusedPagePointer(t *testing.T) {
	testutil.SkipIfRace(t) // the probe's rewrites race the drainer's reads by construction
	c, _ := sparseCache(t, 64, 256)
	pg := &page.Page{LSN: 1, Type: page.TypeLeaf, Data: make([]byte, 4096)}
	within(t, "20,000 puts of one reused page", func() {
		for i := 0; i < 20000; i++ {
			pg.ID = page.ID(1 + i)
			if err := c.Put(pg); err != nil {
				t.Error(err)
				return
			}
		}
	})
	within(t, "Sync", c.Sync)
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.demoting) != 0 || c.backlog != 0 || len(c.ssd) > 256 {
		t.Fatalf("after the probe: %d pages in demoting, backlog %d, %d SSD entries", len(c.demoting), c.backlog, len(c.ssd))
	}
}

// TestPutEvictAllocs is the allocation contract of the evicting Put on a
// sparse cache, drainer included (it runs inside the measured window: each
// run ends with a Sync). In steady state — memory and SSD tiers full, every
// Put pushing one page out of each — a page costs its two tier entries with
// their LRU elements and its metadata row; the batch, its images and its
// metadata changes live in pooled space, and nothing is allocated per page
// to run the drainer.
func TestPutEvictAllocs(t *testing.T) {
	testutil.SkipIfRace(t)
	c, _ := sparseCache(t, 8, 32)
	const runs = 500
	pages := make([]*page.Page, 0, runs+200)
	for i := 0; i < cap(pages); i++ {
		pages = append(pages, version(page.ID(1+i), page.LSN(1+i)))
	}
	next := 0
	for ; next < 150; next++ { // fill both tiers, grow the maps and the pooled buffers
		_ = c.Put(pages[next])
		c.Sync()
	}
	avg := testing.AllocsPerRun(runs, func() {
		_ = c.Put(pages[next])
		next++
		c.Sync()
	})
	const budget = 9
	t.Logf("evicting put: %.2f allocs/op (budget %d)", avg, budget)
	if avg > budget {
		t.Fatalf("evicting put: %.2f allocs/op, budget %d", avg, budget)
	}
}
