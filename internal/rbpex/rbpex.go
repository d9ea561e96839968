// Package rbpex implements RBPEX, the Resilient Buffer Pool EXtension
// (§3.3): a two-tier page cache — main memory over local SSD — whose SSD
// tier survives process restarts. Compute nodes and page servers both use
// it; only the policy differs:
//
//   - sparse (compute nodes): the cache holds the hottest pages; both tiers
//     evict from a segmented LRU, and the cache keeps the highest LSN of every
//     page it evicted (EvictedLSN): the minimum LSN of the node's
//     GetPage@LSN, and the floor below which no fetched image is installed.
//   - covering (page servers): the SSD tier holds every page of the
//     partition at a fixed slot — slot k holds page base+k — written
//     through on every put, so it never evicts and a restart recovers the
//     whole partition from it.
//
// Cache metadata (which page sits in which SSD slot, at which LSN) lives in
// a hekaton table on the same SSD, so Open after a crash recovers the SSD
// tier: only the log records newer than each cached page's LSN need to be
// replayed, instead of refetching the whole working set from remote
// servers. That is the mean-time-to-recovery win the paper describes.
//
// A sparse cache demotes write-behind (DESIGN §18): a page that leaves the
// memory tier is parked where every reader still finds it and queued for one
// background drainer, which writes slots in batches and makes a batch's
// metadata durable with one append. A Put never waits for the SSD.
//
// Admission is scan-resistant (DESIGN §20): both tiers keep the pages that
// were referenced twice apart from those that were referenced once (segLRU),
// and what read-ahead brings in waits outside the tiers, in the ahead area,
// until somebody reads it.
package rbpex

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"socrates/internal/hekaton"
	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/simdisk"
)

// Config describes a cache instance.
type Config struct {
	// MemPages is the memory-tier capacity in pages (≥ 1).
	MemPages int
	// SSDPages is the SSD-tier capacity in pages; 0 disables the SSD tier
	// (plain volatile buffer pool). Ignored in covering mode, where the
	// tier is sized by the partition.
	SSDPages int
	// Covering selects the page-server policy: the SSD tier covers the
	// whole partition [Base, Base+SSDPages) and never evicts.
	Covering bool
	// Base is the first page ID of the partition (covering mode).
	Base page.ID
	// SSD is the device holding page slots. Required if SSDPages > 0.
	SSD *simdisk.Device
	// Meta is the device holding the recoverable metadata table. Required
	// if SSDPages > 0.
	Meta *simdisk.Device
	// Waits, if set, receives a page.miss wait for every memory-tier miss
	// served from the SSD tier (the time the caller spent blocked on the
	// slot read), and a backpressure wait for every put that found the
	// write-behind backlog full. Nil disables recording.
	Waits *obs.WaitRecorder
}

type memEntry struct {
	node
	pg *page.Page
}

type ssdEntry struct {
	node // unlinked in covering mode
	slot int
	lsn  page.LSN
	// pins counts the demotions that have chosen to rewrite this entry's
	// slot in place and have not published yet. A pinned entry is not an
	// eviction candidate: its slot is being written.
	pins int
}

// backlogPages bounds the write-behind backlog — pages that have left the
// memory tier and are not on the SSD tier yet. One read-ahead window
// (btree.ReadAhead), 128 KB at most: the evictions of a window's reads never
// wait for the drainer. A put that has to evict with the backlog full waits
// for the drainer.
const backlogPages = 16

// aheadPages bounds the ahead area: one read-ahead window and the page its
// scan is on — before a scan reads child i it has hinted children i+1 … i+16,
// and child i, hinted earlier, may still be waiting there. One scan's hints
// therefore never displace each other.
const aheadPages = backlogPages + 1

// demotion is one page on its way from the memory tier to the SSD tier.
type demotion struct {
	// id and lsn are the page's as captured when it left the memory tier;
	// all bookkeeping goes by them, never by pg's fields.
	id  page.ID
	lsn page.LSN
	pg  *page.Page
	// hot says the page had been protected in the memory tier: it is
	// protected in the SSD tier.
	hot bool
	// seq orders evictions (from 1); zero marks a synchronous demotion, which
	// was never queued. Of two queued versions of one page the higher seq is
	// the one that counts.
	seq uint64

	// What chooseSlotsLocked decided, for writeSlots and publishLocked.
	skip      bool // nothing to write: the SSD copy is current, the page had a turn in this round already (again), or the turn is passed
	again     bool
	passed    bool // overtaken before the page had any place in the tier: the turn leaves no trace
	pinned    bool // holds a pin on the page's SSD entry until the batch is published
	slot      int
	inPlace   bool // rewrites the slot of its (pinned) SSD entry; no metadata row changes
	hasVictim bool // took the slot of victim, whose row the batch deletes
	victim    page.ID
}

// slotWriter is the working space of one run of the batch routine
// (carry): the batch, the images of its pages built in memory, the image
// each page is written as, and its metadata changes.
type slotWriter struct {
	batch  []demotion
	images []byte
	bufs   [][]byte
	offs   []int64
	ops    []hekaton.Op
	vals   []byte // the batch's metadata row values, 16 bytes each
}

var slotWriters = sync.Pool{New: func() any { return new(slotWriter) }}

// done returns the working space to the pool, without the pages of its last
// batch.
func (w *slotWriter) done() {
	clear(w.batch[:cap(w.batch)])
	slotWriters.Put(w)
}

// Cache is one RBPEX instance.
type Cache struct {
	cfg  Config
	meta *hekaton.Table

	// round serializes runs of the batch routine on a sparse cache: slots
	// are chosen by one writer at a time — the drainer, or a synchronous
	// Seed/FlushAll. Covering slots are fixed by the layout and need none.
	round sync.Mutex

	mu     sync.Mutex
	mem    map[page.ID]*memEntry
	memLRU segLRU
	// ahead is the ahead area, oldest first: pages installed by read-ahead
	// that nobody has read yet (DESIGN §20.1). They are in the cache for
	// every lookup and in no tier: arriving, one evicts nothing but the
	// oldest of its kind; its first Get moves it into the memory tier; pushed
	// out unread it leaves the cache without ever being queued for the SSD
	// tier. A parked page is nowhere else in the cache.
	ahead []*page.Page
	// demoting holds the newest version of every page that has left the
	// memory tier and is not published on the SSD tier yet: queued, or being
	// written. Until then the SSD slot holds an older image (or none), so Get
	// serves these from here: a reader must never promote that older image
	// over the version on its way.
	demoting map[page.ID]demotion
	// queue is the write-behind backlog in eviction order; backlog counts it
	// plus the batch the drainer is writing. The drainer runs while the
	// queue is non-empty (draining) and signals wake whenever the backlog
	// shrinks — to puts waiting for room and to Sync.
	queue    []demotion
	backlog  int
	evictSeq uint64
	draining bool
	wake     *sync.Cond
	ssd      map[page.ID]*ssdEntry
	ssdLRU   segLRU // sparse mode only
	free     []int
	nextSlot int
	// claimed counts fresh slots chosen for demotions that have not
	// published yet: they fill the tier like entries do.
	claimed int

	// The counts of the write-behind queue and the ahead area, nil until
	// Instrument registers them. What became of the pages PutHinted put in
	// the ahead area (parked): read there — moved into the memory tier by
	// their first Get — or displaced, pushed out unread by newer read-ahead.
	// The rest are still parked, or a put of the page superseded them.
	queued, written, superseded, dropped, batches, blockedPuts *obs.Counter
	parked, aheadRead, displaced                               *obs.Counter

	firstRead *obs.Counter // see Instrument
	flight    *obs.FlightRecorder

	// evicted is "the highest LSN for every page evicted" (§4.4), recorded
	// in the critical section that takes the page out of a tier, so a miss
	// that finds the page gone finds its LSN here. Sparse caches only: a
	// covering cache keeps every page and nobody asks it.
	evicted map[page.ID]page.LSN

	memHits atomic.Int64
	ssdHits atomic.Int64
	misses  atomic.Int64
}

// Open creates or recovers a cache. If the metadata device already holds a
// table (a previous incarnation's), the SSD tier is recovered from it.
func Open(cfg Config) (*Cache, error) {
	if cfg.MemPages < 1 {
		return nil, errors.New("rbpex: MemPages must be >= 1")
	}
	if cfg.Covering && cfg.SSDPages < 1 {
		return nil, errors.New("rbpex: covering cache needs SSDPages")
	}
	c := &Cache{
		cfg:      cfg,
		mem:      make(map[page.ID]*memEntry),
		ahead:    make([]*page.Page, 0, aheadPages),
		demoting: make(map[page.ID]demotion),
		queue:    make([]demotion, 0, backlogPages),
		ssd:      make(map[page.ID]*ssdEntry),
	}
	if !cfg.Covering {
		c.evicted = make(map[page.ID]page.LSN)
	}
	c.memLRU.init(cfg.MemPages)
	c.ssdLRU.init(cfg.SSDPages)
	c.wake = sync.NewCond(&c.mu)
	if cfg.SSDPages > 0 {
		if cfg.SSD == nil || cfg.Meta == nil {
			return nil, errors.New("rbpex: SSD tier requires SSD and Meta devices")
		}
		meta, err := hekaton.Open(cfg.Meta)
		if err != nil {
			return nil, fmt.Errorf("rbpex: recovering metadata: %w", err)
		}
		c.meta = meta
		// Rebuild the slot map from recovered metadata.
		type row struct {
			id   page.ID
			slot int
			lsn  page.LSN
		}
		var rows []row
		meta.Range(func(key string, val []byte) bool {
			if len(val) != 16 {
				return true
			}
			id, ok := decodeMetaKey(key)
			if !ok {
				return true
			}
			rows = append(rows, row{
				id:   id,
				slot: int(binary.LittleEndian.Uint64(val[0:8])),
				lsn:  page.LSN(binary.LittleEndian.Uint64(val[8:16])),
			})
			return true
		})
		used := make(map[int]bool)
		for _, r := range rows {
			e := &ssdEntry{node: node{id: r.id}, slot: r.slot, lsn: r.lsn}
			if !cfg.Covering {
				c.ssdLRU.admit(&e.node, false)
			}
			c.ssd[r.id] = e
			used[r.slot] = true
			if r.slot >= c.nextSlot {
				c.nextSlot = r.slot + 1
			}
		}
		if !cfg.Covering {
			for s := 0; s < c.nextSlot; s++ {
				if !used[s] {
					c.free = append(c.free, s)
				}
			}
		}
	}
	return c, nil
}

func metaKey(id page.ID) string {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(id))
	return string(b[:])
}

func decodeMetaKey(key string) (page.ID, bool) {
	if len(key) != 8 {
		return 0, false
	}
	return page.ID(binary.BigEndian.Uint64([]byte(key))), true
}

// slotFor computes the SSD slot for a page in covering mode.
func (c *Cache) slotFor(id page.ID) int { return int(id - c.cfg.Base) }

// Get returns the cached page and whether it was found. The page is the
// cache's own, shared with every other reader and immutable (DESIGN §16):
// a memory hit hands out the stored pointer and copies nothing. The first Get
// of a page read-ahead parked is a memory hit too, and moves the page into
// the memory tier. SSD hits pay one SSD read, decode in that buffer, and
// promote the page to the memory tier.
//
//socrates:hotpath every page read of either user starts here, and on a warm node ends at the first return; budget enforced by TestGetHitAllocs
func (c *Cache) Get(id page.ID) (*page.Page, bool) {
	c.mu.Lock()
	if e, ok := c.mem[id]; ok {
		c.memLRU.touch(&e.node)
		pg := e.pg
		c.mu.Unlock()
		c.memHits.Add(1)
		return pg, true
	}
	if pg := c.unparkLocked(id); pg != nil {
		c.aheadRead.Inc()
		c.firstRead.Inc()
		//socrates:lock-ok evictLocked starts the drainer, it does not run it: round is taken on the drainer's own goroutine, and nothing takes round while holding mu
		c.admitLocked(id, pg, false)
		c.mu.Unlock()
		c.memHits.Add(1)
		return pg, true
	}
	if d, ok := c.demoting[id]; ok {
		c.mu.Unlock()
		c.memHits.Add(1)
		return d.pg, true
	}
	e, ok := c.ssd[id]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	slot := e.slot
	if !c.cfg.Covering {
		c.ssdLRU.touch(&e.node)
	}
	c.mu.Unlock()
	return c.readSlot(id, slot)
}

// readSlot is the rest of an SSD hit: the slot read, without the lock, and the
// promotion — on a sparse cache into the protected segment of the memory
// tier, this being a second reference to the page.
func (c *Cache) readSlot(id page.ID, slot int) (*page.Page, bool) {
	// page.miss: the memory tier missed and the caller blocks on the SSD
	// slot read. Aggregate-only; cache reads carry no request context.
	region := c.cfg.Waits.Begin(nil, obs.WaitPageMiss)
	buf := make([]byte, page.Size)
	if err := c.cfg.SSD.ReadAt(buf, int64(slot)*page.Size); err != nil {
		region.End()
		c.misses.Add(1)
		return nil, false
	}
	region.End()
	pg, err := page.Decode(buf)
	if err != nil || pg.ID != id {
		// Torn or stale slot: treat as a miss; the caller refetches.
		c.misses.Add(1)
		return nil, false
	}
	c.ssdHits.Add(1)
	//socrates:ignore-err promotion only refreshes the memory tier; the SSD copy just read remains authoritative, so a failed promote costs one re-read
	_, _ = c.put(pg, promoted)
	return pg, true
}

// aheadIndexLocked finds the page in the ahead area (-1: not parked). At most
// aheadPages entries, looked through only when the memory tier has missed.
// Caller holds c.mu.
func (c *Cache) aheadIndexLocked(id page.ID) int {
	for i, pg := range c.ahead {
		if pg.ID == id {
			return i
		}
	}
	return -1
}

// unparkLocked takes the page out of the ahead area, if it is there. Caller
// holds c.mu.
func (c *Cache) unparkLocked(id page.ID) *page.Page {
	i := c.aheadIndexLocked(id)
	if i < 0 {
		return nil
	}
	pg := c.ahead[i]
	c.ahead = slices.Delete(c.ahead, i, i+1)
	return pg
}

// parkLocked puts a page read-ahead fetched in the ahead area. It evicts
// nothing from either tier: with the area full the oldest page in it, which
// nobody came to read, leaves the cache — recorded like any eviction, written
// nowhere. Caller holds c.mu.
func (c *Cache) parkLocked(pg *page.Page) {
	if len(c.ahead) == aheadPages {
		old := c.ahead[0]
		c.ahead = slices.Delete(c.ahead, 0, 1)
		c.displaced.Inc()
		c.evictedLocked(old.ID, old.LSN)
	}
	c.ahead = append(c.ahead, pg)
	c.parked.Inc()
}

// Parked returns the page if it is waiting in the ahead area, and leaves it
// there: a look, not the read the page is waiting for. Log apply brings a
// parked page up to date with it — PutHinted puts the next version in the
// place of this one — without becoming the page's reader.
func (c *Cache) Parked(id page.ID) (*page.Page, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i := c.aheadIndexLocked(id); i >= 0 {
		return c.ahead[i], true
	}
	return nil, false
}

// Contains reports whether the page is cached: in either tier, on its way
// from one to the other, or in the ahead area. Unlike Get it reads nothing,
// moves nothing and counts nothing.
func (c *Cache) Contains(id page.ID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tieredLocked(id) || c.aheadIndexLocked(id) >= 0
}

// tieredLocked reports whether the page is in a tier or between the two.
// Caller holds c.mu.
func (c *Cache) tieredLocked(id page.ID) bool {
	_, inMem := c.mem[id]
	_, inFlight := c.demoting[id]
	_, inSSD := c.ssd[id]
	return inMem || inFlight || inSSD
}

// Put inserts or updates the page in the memory tier, evicting as needed.
// The cache takes ownership: the caller must not modify pg afterwards. Put
// is for the newest version there is — a page just written, or redo applied
// to the cached one; an image that was read somewhere else a while ago goes
// through PutFetched.
func (c *Cache) Put(pg *page.Page) error {
	_, err := c.put(pg, written)
	return err
}

// PutFetched is Put for an image fetched from another copy of the database
// (GetPage@LSN) while this cache stayed in use: it must never move a page
// backwards. The image is dropped — installed reports false, and the caller
// keeps pg for the reader that asked for it — when the cache already holds a
// version at least as new (supersededLocked), or when a newer version has
// left the cache (EvictedLSN). Both are read in the critical section that
// installs, so neither answer can go stale before the install.
func (c *Cache) PutFetched(pg *page.Page) (installed bool, err error) {
	return c.put(pg, fetched)
}

// PutHinted is PutFetched for an image nobody is waiting for: read-ahead
// fetched it on a hint. Under the same rule — it never moves a page backwards
// — the image is parked in the ahead area instead of the memory tier, unless
// the cache holds an older version of the page somewhere: then it takes that
// version's place, as PutFetched would have it. (A PutFetched of a parked page,
// in the parked version or a newer one, takes it out of the area: a reader
// has it now.)
func (c *Cache) PutHinted(pg *page.Page) (installed bool, err error) {
	return c.put(pg, hinted)
}

// EvictedLSN reports the highest LSN at which the page left the cache, zero
// if it never did (or the cache is covering). The record outlives the page's
// return: it is the newest version known to exist outside, which a
// GetPage@LSN for the page must ask for at least.
func (c *Cache) EvictedLSN(id page.ID) page.LSN {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evicted[id]
}

// origin says where the image handed to put comes from.
type origin int

const (
	written  origin = iota // Put: the newest version there is
	fetched                // PutFetched: read from another copy of the database
	hinted                 // PutHinted: fetched, and nobody has asked for it yet
	promoted               // read back from the SSD tier by a Get
)

// supersededLocked reports whether the cache already holds the page in a
// version at least as new as pg, an image that was read without the lock —
// from the SSD tier (promotion) or from a page server (PutFetched). A newer
// version may meanwhile have been Put (resident), evicted again (in flight
// to SSD), or landed on SSD; installing pg then would shadow it in the
// memory tier. Caller holds c.mu.
func (c *Cache) supersededLocked(pg *page.Page, from origin) bool {
	if e, resident := c.mem[pg.ID]; resident {
		return e.pg.LSN.AtLeast(pg.LSN)
	}
	if i := c.aheadIndexLocked(pg.ID); i >= 0 {
		// The parked version itself, fetched for a reader, is not
		// superseded: somebody has read the page now, and the put takes it
		// into the memory tier.
		return c.ahead[i].LSN.After(pg.LSN) || (from != fetched && c.ahead[i].LSN == pg.LSN)
	}
	if d, inFlight := c.demoting[pg.ID]; inFlight {
		return d.lsn.AtLeast(pg.LSN)
	}
	e, onSSD := c.ssd[pg.ID]
	return onSSD && e.lsn.After(pg.LSN)
}

// put installs pg: in the ahead area if it is hinted and new to the cache, in
// the memory tier otherwise. An image that was read without the lock (every
// origin but written) and lost the race to a newer version is dropped — the
// reader keeps its older, consistent image and the cache keeps the newer one.
func (c *Cache) put(pg *page.Page, from origin) (installed bool, err error) {
	// Covering caches are dense: the SSD tier holds every page at all
	// times (recovery depends on it), so puts write through. demote skips the I/O when the SSD copy is already current.
	if c.cfg.Covering {
		if err := c.demote(pg); err != nil {
			return false, err
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// A promotion reads back the cache's own copy; only an image from
	// elsewhere answers to the eviction record.
	if from != written && (c.supersededLocked(pg, from) || (from != promoted && c.evicted[pg.ID].After(pg.LSN))) {
		return false, nil
	}
	if e, ok := c.mem[pg.ID]; ok {
		e.pg = pg
		c.memLRU.touch(&e.node)
		return true, nil
	}
	switch i := c.aheadIndexLocked(pg.ID); {
	case i >= 0 && from == hinted:
		c.ahead[i] = pg // the same flight's image again, with the redo that arrived since
		return true, nil
	case i >= 0:
		c.ahead = slices.Delete(c.ahead, i, i+1) // superseded unread
	case from == hinted && !c.tieredLocked(pg.ID):
		c.parkLocked(pg)
		return true, nil
	}
	// Read back from a sparse SSD tier the page is referenced a second time.
	// A covering tier holds every page: being there says nothing.
	//socrates:lock-ok evictLocked starts the drainer, it does not run it: round is taken on the drainer's own goroutine, and nothing takes round while holding mu
	c.admitLocked(pg.ID, pg, from == promoted && !c.cfg.Covering)
	return true, nil
}

// admitLocked gives the page an entry in the memory tier — on probation, or
// protected — and evicts to make room for it. Caller holds c.mu.
func (c *Cache) admitLocked(id page.ID, pg *page.Page, protected bool) {
	e := &memEntry{node: node{id: id}, pg: pg}
	c.mem[id] = e
	c.memLRU.admit(&e.node, protected)
	for len(c.mem) > c.cfg.MemPages {
		if !c.evictLocked() {
			c.awaitDrainerLocked()
		}
	}
}

// evictLocked takes the memory tier's victim out of it. With an SSD tier
// the page stays cached: it is parked in demoting and queued for the
// drainer, and nobody waits for the device. It reports false, having done
// nothing, when the page has to be queued and the backlog is full. Caller
// holds c.mu.
//
//socrates:hotpath once per Put that evicts, on the read path (install) and under the commit latch (Write); budget enforced by TestPutEvictAllocs
func (c *Cache) evictLocked() bool {
	victim := c.memLRU.victim(nil)
	id, hot := victim.id, victim.wasProtected
	pg := c.mem[id].pg
	lsn := pg.LSN
	tiered := c.cfg.SSDPages > 0
	// A page whose SSD copy is already current is not queued; its recency
	// on the SSD tier is refreshed now, as a demotion would have.
	queue := tiered && !c.ssdCurrentLocked(id, lsn, hot)
	if queue && c.backlog >= backlogPages {
		return false
	}
	c.memLRU.remove(victim)
	delete(c.mem, id)
	// Record the eviction atomically with the removal from the memory
	// tier — even when the page is headed for the SSD tier, because a
	// failed demotion write drops it from the cache and a later miss must
	// still learn its LSN ("the highest LSN for every page evicted", §4.4).
	c.evictedLocked(id, lsn)
	if !queue {
		return true
	}
	c.evictSeq++
	d := demotion{id: id, lsn: lsn, pg: pg, seq: c.evictSeq, hot: hot}
	c.demoting[id] = d
	// The queue's backing array has room for the whole backlog from Open on.
	c.queue = append(c.queue, d)
	c.backlog++
	c.queued.Inc()
	if !c.draining {
		c.draining = true
		// The drainer ends itself when it finds the queue empty; a cache
		// nobody uses any more has none, and needs no Close.
		go c.drain()
	}
	return true
}

// ssdCurrentLocked reports whether the SSD tier holds the page at lsn or
// newer, and if so refreshes the copy's recency. Caller holds c.mu.
func (c *Cache) ssdCurrentLocked(id page.ID, lsn page.LSN, hot bool) bool {
	e, ok := c.ssd[id]
	if !ok || e.lsn.Before(lsn) {
		return false
	}
	c.redemotedLocked(e, hot)
	return true
}

// redemotedLocked is what a demotion does to the replacement order of the SSD
// tier when the tier holds the page already: a page that had been protected
// in memory is protected here, any other moves to the head of its segment.
// Caller holds c.mu.
func (c *Cache) redemotedLocked(e *ssdEntry, hot bool) {
	switch {
	case c.cfg.Covering:
	case hot:
		c.ssdLRU.touch(&e.node)
	default:
		c.ssdLRU.refresh(&e.node)
	}
}

// awaitDrainerLocked blocks a put that must evict while the backlog is full
// until the drainer has made room. Caller holds c.mu.
func (c *Cache) awaitDrainerLocked() {
	c.blockedPuts.Inc()
	region := c.cfg.Waits.Begin(nil, obs.WaitBackpressure)
	for c.backlog >= backlogPages {
		c.wake.Wait()
	}
	region.End()
}

// Sync returns when the write-behind backlog is empty: every page evicted
// from the memory tier so far is on the SSD tier (or, after a device
// failure, out of the cache).
func (c *Cache) Sync() {
	c.mu.Lock()
	for c.backlog > 0 {
		c.wake.Wait()
	}
	c.mu.Unlock()
}

// drain is the write-behind drainer: one goroutine, alive while the queue is
// non-empty, carrying the whole queue to the SSD tier one batch per round.
func (c *Cache) drain() {
	w := slotWriters.Get().(*slotWriter)
	defer w.done()
	for {
		c.mu.Lock()
		if len(c.queue) == 0 {
			c.draining = false
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
		//socrates:ignore-err write-behind has no caller to tell; carry has already dropped the batch's pages from the cache and counted them (the dropped count), and their evictions were recorded when they left the memory tier
		_ = c.carry(w, true)
	}
}

// demote writes one page through to the SSD tier and returns when it is
// there: the batch routine with a batch of one. Covering puts, Seed and
// FlushAll use it.
func (c *Cache) demote(pg *page.Page) error {
	w := slotWriters.Get().(*slotWriter)
	defer w.done()
	w.batch = append(w.batch[:0], demotion{id: pg.ID, lsn: pg.LSN, pg: pg})
	return c.carry(w, false)
}

// carry is the batch routine: it moves a batch of demotions — the whole
// queue (fromQueue) or the one page in w.batch — into the SSD tier. Slots
// are chosen for all of them in one critical section, the images are written
// side by side, one append makes the batch's metadata rows durable, and only
// then are the pages published as SSD entries and released from demoting. A
// slot is thus written before any durable row names it, and nothing the tier
// claims to hold is missing from it. If a device write fails the batch's
// pages leave the cache.
func (c *Cache) carry(w *slotWriter, fromQueue bool) error {
	if !c.cfg.Covering {
		c.round.Lock()
		defer c.round.Unlock()
	}
	c.mu.Lock()
	if fromQueue {
		w.batch = append(w.batch[:0], c.queue...)
	}
	n := c.chooseSlotsLocked(w.batch)
	if fromQueue {
		// What found no slot this round stays queued, in order.
		rest := copy(c.queue, c.queue[n:])
		clear(c.queue[rest:]) // the queue must not keep written pages alive
		c.queue = c.queue[:rest]
		c.batches.Inc()
	}
	w.batch = w.batch[:n]
	c.mu.Unlock()

	err := c.writeSlots(w)
	rowsGone := err != nil && c.deleteRows(w)

	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.abandonLocked(w.batch, rowsGone)
	} else {
		c.publishLocked(w.batch)
	}
	c.wake.Broadcast() // the backlog shrank: puts waiting for room, Sync
	return err
}

// chooseSlotsLocked decides, for the demotions of batch in order, what each
// writes where, and returns how many it got to: the SSD tier can run out of
// victims mid-batch, and the rest then waits for the next round, whose
// victims are this round's pages. The first demotion of a round always gets
// its slot. Caller holds c.mu.
//
// The choices are those the demotions would make one after another, each
// published before the next begins. What stands in for the publication is
// the pin: an entry whose slot is being rewritten in place is no victim for
// the demotions behind it (published, it would sit at the head of its
// segment). And the round takes no victim from the protected segment while
// probation, had its own pages been published already, might not be empty:
// published, the round's probationers would be the victims, or a pinned
// entry — one on probation, or one that a page entering protected earlier in
// the round would have pushed there.
func (c *Cache) chooseSlotsLocked(batch []demotion) int {
	onProbation := false // the round has given a slot to a page that will enter on probation
	for i := range batch {
		d := &batch[i]
		e, exists := c.ssd[d.id]
		// Of the versions of a page queued behind one another, the newest is
		// written, at the turn of the first: there the page takes its place
		// in the tier, as if that version had been written, and the turns
		// behind it in the round move it in the replacement order and
		// nothing else — like the turn of a page whose SSD copy is current.
		d.again = d.seq != 0 && slices.ContainsFunc(batch[:i], func(b demotion) bool { return b.id == d.id && !b.passed })
		newest := c.demoting[d.id]
		overtaken := d.seq != 0 && newest.seq != d.seq
		// Except where the tier does not hold the page and the overtaken
		// version would enter on probation: that turn is passed, and the page
		// enters at a later one. Written, the version would have waited on
		// probation for the next, or fallen out before it came: the tier
		// would have taken its victims one turn earlier and be the same tier
		// after the later turn, for a slot write and a metadata row more. (A
		// version that enters protected is not passed: there and then it
		// pushes a protected page onto probation.)
		if d.passed = overtaken && !exists && !d.again && !d.hot; d.passed {
			d.skip = true
			continue
		}
		if overtaken {
			d.lsn, d.pg = newest.lsn, newest.pg
		}
		d.skip = d.again || (exists && e.lsn.AtLeast(d.lsn))
		if exists {
			e.pins++
			d.pinned = true
			d.slot, d.inPlace = e.slot, !d.skip
		}
		if exists || d.skip {
			continue
		}
		switch {
		case c.cfg.Covering:
			d.slot = c.slotFor(d.id)
		case len(c.free) > 0:
			d.slot = c.free[len(c.free)-1]
			c.free = c.free[:len(c.free)-1]
		case len(c.ssd)+c.claimed < c.cfg.SSDPages:
			d.slot = c.nextSlot
			c.nextSlot++
		default:
			// SSD full: evict the tier's victim and reuse its slot. The
			// eviction is recorded before the lock drops, so a concurrent
			// miss always sees the evicted-LSN entry.
			v, pinned := c.ssdLRU.victim(nil), false
			for v != nil && c.ssd[v.id].pins > 0 {
				pinned = true
				v = c.ssdLRU.victim(v)
			}
			if v == nil || (v.protected && (pinned || onProbation)) {
				return i
			}
			ve := c.ssd[v.id]
			c.ssdLRU.remove(v)
			delete(c.ssd, v.id)
			d.slot, d.victim, d.hasVictim = ve.slot, v.id, true
			c.evictedLocked(v.id, ve.lsn)
		}
		c.claimed++
		onProbation = onProbation || !d.hot
	}
	return len(batch)
}

// writeSlots does the batch's device I/O, without the lock: the page images
// in one vectored write, then — only then — the metadata changes in one
// append.
func (c *Cache) writeSlots(w *slotWriter) error {
	w.images, w.bufs, w.offs, w.ops = w.images[:0], w.bufs[:0], w.offs[:0], w.ops[:0]
	if need := 16 * len(w.batch); cap(w.vals) < need {
		w.vals = make([]byte, need)
	}
	// Sized for the whole batch, so the images encoded into it never move.
	if need := page.Size * len(w.batch); cap(w.images) < need {
		w.images = make([]byte, 0, need)
	}
	for i := range w.batch {
		d := &w.batch[i]
		if d.skip {
			continue
		}
		// A page read off a device or the wire goes to the SSD as the image
		// it was read from (the device copies on write); only one built in
		// memory is encoded.
		img := d.pg.Image()
		if img == nil {
			off := len(w.images)
			var err error
			if w.images, err = d.pg.AppendEncode(w.images); err != nil {
				return err
			}
			img = w.images[off:]
		}
		w.bufs = append(w.bufs, img)
		w.offs = append(w.offs, int64(d.slot)*page.Size)
		if d.hasVictim {
			w.ops = append(w.ops, hekaton.Op{Key: metaKey(d.victim), Delete: true})
		}
		// Persist metadata only when the page takes a (new) slot. Refreshing
		// the recorded LSN on every rewrite would double the SSD traffic for
		// nothing: a stale recorded LSN merely means a little extra idempotent
		// redo after recovery, while the slot mapping is what correctness
		// needs. The page image itself always carries its true LSN.
		if !d.inPlace {
			val := w.vals[16*i : 16*i+16]
			binary.LittleEndian.PutUint64(val[0:8], uint64(d.slot))
			binary.LittleEndian.PutUint64(val[8:16], d.lsn.Uint64())
			w.ops = append(w.ops, hekaton.Op{Key: metaKey(d.id), Val: val})
		}
	}
	if err := c.cfg.SSD.WriteVec(w.bufs, w.offs); err != nil {
		return err
	}
	return c.meta.Apply(w.ops)
}

// publishLocked makes a written batch visible: each page becomes (or
// refreshes) its SSD entry, at the head of its segment in batch order, and
// leaves demoting unless a newer version has been parked there meanwhile.
// Caller holds c.mu.
func (c *Cache) publishLocked(batch []demotion) {
	for i := range batch {
		d := &batch[i]
		switch {
		case d.pinned:
			// Written in place, or a further turn of a page the tier held.
			e := c.ssd[d.id]
			e.pins--
			if d.inPlace {
				e.lsn = d.lsn
			}
			c.redemotedLocked(e, d.hot)
		case d.again:
			// A further turn of a page whose first turn, just published, made
			// its entry.
			c.redemotedLocked(c.ssd[d.id], d.hot)
		case d.skip:
		default:
			c.claimed--
			e := &ssdEntry{node: node{id: d.id}, slot: d.slot, lsn: d.lsn}
			if !c.cfg.Covering {
				c.ssdLRU.admit(&e.node, d.hot)
			}
			c.ssd[d.id] = e
		}
		c.releaseLocked(d, c.written)
	}
}

// releaseLocked ends a queued demotion's stay in the backlog, counting it
// under outcome unless it was skipped. Caller holds c.mu.
func (c *Cache) releaseLocked(d *demotion, outcome *obs.Counter) {
	if d.seq == 0 {
		return // synchronous: never queued
	}
	if d.skip {
		outcome = c.superseded
	}
	outcome.Inc()
	if c.demoting[d.id].seq == d.seq {
		delete(c.demoting, d.id)
	}
	c.backlog--
}

// deleteRows is the first half of giving up a batch whose device I/O failed,
// done without the lock: the durable rows that name the batch's slots — those
// of the victims, and of the SSD copies that were being overwritten in place
// and may now be torn — are deleted, best effort. It reports whether they are
// gone. A covering cache's rows stay: its layout is fixed.
func (c *Cache) deleteRows(w *slotWriter) bool {
	if c.cfg.Covering {
		return false
	}
	w.ops = w.ops[:0]
	for i := range w.batch {
		d := &w.batch[i]
		switch {
		case d.skip:
		case d.inPlace:
			w.ops = append(w.ops, hekaton.Op{Key: metaKey(d.id), Delete: true})
		case d.hasVictim:
			w.ops = append(w.ops, hekaton.Op{Key: metaKey(d.victim), Delete: true})
		}
	}
	return c.meta.Apply(w.ops) == nil
}

// abandonLocked is the second half: the batch's pages leave the cache — their
// evictions were recorded when they left the memory tier — and so do the SSD
// copies they were overwriting. A slot goes back to the free list only if no
// durable row names it any more; otherwise it stays out of use, as the row
// would claim it after a restart. A covering cache keeps its entries and
// reports the error to the Put that wrote through. Caller holds c.mu.
func (c *Cache) abandonLocked(batch []demotion, rowsGone bool) {
	for i := range batch {
		d := &batch[i]
		if d.pinned {
			c.ssd[d.id].pins--
		}
		switch {
		case d.skip:
		case d.inPlace:
			if e := c.ssd[d.id]; e.pins == 0 && !c.cfg.Covering {
				c.ssdLRU.remove(&e.node)
				delete(c.ssd, d.id)
			}
		default:
			c.claimed--
		}
		rowNamesSlot := (d.inPlace || d.hasVictim) && !rowsGone
		if !d.skip && !c.cfg.Covering && !rowNamesSlot {
			c.free = append(c.free, d.slot)
		}
		c.releaseLocked(d, c.dropped)
	}
}

// evictedLocked records that the page left a tier at lsn, in the eviction
// record and as a compute.evict flight event. Caller holds c.mu.
func (c *Cache) evictedLocked(id page.ID, lsn page.LSN) {
	if c.cfg.Covering {
		return
	}
	if lsn.After(c.evicted[id]) {
		c.evicted[id] = lsn
	}
	if c.flight != nil {
		c.flight.Record(obs.TierCompute, "compute.evict", uint64(lsn), 0,
			"page "+strconv.FormatUint(uint64(id), 10))
	}
}

// Seed writes the page directly to the SSD tier, bypassing the memory
// tier. Page servers use it to lay down the covering copy while seeding
// asynchronously (§4.6).
func (c *Cache) Seed(pg *page.Page) error {
	if c.cfg.SSDPages == 0 {
		return errors.New("rbpex: Seed requires an SSD tier")
	}
	return c.demote(pg)
}

// FlushAll demotes every memory-tier page to the SSD tier (clean shutdown),
// after whatever was on its way there already, so a reopened cache starts
// with the complete hot set on SSD.
func (c *Cache) FlushAll() error {
	if c.cfg.SSDPages == 0 {
		return nil
	}
	c.Sync()
	c.mu.Lock()
	pages := make([]*page.Page, 0, len(c.mem))
	for _, e := range c.mem {
		pages = append(pages, e.pg)
	}
	c.mu.Unlock()
	for _, pg := range pages {
		if err := c.demote(pg); err != nil {
			return err
		}
	}
	return c.meta.Checkpoint()
}

// Stats reports memory hits, SSD hits, and misses since creation.
func (c *Cache) Stats() (memHits, ssdHits, misses int64) {
	return c.memHits.Load(), c.ssdHits.Load(), c.misses.Load()
}

// HitRate reports the overall cache hit fraction in [0, 1].
func (c *Cache) HitRate() float64 {
	m, s, x := c.Stats()
	total := m + s + x
	if total == 0 {
		return 0
	}
	return float64(m+s) / float64(total)
}

// ResetStats zeroes the hit/miss counters (measurement windows).
func (c *Cache) ResetStats() {
	c.memHits.Store(0)
	c.ssdHits.Store(0)
	c.misses.Store(0)
}

// Len reports the number of distinct pages cached across both tiers.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.ssd)
	for id := range c.mem {
		if _, onSSD := c.ssd[id]; !onSSD {
			n++
		}
	}
	for id := range c.demoting {
		_, onSSD := c.ssd[id]
		if _, inMem := c.mem[id]; !onSSD && !inMem {
			n++
		}
	}
	return n + len(c.ahead)
}

// Instrument keeps the cache's counts, from now on, on counters of
// o.Metrics: the write-behind queue's under prefix + ".writebehind"
// (".queued", ".written", ".superseded", ".dropped", ".batches",
// ".blocked_puts"), the ahead area's under prefix + ".ahead" (".parked",
// ".read", ".displaced"). Caches instrumented under one prefix add up.
// firstRead, if not nil, counts with ".ahead.read": the reads that found
// their page because read-ahead had parked it. Every eviction a sparse cache
// records becomes a compute.evict event in o.Flight.
func (c *Cache) Instrument(o obs.Plane, prefix string, firstRead *obs.Counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := o.Metrics
	c.flight = o.Flight
	c.queued = r.Counter(prefix + ".writebehind.queued")
	c.written = r.Counter(prefix + ".writebehind.written")
	c.superseded = r.Counter(prefix + ".writebehind.superseded")
	c.dropped = r.Counter(prefix + ".writebehind.dropped")
	c.batches = r.Counter(prefix + ".writebehind.batches")
	c.blockedPuts = r.Counter(prefix + ".writebehind.blocked_puts")
	c.parked = r.Counter(prefix + ".ahead.parked")
	c.aheadRead = r.Counter(prefix + ".ahead.read")
	c.displaced = r.Counter(prefix + ".ahead.displaced")
	c.firstRead = firstRead
}

// MinSSDLSN reports the oldest LSN among SSD-tier pages and whether the
// tier is nonempty. After recovery this is the log-apply restart point.
func (c *Cache) MinSSDLSN() (page.LSN, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var min page.LSN
	found := false
	for _, e := range c.ssd {
		if !found || e.lsn.Before(min) {
			min, found = e.lsn, true
		}
	}
	return min, found
}
