// Package rbpex implements RBPEX, the Resilient Buffer Pool EXtension
// (§3.3): a two-tier page cache — main memory over local SSD — whose SSD
// tier survives process restarts. Compute nodes and page servers both use
// it; only the policy differs:
//
//   - sparse (compute nodes): the cache holds the hottest pages; both tiers
//     evict LRU, and a page falling out entirely triggers the OnEvict hook
//     (which feeds the primary's evicted-LSN map for GetPage@LSN).
//   - covering (page servers): the SSD tier holds every page of the
//     partition in a stride-preserving layout — slot k holds page base+k —
//     so a multi-page range read from a compute node translates into a
//     single SSD I/O (§4.6), and the SSD tier never evicts.
//
// Cache metadata (which page sits in which SSD slot, at which LSN) lives in
// a hekaton table on the same SSD, so Open after a crash recovers the SSD
// tier: only the log records newer than each cached page's LSN need to be
// replayed, instead of refetching the whole working set from remote
// servers. That is the mean-time-to-recovery win the paper describes.
package rbpex

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"socrates/internal/hekaton"
	"socrates/internal/metrics"
	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/simdisk"
)

// ErrNotCovered is returned by ReadRange on a sparse cache.
var ErrNotCovered = errors.New("rbpex: range reads require a covering cache")

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
	// slot read). Nil disables recording.
	Waits *obs.WaitRecorder
	// OnEvict, if set, is called when a page leaves the cache entirely,
	// with the page's last cached LSN. It runs atomically with the
	// removal (under the cache lock): a concurrent Get that misses is
	// guaranteed to observe the eviction record — the primary's
	// evicted-LSN map depends on this (§4.4). The hook must not call back
	// into the cache.
	OnEvict func(id page.ID, lsn page.LSN)
}

type memEntry struct {
	pg  *page.Page
	elt *list.Element
}

type ssdEntry struct {
	slot int
	lsn  page.LSN
	elt  *list.Element // nil in covering mode
}

// Cache is one RBPEX instance.
type Cache struct {
	cfg  Config
	meta *hekaton.Table

	mu     sync.Mutex
	mem    map[page.ID]*memEntry
	memLRU *list.List // front = most recent; values are page.ID
	// demoting holds pages that left the memory tier and whose SSD write is
	// still in flight. Until it lands the SSD slot holds an older image (or
	// none), so Get serves these from here: a reader must never promote that
	// older image over the version being written.
	demoting map[page.ID]*page.Page
	ssd      map[page.ID]*ssdEntry
	ssdLRU   *list.List // sparse mode only
	free     []int
	nextSlot int

	memHits metrics.Counter
	ssdHits metrics.Counter
	misses  metrics.Counter
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
		memLRU:   list.New(),
		demoting: make(map[page.ID]*page.Page),
		ssd:      make(map[page.ID]*ssdEntry),
		ssdLRU:   list.New(),
	}
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
			e := &ssdEntry{slot: r.slot, lsn: r.lsn}
			if !cfg.Covering {
				e.elt = c.ssdLRU.PushBack(r.id)
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
// a memory hit hands out the stored pointer and copies nothing. SSD hits
// pay one SSD read, decode in that buffer, and promote the page to the
// memory tier.
func (c *Cache) Get(id page.ID) (*page.Page, bool) {
	c.mu.Lock()
	if e, ok := c.mem[id]; ok {
		c.memLRU.MoveToFront(e.elt)
		pg := e.pg
		c.mu.Unlock()
		c.memHits.Inc()
		return pg, true
	}
	if pg, ok := c.demoting[id]; ok {
		c.mu.Unlock()
		c.memHits.Inc()
		return pg, true
	}
	e, ok := c.ssd[id]
	if !ok {
		c.mu.Unlock()
		c.misses.Inc()
		return nil, false
	}
	slot := e.slot
	if !c.cfg.Covering {
		c.ssdLRU.MoveToFront(e.elt)
	}
	c.mu.Unlock()

	// page.miss: the memory tier missed and the caller blocks on the SSD
	// slot read. Aggregate-only; cache reads carry no request context.
	region := c.cfg.Waits.Begin(nil, obs.WaitPageMiss)
	buf := make([]byte, page.Size)
	if err := c.cfg.SSD.ReadAt(buf, int64(slot)*page.Size); err != nil {
		region.End()
		c.misses.Inc()
		return nil, false
	}
	region.End()
	pg, err := page.Decode(buf)
	if err != nil || pg.ID != id {
		// Torn or stale slot: treat as a miss; the caller refetches.
		c.misses.Inc()
		return nil, false
	}
	c.ssdHits.Inc()
	c.promote(pg)
	return pg, true
}

// GetLSN reports the LSN of the cached copy, if any, without reading data.
func (c *Cache) GetLSN(id page.ID) (page.LSN, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.mem[id]; ok {
		return e.pg.LSN, true
	}
	if e, ok := c.ssd[id]; ok {
		return e.lsn, true
	}
	return 0, false
}

// Contains reports whether the page is cached, in either tier or on its way
// from one to the other. Unlike Get it reads nothing and counts nothing.
func (c *Cache) Contains(id page.ID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
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
	_, err := c.put(pg, false, nil)
	return err
}

// PutFetched is Put for an image fetched from another copy of the database
// (GetPage@LSN) while this cache stayed in use: it must never move a page
// backwards. The image is dropped — installed reports false, and the caller
// keeps pg for the reader that asked for it — when the cache already holds a
// version at least as new (supersededLocked), or when evictedLSN, the
// caller's record of the newest version of each page that has left the cache
// entirely (Config.OnEvict), names a newer one. evictedLSN runs under the
// cache lock like OnEvict, so the answer cannot go stale before the install,
// and like OnEvict it must not call back into the cache.
func (c *Cache) PutFetched(pg *page.Page, evictedLSN func(page.ID) page.LSN) (installed bool, err error) {
	return c.put(pg, true, evictedLSN)
}

// promote is Put for pages read back from the SSD tier.
//
//socrates:ignore-err promotion only refreshes the memory tier; the SSD copy just read remains authoritative, so a failed promote costs one re-read
func (c *Cache) promote(pg *page.Page) { _, _ = c.put(pg, true, nil) }

// supersededLocked reports whether the cache already holds the page in a
// version at least as new as pg, an image that was read without the lock —
// from the SSD tier (promotion) or from a page server (PutFetched). A newer
// version may meanwhile have been Put (resident), evicted again (in flight
// to SSD), or landed on SSD; installing pg then would shadow it in the
// memory tier. Caller holds c.mu.
func (c *Cache) supersededLocked(pg *page.Page) bool {
	if e, resident := c.mem[pg.ID]; resident {
		return e.pg.LSN.AtLeast(pg.LSN)
	}
	if d, inFlight := c.demoting[pg.ID]; inFlight {
		return d.LSN.AtLeast(pg.LSN)
	}
	e, onSSD := c.ssd[pg.ID]
	return onSSD && e.lsn.After(pg.LSN)
}

// put installs pg in the memory tier. With readUnlocked set pg is an image
// that was read without the lock (promote, PutFetched); one that lost the
// race to a newer version is dropped — the reader keeps its older, consistent
// image and the cache keeps the newer one.
func (c *Cache) put(pg *page.Page, readUnlocked bool, evictedLSN func(page.ID) page.LSN) (installed bool, err error) {
	// Covering caches are dense: the SSD tier holds every page at all
	// times (range reads and recovery depend on it), so puts write
	// through. demote skips the I/O when the SSD copy is already current.
	if c.cfg.Covering {
		if err := c.demote(pg); err != nil {
			return false, err
		}
	}
	var evicted []*page.Page
	c.mu.Lock()
	if readUnlocked && (c.supersededLocked(pg) || (evictedLSN != nil && evictedLSN(pg.ID).After(pg.LSN))) {
		c.mu.Unlock()
		return false, nil
	}
	if e, ok := c.mem[pg.ID]; ok {
		e.pg = pg
		c.memLRU.MoveToFront(e.elt)
	} else {
		e := &memEntry{pg: pg}
		e.elt = c.memLRU.PushFront(pg.ID)
		c.mem[pg.ID] = e
		for len(c.mem) > c.cfg.MemPages {
			victim := c.memLRU.Back()
			id := victim.Value.(page.ID)
			ve := c.mem[id]
			c.memLRU.Remove(victim)
			delete(c.mem, id)
			// Record the eviction atomically with the removal from the
			// memory tier — even when the page is headed for the SSD
			// tier, because a failed demotion write drops it from the
			// cache and a later miss must still learn its LSN ("the
			// highest LSN for every page evicted", §4.4).
			c.notifyEvictLocked(id, ve.pg.LSN)
			if c.cfg.SSDPages > 0 || c.cfg.Covering {
				evicted = append(evicted, ve.pg)
				c.demoting[id] = ve.pg
			}
		}
	}
	c.mu.Unlock()
	for _, v := range evicted {
		if err == nil {
			err = c.demote(v)
		}
		c.mu.Lock()
		if c.demoting[v.ID] == v {
			delete(c.demoting, v.ID)
		}
		c.mu.Unlock()
	}
	return true, err
}

// demote moves a page evicted from memory into the SSD tier (or out of the
// cache entirely when there is no SSD tier or the page loses the SSD LRU).
func (c *Cache) demote(pg *page.Page) error {
	if c.cfg.SSDPages == 0 && !c.cfg.Covering {
		c.mu.Lock()
		c.notifyEvictLocked(pg.ID, pg.LSN)
		c.mu.Unlock()
		return nil
	}
	c.mu.Lock()
	e, exists := c.ssd[pg.ID]
	if exists && e.lsn.AtLeast(pg.LSN) {
		// SSD already has this version or newer; just refresh recency.
		if !c.cfg.Covering {
			c.ssdLRU.MoveToFront(e.elt)
		}
		c.mu.Unlock()
		return nil
	}
	var slot int
	var ssdVictim *struct {
		id  page.ID
		lsn page.LSN
	}
	switch {
	case exists:
		slot = e.slot
	case c.cfg.Covering:
		slot = c.slotFor(pg.ID)
	case len(c.free) > 0:
		slot = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
	case len(c.ssd) < c.cfg.SSDPages:
		slot = c.nextSlot
		c.nextSlot++
	default:
		// SSD full: evict the SSD LRU victim and reuse its slot. The
		// eviction is recorded before the lock drops, so a concurrent
		// miss always sees the evicted-LSN entry.
		back := c.ssdLRU.Back()
		vid := back.Value.(page.ID)
		ve := c.ssd[vid]
		c.ssdLRU.Remove(back)
		delete(c.ssd, vid)
		slot = ve.slot
		ssdVictim = &struct {
			id  page.ID
			lsn page.LSN
		}{vid, ve.lsn}
		c.notifyEvictLocked(vid, ve.lsn)
	}
	c.mu.Unlock()

	buf, err := pg.Encode()
	if err != nil {
		return err
	}
	if err := c.cfg.SSD.WriteAt(buf, int64(slot)*page.Size); err != nil {
		return err
	}
	if ssdVictim != nil {
		if err := c.meta.Delete(metaKey(ssdVictim.id)); err != nil {
			return err
		}
	}
	// Persist metadata only when the page takes a (new) slot. Refreshing
	// the recorded LSN on every rewrite would double the SSD traffic for
	// nothing: a stale recorded LSN merely means a little extra idempotent
	// redo after recovery, while the slot mapping is what correctness
	// needs. The page image itself always carries its true LSN.
	if !exists {
		val := make([]byte, 16)
		binary.LittleEndian.PutUint64(val[0:8], uint64(slot))
		binary.LittleEndian.PutUint64(val[8:16], pg.LSN.Uint64())
		if err := c.meta.Put(metaKey(pg.ID), val); err != nil {
			return err
		}
	}

	c.mu.Lock()
	if e, ok := c.ssd[pg.ID]; ok {
		e.lsn = pg.LSN
		e.slot = slot
		if !c.cfg.Covering {
			c.ssdLRU.MoveToFront(e.elt)
		}
	} else {
		ne := &ssdEntry{slot: slot, lsn: pg.LSN}
		if !c.cfg.Covering {
			ne.elt = c.ssdLRU.PushFront(pg.ID)
		}
		c.ssd[pg.ID] = ne
	}
	c.mu.Unlock()

	return nil
}

// notifyEvictLocked fires the eviction hook; caller holds c.mu.
func (c *Cache) notifyEvictLocked(id page.ID, lsn page.LSN) {
	if c.cfg.OnEvict != nil {
		c.cfg.OnEvict(id, lsn)
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
// so a reopened cache starts with the complete hot set on SSD.
func (c *Cache) FlushAll() error {
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
	if c.meta != nil {
		return c.meta.Checkpoint()
	}
	return nil
}

// ReadRange reads n consecutive pages starting at start with a single SSD
// I/O. Only covering caches support it (stride-preserving layout, §4.6).
// Pages in the range that are hotter in the memory tier are substituted in.
func (c *Cache) ReadRange(start page.ID, n int) ([]*page.Page, error) {
	if !c.cfg.Covering {
		return nil, ErrNotCovered
	}
	slot := c.slotFor(start)
	if slot < 0 || slot+n > c.cfg.SSDPages {
		return nil, fmt.Errorf("rbpex: range [%d,+%d) outside partition", start, n)
	}
	buf := make([]byte, n*page.Size)
	if err := c.cfg.SSD.ReadAt(buf, int64(slot)*page.Size); err != nil {
		return nil, err
	}
	out := make([]*page.Page, 0, n)
	for i := 0; i < n; i++ {
		id := start + page.ID(i)
		c.mu.Lock()
		var hot *page.Page
		if me, ok := c.mem[id]; ok {
			hot = me.pg
		}
		c.mu.Unlock()
		if hot != nil {
			out = append(out, hot)
			continue
		}
		pg, err := page.Decode(buf[i*page.Size : (i+1)*page.Size])
		if err != nil {
			return nil, fmt.Errorf("rbpex: decoding page %d in range: %w", id, err)
		}
		out = append(out, pg)
	}
	return out, nil
}

// ReadRangeAvailable is ReadRange clamped to the written SSD extent, with
// never-written slots skipped — the form pushdown scans use to sweep a
// whole partition range without tracking which pages exist.
func (c *Cache) ReadRangeAvailable(start page.ID, n int) ([]*page.Page, error) {
	if !c.cfg.Covering {
		return nil, ErrNotCovered
	}
	slot := c.slotFor(start)
	if slot < 0 {
		return nil, fmt.Errorf("rbpex: range start %d below partition", start)
	}
	avail := int(c.cfg.SSD.Size()/page.Size) - slot
	if avail <= 0 {
		return nil, nil
	}
	if n > avail {
		n = avail
	}
	if slot+n > c.cfg.SSDPages {
		n = c.cfg.SSDPages - slot
	}
	buf := make([]byte, n*page.Size)
	if err := c.cfg.SSD.ReadAt(buf, int64(slot)*page.Size); err != nil {
		return nil, err
	}
	out := make([]*page.Page, 0, n)
	for i := 0; i < n; i++ {
		id := start + page.ID(i)
		c.mu.Lock()
		var hot *page.Page
		if me, ok := c.mem[id]; ok {
			hot = me.pg
		}
		c.mu.Unlock()
		if hot != nil {
			out = append(out, hot)
			continue
		}
		pg, err := page.Decode(buf[i*page.Size : (i+1)*page.Size])
		if err != nil {
			continue // never-written or torn slot: not a page
		}
		out = append(out, pg)
	}
	return out, nil
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
	c.memHits.Reset()
	c.ssdHits.Reset()
	c.misses.Reset()
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
	return n
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
