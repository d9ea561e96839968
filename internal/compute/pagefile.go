package compute

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"socrates/internal/fcb"
	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/pageserver"
	"socrates/internal/rbio"
	"socrates/internal/rbpex"
	"socrates/internal/recovery"
	"socrates/internal/socerr"
	"socrates/internal/wal"
)

// resolver maps a page to the RBIO selector of the page-server replica set
// owning its partition.
type resolver func(id page.ID) (*rbio.Selector, error)

// remotePageFile is the compute node's FCB: a sparse RBPEX cache in front
// of the page servers. Reads miss into GetPage@LSN (§4.4); the cache's
// eviction record supplies the per-page minimum LSN ("the Primary builds a
// hash map which stores the highest LSN for every page evicted").
//
// For secondaries it also implements the §4.5 race protocol: a miss
// registers the page as pending before the remote call, so the log-apply
// thread queues (rather than drops) records for in-flight pages; the queued
// records are applied to the fetched page before it enters the cache.
//
// Prefetch starts the same fetch in the background for pages a scan or a
// commit is about to read, so that their round trips overlap (DESIGN §17).
type remotePageFile struct {
	cache   *rbpex.Cache
	resolve resolver
	// floor supplies the minimum LSN for every page (an evicted page's
	// evicted LSN may raise it): the recovery LSN on a primary, the applied
	// watermark on a secondary.
	floor func() page.LSN

	mu      sync.Mutex
	pending map[page.ID]*registration // §4.5: pages with a fetch in flight
	closed  bool

	fetches atomic.Int64

	// Read-ahead fetches run on goroutines of their own: bounded by ahead
	// (cancelled by Close), at most rangeFanout at a time (window), and
	// waited for by Close (aheadWG).
	ahead     context.Context
	stopAhead context.CancelFunc
	window    chan struct{}
	aheadWG   sync.WaitGroup

	obs   obs.Plane
	waits *obs.WaitRecorder // obs.Waits.Tier(obs.TierCompute), resolved once
}

// registration is the §4.5 registration of one page: from the moment a fetch
// of the page is decided to the moment its image is in the cache. It is the
// one place concurrent misses of the page meet (DESIGN §12.3). The fetch that
// created it owns it and alone asks the page server; an overlapping fetch
// joins it and takes the owner's page, or asks for itself (register says
// which).
type registration struct {
	// lsn is the minimum LSN the owner asks for, recorded when it registered
	// (under remotePageFile.mu). Every redo record the apply thread handles
	// from then on is queued here, so the owner's page with that redo applied
	// is current for any reader whose minimum LSN is at or below lsn.
	lsn page.LSN
	// queued is the redo that arrived for the page meanwhile (under
	// remotePageFile.mu); the owner applies it before the page is cached.
	queued []*wal.Record
	// readahead marks a registration made by Prefetch: nobody is blocked
	// on its fetch unless a reader joins it — joined, under
	// remotePageFile.mu, says one has.
	readahead, joined bool
	// got is closed once the owner has its page, or has failed: pg is then
	// that page — the image fetched, with the redo queued during the flight
	// applied — or nil. Readers that joined the registration take it.
	got chan struct{}
	pg  *page.Page
}

func newRegistration(lsn page.LSN, readahead bool) *registration {
	return &registration{lsn: lsn, readahead: readahead, got: make(chan struct{})}
}

// publish hands the owner's page (nil: it has none) to the readers waiting
// for it. Owner only; only the first call counts.
func (r *registration) publish(pg *page.Page) {
	select {
	case <-r.got:
	default:
		r.pg = pg
		close(r.got)
	}
}

// await returns the page the owning fetch got — nil if that fetch failed —
// or ctx's error if ctx ends first.
func (r *registration) await(ctx context.Context) (*page.Page, error) {
	select {
	case <-r.got:
		return r.pg, nil
	case <-ctx.Done():
		return nil, socerr.FromContext(ctx.Err())
	}
}

// newRemotePageFile builds the cache-fronted page file over an RBPEX cache
// (whose Waits it sets to the compute wait tier). Close releases it.
//
// o wires it into the observability plane. A remote GetPage@LSN miss under
// a traced request becomes a "compute.getpage" span, and every miss records
// compute.getpage.* metrics and drops a flight event, as does every
// eviction. The registrations' hit/miss counters (netmux.coalesce.*: a
// reader that took another fetch's page, a request put on the wire), the
// read-ahead counters (compute.readahead.*) and the cache's own
// (compute.rbpex.writebehind.*, compute.rbpex.ahead.*) land on the same
// registry. compute.readahead.joined counts the hints that met their reader:
// in flight (register), or parked in the cache — which the cache counts, at
// the page's first read. The time a reader is blocked on a miss (its own
// request, or the rest of the flight it joined) records under page.remote; a
// read-ahead fetch blocks nobody and records nothing.
func newRemotePageFile(cfg rbpex.Config, resolve resolver, floor func() page.LSN, o obs.Plane) (*remotePageFile, error) {
	f := &remotePageFile{
		resolve: resolve,
		floor:   floor,
		pending: make(map[page.ID]*registration),
		window:  make(chan struct{}, rangeFanout),
		obs:     o,
		waits:   o.Waits.Tier(obs.TierCompute),
	}
	f.ahead, f.stopAhead = context.WithCancel(context.Background())
	cfg.Waits = f.waits
	cache, err := rbpex.Open(cfg)
	if err != nil {
		f.stopAhead()
		return nil, err
	}
	cache.Instrument(o, "compute.rbpex", o.Metrics.Counter("compute.readahead.joined"))
	f.cache = cache
	return f, nil
}

// Close ends read-ahead: fetches in flight are cancelled and waited for, and
// later hints are ignored. Reads and writes keep working — a node's page
// file outlives the node's shutdown in the hands of its last transactions.
func (f *remotePageFile) Close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.stopAhead()
	f.aheadWG.Wait()
}

// Cache exposes the underlying RBPEX (hit-rate experiments).
func (f *remotePageFile) Cache() *rbpex.Cache { return f.cache }

// Fetches reports remote GetPage calls issued: one per page requested from a
// page server, however many readers and hints shared the request.
func (f *remotePageFile) Fetches() int64 { return f.fetches.Load() }

// minLSN computes the GetPage@LSN argument for a page: its evicted LSN or
// the node's floor, whichever is higher. On a secondary the records for a
// page it does not hold go by ignored after the page leaves the cache, so
// its evicted LSN alone may miss them.
func (f *remotePageFile) minLSN(id page.ID) page.LSN {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.minLSNLocked(id)
}

// minLSNLocked is minLSN with f.mu held. f.mu is taken before the cache's
// lock, never after it.
func (f *remotePageFile) minLSNLocked(id page.ID) page.LSN {
	return page.MaxLSN(f.cache.EvictedLSN(id), f.floor())
}

// Read returns the page from cache, or fetches it via GetPage@LSN. Either
// way the page is the cache's own: shared and immutable (DESIGN §16).
func (f *remotePageFile) Read(id page.ID) (*page.Page, error) {
	return f.ReadContext(context.Background(), id)
}

// ReadContext is Read bounded by (and traced through) ctx.
func (f *remotePageFile) ReadContext(ctx context.Context, id page.ID) (*page.Page, error) {
	if pg, ok := f.cache.Get(id); ok {
		return pg, nil
	}
	reg, owner := f.register(id)
	return f.fetch(ctx, id, reg, owner)
}

// register finds the page's registration or makes one (§4.5), before the
// remote call, so that concurrent log apply queues records for the page
// instead of ignoring them. The first fetch of a page to register owns the
// registration: it alone drains the queue and installs the page, so a
// second, overlapping fetch can neither take queued records away from it nor
// put a copy without them over its.
//
// An overlapping fetch joins the registration if it needs no newer version
// than the owner asks for; otherwise — on a primary, the page was written and
// evicted again at a newer LSN meanwhile — it gets nil and asks for itself.
//
// The floor is read under f.mu, in the same critical section that inserts
// the registration: every record the apply thread handles before it is below
// the floor, every one after it is queued. f.mu is therefore taken before a
// secondary's watermark lock, never after it.
func (f *remotePageFile) register(id page.ID) (reg *registration, owner bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	minLSN := f.minLSNLocked(id)
	if reg, ok := f.pending[id]; ok {
		if minLSN.After(reg.lsn) {
			return nil, false
		}
		if reg.readahead && !reg.joined {
			reg.joined = true
			f.obs.Metrics.Counter("compute.readahead.joined").Inc()
		}
		return reg, false
	}
	reg = newRegistration(minLSN, false)
	f.pending[id] = reg
	return reg, true
}

// fetch gets the page for a miss. The owner of the registration asks the
// page server at the registration's LSN, installs the page and ends the
// registration. A reader that joined it takes the owner's page. Any other
// reader — told by register to ask for itself, or whose owner failed or was
// cancelled — asks the page server at its own minimum LSN and installs
// nothing: the cache is the owner's to fill.
func (f *remotePageFile) fetch(ctx context.Context, id page.ID, reg *registration, owner bool) (*page.Page, error) {
	if owner {
		defer func() {
			// install ended the registration if it got that far (by now a
			// later fetch may own a new one of the same page); every error
			// path ends it here.
			f.mu.Lock()
			if f.pending[id] == reg {
				delete(f.pending, id)
			}
			f.mu.Unlock()
			reg.publish(nil)
		}()
		// Between the miss that sent the owner here and its registration,
		// an earlier fetch of the page may have installed it and ended its
		// own registration. The page is then current but for what was
		// queued since; there is nothing to ask the page server.
		if f.cache.Contains(id) {
			if pg, ok := f.cache.Get(id); ok {
				return f.install(reg, pg)
			}
		}
	}
	// background: this is a read-ahead fetch, with no reader behind it.
	background := owner && reg.readahead

	start := time.Now()
	// A GetPage@LSN miss is itself a request worth tracing (§7 Table 4
	// reads its latency breakdown off this span tree): join the caller's
	// trace when one is ambient, else root a fresh one. Misses are bounded
	// by cache capacity — unlike continuous polls (xlog.pull, log feeds),
	// they cannot flood the tracer's retention ring.
	ctx, span := f.obs.Tracer.StartSpan(ctx, obs.TierCompute, "compute.getpage")
	pageNo := strconv.FormatUint(uint64(id), 10)
	span.SetAttr("page", pageNo)
	defer span.End()
	note := "page " + pageNo
	if background {
		span.SetAttr("readahead", "true")
		note += " readahead"
	}
	f.obs.Metrics.Counter("compute.getpage.remote").Inc()
	// page.remote is the time a reader is blocked here: on its own request,
	// or on what was left of the flight it joined. Read-ahead itself blocks
	// nobody; recording its flight time too would count the same
	// milliseconds twice.
	var region obs.WaitRegion
	if !background {
		region = f.waits.Begin(ctx, obs.WaitPageRemote)
	}
	var pg *page.Page
	var err error
	var minLSN page.LSN
	if reg != nil {
		minLSN = reg.lsn
		if !owner {
			if pg, err = reg.await(ctx); pg != nil {
				// Named for the coalescer this rule replaced: bench/ reads it.
				f.obs.Metrics.Counter("netmux.coalesce.hits").Inc()
				span.SetAttr("coalesced", "true")
			}
		}
	}
	if pg == nil && err == nil {
		if !owner {
			minLSN = f.minLSN(id)
		}
		if pg, err = f.request(ctx, id, minLSN); err == nil && owner {
			pg, err = f.receive(reg, pg)
		}
	}
	region.End()
	f.obs.Metrics.Histogram("compute.getpage.latency").Observe(time.Since(start))
	f.obs.Flight.RecordTrace(obs.TierCompute, "compute.getpage", uint64(minLSN),
		span.Context().TraceID, time.Since(start), note)
	if err != nil {
		span.SetError(err)
		return nil, fmt.Errorf("compute: GetPage(%d): %w", id, err)
	}
	if !owner {
		return pg, nil
	}
	return f.install(reg, pg)
}

// request asks the page server for the page at minLSN or newer: one request
// on the wire, counted by Fetches.
func (f *remotePageFile) request(ctx context.Context, id page.ID, minLSN page.LSN) (*page.Page, error) {
	sel, err := f.resolve(id)
	if err != nil {
		return nil, err
	}
	f.fetches.Add(1)
	// Named for the coalescer this rule replaced: bench/ reads it.
	f.obs.Metrics.Counter("netmux.coalesce.misses").Inc()
	resp, err := sel.Call(ctx, &rbio.Request{Type: rbio.MsgGetPage, Page: id, LSN: minLSN})
	if err != nil {
		return nil, err
	}
	return decodePage(resp)
}

// decodePage reads the page out of a GetPage response.
func decodePage(resp *rbio.Response) (*page.Page, error) {
	if err := resp.Err(); err != nil {
		return nil, err
	}
	return pageserver.DecodePage(resp.Payload)
}

// receive makes the owner's page out of the image its request got: the redo
// queued so far applied, and published to the readers who joined the
// registration — they go on from here, while the owner goes on to install.
func (f *remotePageFile) receive(reg *registration, pg *page.Page) (*page.Page, error) {
	f.mu.Lock()
	queued := reg.queued
	reg.queued = nil
	f.mu.Unlock()
	pg, err := recovery.Redo(pg, queued)
	if err != nil {
		return nil, err
	}
	reg.publish(pg)
	return pg, nil
}

// install puts the owner's page in the cache and ends the §4.5 registration
// — first applying the records queued meanwhile, and again for those that
// arrive while it does, so that the registration is dropped only in the same
// critical section that found the queue empty: from then on the apply thread
// finds the page cached. The page of a read-ahead that no reader has joined
// goes to the cache's ahead area (rbpex.PutHinted, DESIGN §20.1) — cached for
// the apply thread and for its reader, in nobody's way until one of them
// comes. A reader that joins while the page is being parked has it from the
// flight, not from the cache: the registration then ends with one more put,
// as that reader's, which takes the page out of the area.
//
// The put is LSN-monotone (rbpex.PutFetched). On a primary the flight may
// have been in the air while a commit read the page some other way, edited
// it and wrote the new version; the image fetched is then the older one, and
// caching it would have the next commit redo onto a page that lost an
// update. It is handed to its reader — who began before that commit did —
// and not cached. On a secondary nothing else can put a page that is
// registered here, and the rule never fires.
func (f *remotePageFile) install(reg *registration, pg *page.Page) (*page.Page, error) {
	id := pg.ID
	installed, parked := false, false
	for {
		f.mu.Lock()
		queued := reg.queued
		reg.queued = nil
		unjoined := reg.readahead && !reg.joined
		if installed && len(queued) == 0 && parked == unjoined {
			delete(f.pending, id)
			f.mu.Unlock()
			return pg, nil
		}
		f.mu.Unlock()
		put := f.cache.PutFetched
		if unjoined {
			put = f.cache.PutHinted
		}
		var err error
		if pg, err = recovery.Redo(pg, queued); err == nil {
			_, err = put(pg)
		}
		if err != nil {
			return nil, err
		}
		installed, parked = true, unjoined
	}
}

// Write installs a page version in the local cache, which takes ownership
// of it (the durable copy is the log; page servers converge by applying it).
func (f *remotePageFile) Write(pg *page.Page) error {
	return f.cache.Put(pg)
}

// --- log-apply integration (secondaries) ---

// QueueIfPending queues a record for a page with an in-flight fetch and
// reports whether it did (§4.5; recovery.Cached asks it first).
func (f *remotePageFile) QueueIfPending(rec *wal.Record) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	reg, ok := f.pending[rec.Page]
	if !ok {
		return false
	}
	reg.queued = append(reg.queued, rec)
	return true
}

var _ fcb.PageFile = (*remotePageFile)(nil)
