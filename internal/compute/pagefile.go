package compute

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"socrates/internal/btree"
	"socrates/internal/fcb"
	"socrates/internal/metrics"
	"socrates/internal/netmux"
	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/pageserver"
	"socrates/internal/rbio"
	"socrates/internal/rbpex"
	"socrates/internal/socerr"
	"socrates/internal/wal"
)

// Resolver maps a page to the RBIO selector of the page-server replica set
// owning its partition.
type Resolver func(id page.ID) (*rbio.Selector, error)

// RemotePageFile is the compute node's FCB: a sparse RBPEX cache in front
// of the page servers. Reads miss into GetPage@LSN (§4.4); the evicted-LSN
// map supplies the per-page minimum LSN ("the Primary builds a hash map
// which stores the highest LSN for every page evicted").
//
// For secondaries it also implements the §4.5 race protocol: a miss
// registers the page as pending before the remote call, so the log-apply
// thread queues (rather than drops) records for in-flight pages; the queued
// records are applied to the fetched page before it enters the cache.
type RemotePageFile struct {
	cache   *rbpex.Cache
	resolve Resolver
	// floor supplies the minimum LSN for pages with no evicted-LSN entry:
	// the recovery LSN on a primary, the applied watermark on a secondary.
	floor func() page.LSN

	mu      sync.Mutex
	evicted map[page.ID]page.LSN
	pending map[page.ID][]*wal.Record // §4.5 registration (secondaries)

	fetches  metrics.Counter
	rangeOps metrics.Counter

	// coal coalesces concurrent GetPage@LSN misses for the same page
	// into one wire RPC (netmux singleflight).
	coal *netmux.Coalescer

	tracer *obs.Tracer
	obsReg *obs.Registry
	flight *obs.FlightRecorder
	waits  *obs.WaitRecorder
}

// SetObs wires a tracer and metrics registry: a remote GetPage@LSN miss
// under a traced request becomes a "compute.getpage" span, and every miss
// records compute.getpage.* metrics. The miss coalescer's hit/miss
// counters (netmux.coalesce.*) land on the same registry.
func (f *RemotePageFile) SetObs(t *obs.Tracer, r *obs.Registry) {
	f.tracer, f.obsReg = t, r
	f.coal = netmux.NewCoalescer(netmux.NewMetrics(r))
}

// SetFlight wires the flight recorder: cache misses (remote GetPage@LSN
// fetches) and evictions drop compact events into the ring.
func (f *RemotePageFile) SetFlight(fr *obs.FlightRecorder) { f.flight = fr }

// SetWaits wires wait-event accounting: the wire portion of a GetPage@LSN
// miss (coalesced or not) records under page.remote, attributed to the
// request's profile and getpage span.
func (f *RemotePageFile) SetWaits(wr *obs.WaitRecorder) { f.waits = wr }

// NewRemotePageFile builds the cache-fronted page file.
func NewRemotePageFile(cfg rbpex.Config, resolve Resolver, floor func() page.LSN) (*RemotePageFile, error) {
	f := &RemotePageFile{
		resolve: resolve,
		floor:   floor,
		evicted: make(map[page.ID]page.LSN),
		pending: make(map[page.ID][]*wal.Record),
		coal:    netmux.NewCoalescer(nil),
	}
	cfg.OnEvict = f.noteEvicted
	cache, err := rbpex.Open(cfg)
	if err != nil {
		return nil, err
	}
	f.cache = cache
	return f, nil
}

// Cache exposes the underlying RBPEX (hit-rate experiments).
func (f *RemotePageFile) Cache() *rbpex.Cache { return f.cache }

// Fetches reports remote GetPage calls issued.
func (f *RemotePageFile) Fetches() int64 { return f.fetches.Load() }

func (f *RemotePageFile) noteEvicted(id page.ID, lsn page.LSN) {
	f.mu.Lock()
	if lsn.After(f.evicted[id]) {
		f.evicted[id] = lsn
	}
	f.mu.Unlock()
	f.flight.Record(obs.TierCompute, "compute.evict", uint64(lsn), 0,
		"page "+strconv.FormatUint(uint64(id), 10))
}

// minLSN computes the GetPage@LSN argument for a page: its evicted LSN if
// known, else the node's floor.
func (f *RemotePageFile) minLSN(id page.ID) page.LSN {
	f.mu.Lock()
	lsn, ok := f.evicted[id]
	f.mu.Unlock()
	if ok {
		return lsn
	}
	return f.floor()
}

// Read returns the page from cache, or fetches it via GetPage@LSN. Either
// way the page is the cache's own: shared and immutable (DESIGN §16).
func (f *RemotePageFile) Read(id page.ID) (*page.Page, error) {
	return f.ReadContext(context.Background(), id)
}

// ReadContext is Read bounded by (and traced through) ctx.
func (f *RemotePageFile) ReadContext(ctx context.Context, id page.ID) (*page.Page, error) {
	if pg, ok := f.cache.Get(id); ok {
		return pg, nil
	}
	return f.fetch(ctx, id)
}

func (f *RemotePageFile) fetch(ctx context.Context, id page.ID) (*page.Page, error) {
	// Register before calling (§4.5), so concurrent log apply queues
	// records for this page instead of ignoring them. The first fetch of a
	// page to register owns the registration: it alone drains the queue and
	// installs the page, so a second, overlapping fetch can neither take
	// queued records away from it nor put a copy without them over its.
	f.mu.Lock()
	_, already := f.pending[id]
	owner := !already
	if owner {
		f.pending[id] = nil
	}
	f.mu.Unlock()
	// registered: this fetch still has to end the registration itself — true
	// on every error path, false once install has ended it (by then a later
	// fetch may own a new registration of the same page).
	registered := owner
	defer func() {
		if registered {
			f.mu.Lock()
			delete(f.pending, id)
			f.mu.Unlock()
		}
	}()

	sel, err := f.resolve(id)
	if err != nil {
		return nil, err
	}
	f.fetches.Inc()
	start := time.Now()
	// A GetPage@LSN miss is itself a request worth tracing (§7 Table 4
	// reads its latency breakdown off this span tree): join the caller's
	// trace when one is ambient, else root a fresh one. Misses are bounded
	// by cache capacity — unlike continuous polls (xlog.pull, log feeds),
	// they cannot flood the tracer's retention ring.
	ctx, span := f.tracer.StartSpan(ctx, obs.TierCompute, "compute.getpage")
	span.SetAttr("page", strconv.FormatUint(uint64(id), 10))
	defer span.End()
	f.obsReg.Counter("compute.getpage.remote").Inc()
	minLSN := f.minLSN(id)
	// Coalesce with any in-flight fetch of the same page at a compatible
	// LSN: concurrent misses share one wire RPC (netmux singleflight).
	// page.remote covers the whole wire wait, shared or not — a coalesced
	// caller is just as blocked as the one holding the RPC.
	region := f.waits.Begin(ctx, obs.WaitPageRemote)
	resp, shared, err := f.coal.Do(ctx, id, minLSN, func() (*rbio.Response, error) {
		return sel.Call(ctx, &rbio.Request{Type: rbio.MsgGetPage, Page: id, LSN: minLSN})
	})
	region.End()
	if shared {
		span.SetAttr("coalesced", "true")
	}
	f.obsReg.Histogram("compute.getpage.latency").Observe(time.Since(start))
	f.flight.RecordTrace(obs.TierCompute, "compute.getpage", uint64(minLSN),
		span.Context().TraceID, time.Since(start),
		"page "+strconv.FormatUint(uint64(id), 10))
	if err != nil {
		span.SetError(err)
		return nil, fmt.Errorf("compute: GetPage(%d): %w", id, err)
	}
	if err := resp.Err(); err != nil {
		span.SetError(err)
		return nil, fmt.Errorf("compute: GetPage(%d): %w", id, err)
	}
	pages, err := pageserver.DecodePages(resp.Payload)
	if err != nil || len(pages) != 1 {
		return nil, fmt.Errorf("compute: GetPage(%d): bad payload (%d pages, %v)", id, len(pages), err)
	}
	if !owner {
		// The owning fetch installs the page. This reader asked for a
		// version at least minLSN, and the response is one.
		return pages[0], nil
	}
	pg, err := f.install(pages[0])
	registered = err != nil
	return pg, err
}

// install applies the records queued while the fetch was in flight, puts
// the page in the cache, and ends the §4.5 registration — repeating the
// first two for records that arrive meanwhile, so that the registration is
// dropped only in the same critical section that found the queue empty:
// from then on the apply thread finds the page cached.
func (f *RemotePageFile) install(pg *page.Page) (*page.Page, error) {
	for installed := false; ; installed = true {
		f.mu.Lock()
		queued := f.pending[pg.ID]
		f.pending[pg.ID] = nil
		if installed && len(queued) == 0 {
			delete(f.pending, pg.ID)
			f.mu.Unlock()
			return pg, nil
		}
		f.mu.Unlock()
		for _, rec := range queued {
			var err error
			if pg, _, err = btree.Apply(pg, rec); err != nil {
				return nil, err
			}
		}
		if err := f.cache.Put(pg); err != nil {
			return nil, err
		}
	}
}

// rangeFanout bounds how many per-page requests of one range read are in
// flight at once. It sits below the netmux pool's in-flight cap so one
// bulk range read cannot trip backpressure for latency-sensitive misses.
const rangeFanout = 16

// ReadRange fetches count consecutive pages, bypassing the sparse cache
// (scan offloading, §4.1.5).
func (f *RemotePageFile) ReadRange(start page.ID, count int) ([]*page.Page, error) {
	return f.ReadRangeContext(context.Background(), start, count)
}

// ReadRangeContext is ReadRange bounded by (and traced through) ctx.
//
// The range is pipelined as scattered per-page GetPage@LSN requests —
// the mux fabric keeps up to rangeFanout of them in flight on the wire
// at once — and reassembled in order. Pages resolve individually, so a
// range spanning a partition split boundary scatters to the right
// owners. A mid-range failure returns the successful prefix plus a
// socerr.ErrPartial-classified error, so warmup/scan callers keep the
// progress they paid for.
func (f *RemotePageFile) ReadRangeContext(ctx context.Context, start page.ID, count int) ([]*page.Page, error) {
	if count <= 0 {
		return nil, nil
	}
	f.rangeOps.Inc()
	floor := f.floor()
	type res struct {
		pg  *page.Page
		err error
	}
	results := make([]res, count)
	sem := make(chan struct{}, rangeFanout)
	var wg sync.WaitGroup
	for i := 0; i < count; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := ctx.Err(); err != nil {
				results[i].err = socerr.FromContext(err)
				return
			}
			id := start + page.ID(i)
			sel, err := f.resolve(id)
			if err != nil {
				results[i].err = err
				return
			}
			resp, err := sel.Call(ctx, &rbio.Request{Type: rbio.MsgGetPage, Page: id, LSN: floor})
			if err != nil {
				results[i].err = err
				return
			}
			if err := resp.Err(); err != nil {
				results[i].err = err
				return
			}
			pages, err := pageserver.DecodePages(resp.Payload)
			if err != nil || len(pages) != 1 {
				results[i].err = fmt.Errorf("compute: range page %d: bad payload (%d pages, %v)",
					id, len(pages), err)
				return
			}
			results[i].pg = pages[0]
		}(i)
	}
	wg.Wait()
	out := make([]*page.Page, 0, count)
	for i := range results {
		if results[i].err != nil {
			if len(out) == 0 {
				return nil, results[i].err
			}
			return out, socerr.Partialf("compute: range [%d,+%d): %d pages then page %d: %v",
				start, count, len(out), start+page.ID(i), results[i].err)
		}
		out = append(out, results[i].pg)
	}
	return out, nil
}

// OffloadScan pushes a cell-filtering scan of count pages starting at
// start down to the owning page server (§4.1.5): only the match summary
// crosses the network, not the pages.
func (f *RemotePageFile) OffloadScan(start page.ID, count int, keyLo, keyHi []byte) (pageserver.ScanResult, error) {
	return f.OffloadScanContext(context.Background(), start, count, keyLo, keyHi)
}

// OffloadScanContext is OffloadScan bounded by (and traced through) ctx.
func (f *RemotePageFile) OffloadScanContext(ctx context.Context, start page.ID, count int, keyLo, keyHi []byte) (pageserver.ScanResult, error) {
	sel, err := f.resolve(start)
	if err != nil {
		return pageserver.ScanResult{}, err
	}
	resp, err := sel.Call(ctx, &rbio.Request{
		Type:     rbio.MsgScanCells,
		Page:     start,
		MaxBytes: int32(count),
		LSN:      f.floor(),
		Payload:  pageserver.EncodeKeyRange(keyLo, keyHi),
	})
	if err != nil {
		return pageserver.ScanResult{}, err
	}
	if err := resp.Err(); err != nil {
		return pageserver.ScanResult{}, err
	}
	return pageserver.DecodeScanResult(resp.Payload)
}

// Write installs a page version in the local cache, which takes ownership
// of it (the durable copy is the log; page servers converge by applying it).
func (f *RemotePageFile) Write(pg *page.Page) error {
	return f.cache.Put(pg)
}

// --- log-apply integration (secondaries) ---

// QueueIfPending queues a record for a page with an in-flight fetch.
// Reports whether the record was queued.
func (f *RemotePageFile) QueueIfPending(rec *wal.Record) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.pending[rec.Page]; !ok {
		return false
	}
	f.pending[rec.Page] = append(f.pending[rec.Page], rec)
	return true
}

// ApplyIfCached applies a redo record iff the page is cached (the §4.5
// "ignore log records for uncached pages" policy). Reports whether the
// record was applied.
func (f *RemotePageFile) ApplyIfCached(rec *wal.Record) (bool, error) {
	pg, ok := f.cache.Get(rec.Page)
	if !ok {
		if rec.Kind == wal.KindPageImage {
			// A page being created: cheap to admit (it arrives complete).
			npg, err := btree.NewFormatted(rec)
			if err != nil {
				return false, err
			}
			return true, f.cache.Put(npg)
		}
		return false, nil
	}
	next, applied, err := btree.Apply(pg, rec)
	if err != nil || !applied {
		return false, err
	}
	return true, f.cache.Put(next)
}

var _ fcb.PageFile = (*RemotePageFile)(nil)
