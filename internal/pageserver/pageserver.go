// Package pageserver implements the Socrates storage tier (§4.6). A page
// server owns one partition of the database and does three jobs:
//
//  1. keep its copy of the partition current by applying the (filtered) log
//     pulled from XLOG;
//  2. answer GetPage@LSN requests from compute nodes, one page each, waiting
//     until its applied LSN passes the requested LSN so it can never return
//     a stale page (§4.4);
//  3. checkpoint modified pages to XStore — when the log a restart would
//     have to redo, or the dirty set, reaches its budget, as one aggregated
//     write, insulated from transient XStore outages — so backups are
//     XStore snapshots and the "truth" of the database is always in cheap
//     storage.
//
// Page servers are stateless in the durability sense: a lost page server is
// rebuilt from the last XStore checkpoint plus the log tail, and a new
// replica seeds asynchronously while already serving requests.
package pageserver

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"socrates/internal/fcb"
	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/rbio"
	"socrates/internal/rbpex"
	"socrates/internal/recovery"
	"socrates/internal/simdisk"
	"socrates/internal/socerr"
	"socrates/internal/xstore"
)

// errStopped reports an operation on a stopped server. It wraps
// socerr.ErrClosed so errors.Is(err, socerr.ErrClosed) classifies it.
var errStopped = fmt.Errorf("pageserver: stopped: %w", socerr.ErrClosed)

// Config assembles a page server.
type Config struct {
	// Partition this server subscribes to in the XLOG filter.
	Partition page.PartitionID
	// Partitioning maps pages to partitions (shared cluster config).
	Partitioning page.Partitioning
	// RangeLo / RangeHi, when RangeHi > 0, override the served page range
	// with a sub-range of the partition — this is how a partition is split
	// into finer shards for faster recovery (§6): each half still filters
	// on the parent partition's log annotation but serves and checkpoints
	// only its own range.
	RangeLo, RangeHi page.ID
	// Name is this server's identity (XLOG consumer, checkpoint metadata).
	Name string
	// XLOG is the client to the XLOG service for pulls.
	XLOG *rbio.Client
	// Store is the XStore account holding checkpoints.
	Store *xstore.Store
	// BlobPrefix namespaces this database's checkpoint blobs, e.g. "db1/".
	// Page blobs share one namespace (BlobPrefix + "page/<id>") so any
	// server covering a range can seed any of its pages; per-server
	// metadata lives at BlobPrefix + "meta/<name>".
	BlobPrefix string
	// CacheSSD and CacheMeta are local SSD devices for the covering RBPEX.
	CacheSSD, CacheMeta *simdisk.Device
	// MemPages sizes the RBPEX memory tier (default 64).
	MemPages int
	// StartLSN is where log apply begins for a brand-new database (1).
	StartLSN page.LSN
	// PullBytes bounds one pull batch (default recovery.PullBytes).
	PullBytes int
	// CheckpointEvery is how often the checkpoint policy is evaluated
	// (default 50 ms) — not how often a checkpoint is taken; see
	// checkpointLoop.
	CheckpointEvery time.Duration
	// Seed, if true, seeds the cache from the XStore checkpoint
	// asynchronously at startup (new server / replica / restart without
	// intact local SSD).
	Seed bool
	// Obs wires the server into the observability plane: page-server-tier
	// spans and instruments; this server's applied/checkpoint rungs of the
	// LSN ladder, labeled by Name; flight events for apply batches, GetPage
	// waits, seeding fetches, checkpoint sweeps and XStore outages; and the
	// pageserver wait tier — xlog.feed while a GetPage@LSN blocks behind
	// apply lag, ckpt.drain while a backup flush drains the dirty set.
	Obs obs.Plane
}

// Server is one page server.
type Server struct {
	cfg   Config
	cache *rbpex.Cache
	lo    page.ID // partition page range [lo, hi)
	hi    page.ID

	// The server's rungs, dropped by Stop: applied is the next LSN to pull
	// (everything below it applied and marked dirty), ckpt the resume LSN
	// persisted with the last checkpoint.
	applied, ckpt *obs.Watermark

	mu      sync.Mutex
	dirty   map[page.ID]page.LSN // newest un-checkpointed version per page
	clean   chan struct{}        // closed while dirty is empty
	drains  int                  // callers waiting for dirty to empty
	ckptLSN page.LSN             // resume LSN persisted with the last checkpoint
	ckptErr error                // the last sweep's failure (an XStore outage: checkpointing deferred), nil if it landed

	// kick wakes the checkpoint loop between ticks. Only that loop sweeps
	// (and Stop, once the loop has exited): a slow sweep finishing after a
	// later one would put the older page versions it read, and its older
	// resume LSN, over the newer ones.
	kick chan struct{}
	// ctx ends when Stop is called. The background loops watch it, and the
	// apply loop's pulls run under it, so Stop does not wait out a long
	// poll at XLOG.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// The apply loop's cursor, whose page set applyPull installs; only the
	// apply loop touches it.
	redo *recovery.Replayer

	// waitRec is cfg.Obs.Waits.Tier(obs.TierPageServer), resolved once.
	waitRec *obs.WaitRecorder

	served  atomic.Int64
	waits   atomic.Int64
	applies atomic.Int64
}

// New builds (and starts) a page server. If the local cache devices hold a
// previous incarnation's RBPEX, it is recovered and apply resumes from the
// persisted checkpoint LSN; otherwise the server starts from StartLSN or —
// with cfg.Seed — from the XStore checkpoint.
func New(cfg Config) (*Server, error) {
	if cfg.XLOG == nil || cfg.Store == nil {
		return nil, errors.New("pageserver: XLOG client and Store are required")
	}
	if cfg.MemPages <= 0 {
		cfg.MemPages = 64
	}
	if cfg.PullBytes <= 0 {
		cfg.PullBytes = recovery.PullBytes
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 50 * time.Millisecond
	}
	if cfg.StartLSN == 0 {
		cfg.StartLSN = 1
	}
	lo, hi := cfg.Partitioning.Range(cfg.Partition)
	if cfg.Partitioning.PagesPerPartition == 0 {
		lo, hi = 0, page.ID(1<<22) // single partition covering 4M pages
	}
	if cfg.RangeHi > 0 {
		lo, hi = cfg.RangeLo, cfg.RangeHi
	}
	cache, err := rbpex.Open(rbpex.Config{
		MemPages: cfg.MemPages,
		SSDPages: int(hi - lo),
		Covering: true,
		Base:     lo,
		SSD:      cfg.CacheSSD,
		Meta:     cfg.CacheMeta,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		waitRec: cfg.Obs.Waits.Tier(obs.TierPageServer),
		cache:   cache,
		lo:      lo,
		hi:      hi,
		dirty:   make(map[page.ID]page.LSN),
		clean:   make(chan struct{}),
		kick:    make(chan struct{}, 1),
	}
	close(s.clean)
	s.ctx, s.cancel = context.WithCancel(context.Background())

	// Decide the apply resume point: persisted checkpoint meta (if any),
	// else the configured start.
	s.ckptLSN = cfg.StartLSN
	if meta, err := s.readMeta(); err == nil {
		s.ckptLSN = meta
		// RBPEX may hold pages newer than the checkpoint; redo is
		// idempotent, so resuming from the checkpoint LSN is safe and the
		// recovered cache saves the refetch (§3.3).
	}
	s.applied = cfg.Obs.Watermarks.Own(obs.WMApplied, cfg.Name)
	s.applied.Publish(uint64(s.ckptLSN))
	s.ckpt = cfg.Obs.Watermarks.Own(obs.WMCheckpoint, cfg.Name)
	s.redo = recovery.NewReplayer(&recovery.Owned{PageFile: applyPager{s}, Lo: lo, Hi: hi, Fetch: s.fetchFromStore}, s.ckptLSN)
	if cfg.Seed {
		s.wg.Add(1)
		go s.seedLoop()
	}
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		s.redo.Follow(s.ctx, cfg.XLOG, int32(cfg.Partition), cfg.PullBytes, s.applyPull)
	}()
	go s.checkpointLoop()
	return s, nil
}

// Stop halts background work (final checkpoint attempt included). Its rungs
// leave the ladder first, so a GetPage waiting on one returns at once.
func (s *Server) Stop() {
	if s.ctx.Err() != nil {
		return
	}
	s.ckpt.Drop()
	s.applied.Drop()
	s.cancel()
	s.wg.Wait()
	//socrates:ignore-err the shutdown checkpoint is best-effort; the dirty set is re-derivable by redo from the persisted resume LSN
	_, _ = s.sweep()
}

// Partition reports the owned partition.
func (s *Server) Partition() page.PartitionID { return s.cfg.Partition }

// Range reports the owned page range [lo, hi).
func (s *Server) Range() (page.ID, page.ID) { return s.lo, s.hi }

// owns reports whether the server owns the page.
func (s *Server) owns(id page.ID) bool { return id >= s.lo && id < s.hi }

// AppliedLSN reports the apply watermark (next LSN to pull).
func (s *Server) AppliedLSN() page.LSN { return page.LSN(s.applied.Value()) }

// WaitApplied blocks until the apply watermark reaches the end LSN lsn
// (every record below it applied) or the timeout elapses; it reports
// whether the watermark got there. Cluster workflows use it to wait for
// catch-up on the apply signal instead of polling.
func (s *Server) WaitApplied(lsn page.LSN, timeout time.Duration) bool {
	return s.waitApplied(context.Background(), lsn, timeout) == nil
}

// Cache exposes the covering RBPEX (stats for experiments).
func (s *Server) Cache() *rbpex.Cache { return s.cache }

// CacheDevice exposes the RBPEX's backing SSD device (failure injection in
// stall tests: an outage here freezes the apply loop without touching the
// rest of the cluster).
func (s *Server) CacheDevice() *simdisk.Device { return s.cfg.CacheSSD }

// Stats reports pages served, waits for the apply watermark that blocked, and
// page versions apply installed (one per page a pull touched).
func (s *Server) Stats() (served, waits, applies int64) {
	return s.served.Load(), s.waits.Load(), s.applies.Load()
}

// --- blob naming ---

func (s *Server) pageBlob(id page.ID) string {
	return s.cfg.BlobPrefix + "page/" + strconv.FormatUint(uint64(id), 10)
}

func (s *Server) metaBlob() string {
	return s.cfg.BlobPrefix + "meta/" + s.cfg.Name
}

func (s *Server) readMeta() (page.LSN, error) {
	buf, err := s.cfg.Store.Get(s.metaBlob())
	if err != nil {
		return 0, err
	}
	if len(buf) < 8 {
		return 0, errors.New("pageserver: short meta blob")
	}
	return page.LSN(binary.LittleEndian.Uint64(buf)), nil
}

// --- log apply ---

// applyPull applies one pull's answer, installs the cursor's page set and
// publishes the watermark. The set starts empty, so no version a reader may
// hold is redo's to edit; the versions redo builds during the pull stay the
// set's own until Install publishes them. A failed redo or install fails the
// pull, which is pulled again. Each pull starts its own trace.
//
//socrates:hotpath the apply feed's batch loop; TestApplyFeedAllocs
func (s *Server) applyPull(from, next page.LSN, payload []byte) error {
	start := time.Now() // after the pull: XLOG's wait for the log is no part of applying it
	installed, redone := s.applies.Load(), s.redo.Redone()
	if err := s.redo.ApplyBlocks(payload, 0); err != nil {
		return err
	}
	if err := s.redo.PageSet().Install(); err != nil {
		s.cfg.Obs.Flight.Record(obs.TierPageServer, "ps.apply_error", uint64(from), time.Since(start),
			s.cfg.Name+": cache put: "+err.Error())
		return err
	}
	s.cfg.Obs.Metrics.Histogram("pageserver.apply.latency").Since(start)
	s.applied.Publish(uint64(next)) // every page below next is marked dirty: a sweep may resume here
	s.cfg.Obs.Flight.Record(obs.TierPageServer, "ps.apply", uint64(next), time.Since(start),
		fmt.Sprintf("%s: pages=%d records=%d", s.cfg.Name, s.applies.Load()-installed, s.redo.Redone()-redone))
	return nil
}

// applyPager is the pull's page set's pager. Read is the covering cache;
// Write installs a page of the pull: counted, marked dirty and then cached
// (a sweep relies on a page being marked before the cache has it).
type applyPager struct{ *Server }

func (p applyPager) Read(id page.ID) (*page.Page, error) {
	if pg, ok := p.cache.Get(id); ok {
		return pg, nil
	}
	return nil, fcb.ErrNotFound
}

func (p applyPager) Write(pg *page.Page) error {
	p.applies.Add(1)
	p.cfg.Obs.Metrics.Counter("pageserver.apply.pages").Inc()
	p.markDirty(pg)
	return p.cache.Put(pg)
}

// markDirty records that pg's version still has to reach XStore.
func (s *Server) markDirty(pg *page.Page) {
	s.mu.Lock()
	if len(s.dirty) == 0 {
		s.clean = make(chan struct{})
	}
	s.dirty[pg.ID] = page.MaxLSN(s.dirty[pg.ID], pg.LSN)
	s.mu.Unlock()
}

// fetchFromStore loads one page's checkpoint copy from XStore into the
// cache (on-demand seeding).
func (s *Server) fetchFromStore(id page.ID) (*page.Page, error) {
	buf, err := s.cfg.Store.Get(s.pageBlob(id))
	if err != nil {
		return nil, err
	}
	pg, err := page.Decode(buf)
	if err != nil {
		return nil, err
	}
	if err := s.cache.Seed(pg); err != nil {
		return nil, err
	}
	return pg, nil
}

// --- seeding ---

// seedLoop lays down the covering copy from the XStore checkpoint in the
// background while the server is already serving (§4.6: "its RBPEX is
// seeded asynchronously while the Page Server is already available").
func (s *Server) seedLoop() {
	defer s.wg.Done()
	prefix := s.cfg.BlobPrefix + "page/"
	for _, name := range s.cfg.Store.List(prefix) {
		if s.ctx.Err() != nil {
			return
		}
		id, err := strconv.ParseUint(name[len(prefix):], 10, 64)
		if err != nil || !s.owns(page.ID(id)) || s.cache.Contains(page.ID(id)) {
			continue // not ours, or already fetched on demand or applied from log
		}
		//socrates:ignore-err a failed background seed is recovered by the on-demand fetchFromStore path; seeding is purely a warm-up (§4.6)
		_, _ = s.fetchFromStore(page.ID(id))
	}
}

// --- checkpointing ---

// The checkpoint policy's budgets (DESIGN §19 derives them).
const (
	// redoBudgetLSN bounds the log a restart replays: a sweep is due when
	// the apply watermark is this many records past the checkpoint's resume
	// LSN.
	redoBudgetLSN = 65536
	// dirtyBudgetPages bounds one sweep's write: a sweep is due when this
	// many pages are waiting (32 MiB of images).
	dirtyBudgetPages = 4096
	// quietTicks is the idle rule: with pages dirty and the apply watermark
	// still for this many evaluations in a row, the server drains on its
	// own, so that once traffic stops the truth is in XStore.
	quietTicks = 4
)

// checkpointLoop evaluates the checkpoint policy every CheckpointEvery, and
// at once when a drain asks. The tick is not the cadence of checkpoints: a
// sweep is taken only when sweepDue says the redo a restart would face, or
// the write the sweep would make, has reached its budget, when the server
// has gone quiet with pages dirty, or while someone waits for a drain —
// pages a workload keeps changing are written once per budget, not once per
// tick.
func (s *Server) checkpointLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.CheckpointEvery)
	defer ticker.Stop()
	var last page.LSN // the apply watermark at the previous tick
	quiet := 0        // ticks in a row it has not moved
	for {
		//socrates:wait-ok checkpoint policy tick, not a stall
		select {
		case <-s.ctx.Done():
			return
		case <-s.kick:
		case <-ticker.C:
			if applied := s.AppliedLSN(); applied == last {
				quiet++
			} else {
				last, quiet = applied, 0
			}
		}
		// A sweep that wrote pages may leave the policy still asking (a drain
		// with pages re-dirtied meanwhile); one that wrote none, or failed —
		// an XStore outage keeps the batch dirty (§4.6) — waits for the next
		// tick. Quiet is this tick's reading: it is good for one sweep.
		for idle := quiet >= quietTicks; s.sweepDue(idle); idle = false {
			if wrote, err := s.sweep(); err != nil || wrote == 0 {
				break
			}
		}
	}
}

// sweepDue is the trigger rule; quiet says the apply watermark has stood
// still for quietTicks evaluations. The occupancy gauges ride the evaluation
// cadence: cheap, periodic, and visible on /metrics without touching the
// apply hot path.
func (s *Server) sweepDue(quiet bool) bool {
	s.cfg.Obs.Metrics.Gauge(key("pageserver.rbpex.pages", s.cfg.Name)).Set(int64(s.cache.Len()))
	s.mu.Lock()
	defer s.mu.Unlock()
	redo := s.AppliedLSN().Distance(s.ckptLSN)
	s.cfg.Obs.Metrics.Gauge(key("pageserver.redo_distance_lsn", s.cfg.Name)).Set(int64(redo))
	s.cfg.Obs.Metrics.Gauge(key("pageserver.dirty_pages", s.cfg.Name)).Set(int64(len(s.dirty)))
	if redo >= redoBudgetLSN {
		// Even with nothing dirty: the log other partitions fill moves the
		// watermark too, and the resume LSN has to follow it.
		return true
	}
	return len(s.dirty) > 0 && (quiet || s.drains > 0 || len(s.dirty) >= dirtyBudgetPages)
}

// sweep ships the whole dirty set to XStore as one batch — the page images
// and, last, the meta blob with the resume LSN — and reports how many pages
// it wrote. The batch lands whole or not at all: on an XStore outage every
// page stays dirty ("pages that were written in RBPEX but not in XStore are
// remembered") and the resume LSN stays where it was, and the checkpoint
// resumes when XStore is back (§4.6).
func (s *Server) sweep() (int, error) {
	s.mu.Lock()
	// Everything below the apply watermark is in the cache and, if not yet
	// in XStore, in the dirty set this sweep takes whole (the apply loop
	// marks a pull's pages before the rung passes them): redo can resume here.
	resume := s.AppliedLSN()
	if len(s.dirty) == 0 && resume == s.ckptLSN {
		s.mu.Unlock()
		return 0, nil // nothing a checkpoint would change
	}
	ids := make([]page.ID, 0, len(s.dirty))
	for id := range s.dirty {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	ckptStart := time.Now()
	// In page-ID order: pages allocated together tend to go cold together
	// (a split's new siblings, a load's tail), and XStore gives a segment
	// back only when every image in it has been superseded — a batch in map
	// order would leave a few cold pages pinning each of its segments.
	slices.Sort(ids)

	// One buffer for the whole batch, sized exactly and not kept: sweeps are
	// rare by design, and megabytes held between them are megabytes of
	// resident memory for nothing.
	buf := make([]byte, 0, len(ids)*page.Size+8)
	blobs := make([]xstore.BatchBlob, 0, len(ids)+1)
	lsns := make([]page.LSN, 0, len(ids))
	wrote := 0 // ids[:wrote] are the pages in the batch, lsns their versions
	for _, id := range ids {
		pg, ok := s.cache.Get(id)
		if !ok {
			// Marked dirty but its Put has not landed yet (the apply loop
			// marks first): it stays dirty for the next sweep. Its records
			// lie at or above resume, so the resume point is still good.
			continue
		}
		var err error
		if buf, err = pg.AppendEncode(buf); err != nil {
			return 0, err
		}
		blobs = append(blobs, xstore.BatchBlob{Name: s.pageBlob(id), Len: page.Size})
		ids[wrote] = id
		lsns = append(lsns, pg.LSN)
		wrote++
	}
	buf = binary.LittleEndian.AppendUint64(buf, resume.Uint64())
	blobs = append(blobs, xstore.BatchBlob{Name: s.metaBlob(), Len: 8})
	err := s.cfg.Store.PutBatch(buf, blobs)
	if err != nil {
		s.mu.Lock()
		s.ckptErr = err
		s.mu.Unlock()
		s.cfg.Obs.Flight.Record(obs.TierXStore, "xstore.outage", uint64(resume),
			time.Since(ckptStart), s.cfg.Name+": checkpoint batch: "+err.Error())
		return 0, err
	}
	// Counted, published and recorded before the dirty marks clear: a
	// WaitCheckpointDrain that returns has this sweep on every plane.
	s.cfg.Obs.Metrics.Counter("pageserver.ckpt.sweeps").Inc()
	s.cfg.Obs.Metrics.Counter("pageserver.ckpt.pages").Add(uint64(wrote))
	s.ckpt.Publish(uint64(resume))
	s.cfg.Obs.Flight.Record(obs.TierPageServer, "ps.checkpoint", uint64(resume),
		time.Since(ckptStart), fmt.Sprintf("%s: pages=%d", s.cfg.Name, wrote))
	s.mu.Lock()
	s.ckptErr, s.ckptLSN = nil, resume
	s.clearDirty(ids[:wrote], lsns)
	s.mu.Unlock()
	return wrote, nil
}

// key joins an instrument name with a replica label the way the rest of
// the plane does ("name/replica"); singleton names pass "".
func key(name, replica string) string {
	if replica == "" {
		return name
	}
	return name + "/" + replica
}

// clearDirty drops the dirty marks the persisted versions (page ids[i] at
// lsns[i]) satisfy. A page the apply loop changed again while the sweep was
// writing it carries a newer mark and stays dirty — clearing by ID alone
// would leave that version out of every later checkpoint while the resume
// LSN moves past it. Caller holds s.mu.
func (s *Server) clearDirty(ids []page.ID, lsns []page.LSN) {
	was := len(s.dirty)
	for i, id := range ids {
		if s.dirty[id].AtMost(lsns[i]) {
			delete(s.dirty, id)
		}
	}
	if was > 0 && len(s.dirty) == 0 {
		close(s.clean)
	}
}

// XStoreDown reports whether the last checkpoint attempt hit an outage.
func (s *Server) XStoreDown() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ckptErr != nil
}

// WaitCheckpointDrain asks the checkpoint loop for sweeps until the dirty
// set is empty and waits, up to timeout, on the server's own signal that it
// is: every page applied so far is then in XStore.
func (s *Server) WaitCheckpointDrain(timeout time.Duration) error {
	// ckpt.drain: the caller's progress is gated on the checkpoint sweep
	// catching the apply feed. Aggregate-only; drains carry no request
	// context.
	region := s.waitRec.Begin(nil, obs.WaitCkptDrain)
	defer region.End()
	s.mu.Lock()
	s.drains++
	clean := s.clean
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.drains--
		s.mu.Unlock()
	}()
	select {
	case s.kick <- struct{}{}:
	default: // a wake-up is already pending
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-clean:
		return nil
	case <-s.ctx.Done():
		return errStopped
	case <-timer.C:
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.ckptErr != nil {
			return fmt.Errorf("pageserver: checkpoint drain: %w", s.ckptErr)
		}
		return fmt.Errorf("pageserver: %d dirty page(s) did not drain in %v", len(s.dirty), timeout)
	}
}

// FlushForBackup forces a full checkpoint so an XStore snapshot taken right
// after captures every applied page. Returns the resume LSN captured.
func (s *Server) FlushForBackup() (page.LSN, error) {
	if err := s.WaitCheckpointDrain(5 * time.Second); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ckptLSN, nil
}

// --- GetPage@LSN ---

// waitApplied blocks until the applied rung reaches the end LSN lsn. It
// gives up with socerr.ErrTimeout once timeout has elapsed, with ctx's error
// once ctx ends — a GetPage whose caller has gone stops waiting — and with
// an error wrapping socerr.ErrClosed once Stop drops the rung.
func (s *Server) waitApplied(ctx context.Context, lsn page.LSN, timeout time.Duration) error {
	if s.AppliedLSN().AtLeast(lsn) {
		return nil
	}
	s.waits.Add(1)
	// xlog.feed: a reader blocked behind apply lag is waiting on the log
	// feed pipeline (XLOG pull → redo); ctx attributes the wait to the
	// GetPage span.
	err := s.waitRec.AwaitLSN(ctx, obs.WaitXLOGFeed, s.applied, uint64(lsn), time.Now().Add(timeout))
	if errors.Is(err, obs.ErrDeadline) {
		return socerr.Timeoutf("pageserver: apply lag: applied %d, need %d", s.AppliedLSN(), lsn)
	}
	return err
}

// GetPage serves one page at an LSN at least minLSN (the §4.4 protocol).
// The context carries the calling compute node's span identity (decoded
// from the RBIO frame), so the page-server read shows up inside the
// caller's GetPage@LSN trace.
//
//socrates:hotpath the paper's defining latency path; warm-cache budget enforced by TestGetPageAllocs
func (s *Server) GetPage(ctx context.Context, id page.ID, minLSN page.LSN) (*page.Page, error) {
	ctx, sp := s.cfg.Obs.Tracer.JoinSpan(ctx, obs.TierPageServer, "pageserver.getpage")
	defer sp.End()
	start := time.Now()
	defer s.cfg.Obs.Metrics.Histogram("pageserver.getpage.latency").Since(start)
	if !s.owns(id) {
		return nil, fmt.Errorf("pageserver: page %d outside partition [%d,%d)", id, s.lo, s.hi)
	}
	waitStart := time.Now()
	if err := s.waitApplied(ctx, minLSN.Next(), 5*time.Second); err != nil {
		return nil, err
	}
	if wait := time.Since(waitStart); wait > 0 {
		s.cfg.Obs.Metrics.Histogram("pageserver.getpage.wait").Observe(wait)
		if wait > time.Millisecond {
			// Only material waits are worth a ring slot: a GetPage@LSN
			// stuck behind apply lag is exactly what a postmortem reads.
			s.cfg.Obs.Flight.Record(obs.TierPageServer, "ps.getpage_wait",
				uint64(minLSN), wait, s.cfg.Name+": waited for apply")
		}
	}
	if pg, ok := s.cache.Get(id); ok {
		s.served.Add(1)
		return pg, nil
	}
	// Covering cache miss: only possible while seeding — fetch on demand.
	sp.SetAttr("xstore-fetch", "true")
	fetchStart := time.Now()
	pg, err := s.fetchFromStore(id)
	if err != nil {
		sp.SetError(err)
		s.cfg.Obs.Flight.Record(obs.TierPageServer, "ps.miss", uint64(minLSN),
			time.Since(fetchStart),
			fmt.Sprintf("%s: page %d xstore fetch failed: %v", s.cfg.Name, id, err))
		return nil, fmt.Errorf("pageserver: page %d not found: %w", id, err)
	}
	s.cfg.Obs.Flight.Record(obs.TierPageServer, "ps.miss", uint64(minLSN),
		time.Since(fetchStart), fmt.Sprintf("%s: page %d seeded from xstore", s.cfg.Name, id))
	s.served.Add(1)
	return pg, nil
}

// Handler exposes the server over RBIO. The transport passes a context
// carrying the frame's span identity, so page-server spans join the
// calling compute node's trace.
func (s *Server) Handler() rbio.Handler {
	return func(ctx context.Context, req *rbio.Request) *rbio.Response {
		switch req.Type {
		case rbio.MsgPing:
			return rbio.Ok()
		case rbio.MsgGetPage:
			pg, err := s.GetPage(ctx, req.Page, req.LSN)
			if err != nil {
				return rbio.Retryf("get-page: %v", err)
			}
			return pageResponse(pg)
		case rbio.MsgReadState:
			resp := rbio.Ok()
			resp.LSN = s.AppliedLSN()
			return resp
		default:
			return rbio.Errorf("pageserver: unsupported message %v", req.Type)
		}
	}
}

// pageResponse builds a MsgGetPage response. Its payload is the page's
// image (page.Encode): the very bytes the server read it from when it came
// off a device, so serving it allocates only the response; a page redo
// built in memory is encoded into a payload of its own. Nothing writes a
// response payload, so sharing the cached page's image with the wire is
// safe; the receiver verifies it again (DecodePage).
//
//socrates:hotpath runs once per GetPage served; TestGetPageAllocs (Handler, Handler/device-read)
func pageResponse(pg *page.Page) *rbio.Response {
	payload, err := pg.Encode()
	if err != nil {
		return rbio.Errorf("encode: %v", err)
	}
	resp := rbio.Ok()
	resp.Payload = payload
	resp.LSN = pg.LSN
	return resp
}

// DecodePage parses a MsgGetPage response payload: exactly one page image,
// verified — the wire is a trust boundary.
func DecodePage(payload []byte) (*page.Page, error) {
	pg, err := page.Decode(payload)
	if err != nil {
		return nil, fmt.Errorf("pageserver: GetPage payload: %w", err)
	}
	return pg, nil
}
