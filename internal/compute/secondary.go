package compute

import (
	"context"
	"errors"
	"sync"
	"time"

	"socrates/internal/engine"
	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/rbio"
	"socrates/internal/rbpex"
	"socrates/internal/recovery"
	"socrates/internal/simdisk"
)

// SecondaryConfig assembles a secondary compute node.
type SecondaryConfig struct {
	// Name is the node's XLOG consumer identity.
	Name string
	// XLOG is the client to the XLOG service.
	XLOG *rbio.Client
	// Resolve maps pages to page-server selectors.
	Resolve resolver
	// CacheMemPages / CacheSSDPages size the sparse RBPEX.
	CacheMemPages, CacheSSDPages int
	// CacheSSD / CacheMeta are local cache devices.
	CacheSSD, CacheMeta *simdisk.Device
	// StartLSN is where log consumption begins (1 for a new database, or
	// the hardened end at attach for a later-added secondary).
	StartLSN page.LSN
	// StartTS seeds visibility for a later-added secondary.
	StartTS uint64
	// Obs wires the node into the observability plane: GetPage@LSN spans
	// and cache-miss latency histograms; this node's compute.applied_lsn
	// rung, labeled by Name; apply-batch flight events; and the compute
	// wait tier — xlog.feed when a caller blocks on apply progress,
	// page.remote/page.miss on the page path, lock.row on visibility
	// retries.
	Obs obs.Plane
}

// Secondary is a read-only compute node. It consumes the full log stream
// asynchronously, applying records only to pages it has cached (the §4.5
// policy — "log records that involve pages that are not cached are simply
// ignored"), publishing commit timestamps as they apply, and serving
// snapshot reads that transparently fetch missing pages via GetPage@LSN.
type Secondary struct {
	Engine *engine.Engine
	pages  *remotePageFile
	name   string

	mu      sync.Mutex
	applied page.LSN
	// fetchFloor is the end of the pull being applied, set before its first
	// record is handled (applyPull).
	fetchFloor page.LSN
	// visible, the node's rung, follows applied once the commit timestamps
	// below it are published: a snapshot begun after it reached an LSN sees
	// every commit below that LSN, one begun after applied did may not.
	visible *obs.Watermark

	// ctx ends when Stop is called. The apply loop's pulls run under it,
	// so Stop does not wait out a long poll at XLOG.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	redo *recovery.Replayer // the apply loop's cursor, under recovery.Cached
	// holdBeforePublish, set by a test before the feed starts, runs on the
	// apply thread between a pull's applied watermark and its publish.
	holdBeforePublish func()

	obs   obs.Plane
	waits *obs.WaitRecorder // obs.Waits.Tier(obs.TierCompute), resolved once
}

// NewSecondary builds and starts a secondary.
func NewSecondary(cfg SecondaryConfig) (*Secondary, error) {
	if cfg.XLOG == nil || cfg.Resolve == nil {
		return nil, errors.New("compute: XLOG and Resolve are required")
	}
	if cfg.CacheMemPages <= 0 {
		cfg.CacheMemPages = 128
	}
	if cfg.StartLSN == 0 {
		cfg.StartLSN = 1
	}
	s := &Secondary{
		name:    cfg.Name,
		applied: cfg.StartLSN,
		visible: cfg.Obs.Watermarks.Own(obs.WMSecondary, cfg.Name),
		obs:     cfg.Obs,
		waits:   cfg.Obs.Waits.Tier(obs.TierCompute),
	}
	s.visible.Publish(uint64(cfg.StartLSN))

	pages, err := newRemotePageFile(rbpex.Config{
		MemPages: cfg.CacheMemPages,
		SSDPages: cfg.CacheSSDPages,
		SSD:      cfg.CacheSSD,
		Meta:     cfg.CacheMeta,
	}, cfg.Resolve, s.floor, cfg.Obs)
	if err != nil {
		return nil, err
	}
	s.pages = pages
	s.redo = recovery.NewReplayer(&recovery.Cached{Pending: pages, Cache: pages.Cache()}, cfg.StartLSN)

	eng, err := engine.Open(engine.Config{
		Pages:     pages,
		ReadOnly:  true,
		ApplyRung: s.visible,
		Obs:       cfg.Obs,
	})
	if err != nil {
		pages.Close()
		return nil, err
	}
	eng.Clock().Publish(cfg.StartTS)
	s.Engine = eng

	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.wg.Add(1)
	go func() { // the whole log stream (§4.6), until Stop
		defer s.wg.Done()
		s.redo.Follow(s.ctx, cfg.XLOG, -1, recovery.PullBytes, s.applyPull)
	}()
	return s, nil
}

// Name reports the node's consumer identity.
func (s *Secondary) Name() string { return s.name }

// AppliedLSN reports the log-apply watermark.
func (s *Secondary) AppliedLSN() page.LSN {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

// floor is the freshness floor for pages this node does not hold: every
// record below the applied watermark, and every record of the pull being
// applied, may have touched the page and gone by ignored — so the page server
// must have applied up to the LSN before the higher of the two. Redo queued
// for the fetch meanwhile (§4.5) may then repeat what the image has; it is
// LSN-idempotent.
func (s *Secondary) floor() page.LSN {
	s.mu.Lock()
	defer s.mu.Unlock()
	return page.MaxLSN(s.applied, s.fetchFloor).Prev()
}

// WaitApplied blocks until the node has applied the log below the end LSN
// lsn and made its commits visible: a snapshot begun after it returns true
// reads every transaction that committed below lsn. Stop wakes it (false).
func (s *Secondary) WaitApplied(lsn page.LSN, timeout time.Duration) bool {
	// xlog.feed: the caller is blocked behind this node's log-apply progress.
	return s.waits.AwaitLSN(nil, obs.WaitXLOGFeed, s.visible, uint64(lsn), time.Now().Add(timeout)) == nil
}

// Stop halts log consumption; a pull waiting at XLOG ends with it, and the
// rung leaves the ladder.
func (s *Secondary) Stop() {
	if s.ctx.Err() != nil {
		return
	}
	s.visible.Drop()
	s.cancel()
	s.wg.Wait()
	s.pages.Close()
}

// applyPull applies one pull's answer in an order that is the node's read
// contract. Before the first record the fetch floor moves to the pull's end:
// a page fetched while the pull is applied comes with all of it, records
// that went by ignored included. Then the page operations, staged in the
// cursor's set; the set's install, each page once; the applied watermark;
// the pull's commit timestamps; and the visible watermark WaitApplied waits
// on. A snapshot never shows a commit at or above AppliedLSN (a reader who
// sees one fetches at least its pull), and a caller told the pull is applied
// never begins a snapshot that misses its commits.
func (s *Secondary) applyPull(_, next page.LSN, payload []byte) error {
	s.mu.Lock()
	s.fetchFloor = next
	s.mu.Unlock()
	if err := s.redo.ApplyBlocks(payload, 0); err != nil {
		return err
	}
	if err := s.redo.PageSet().Install(); err != nil {
		return err
	}
	s.mu.Lock()
	s.applied = page.MaxLSN(s.applied, next)
	s.mu.Unlock()
	if s.holdBeforePublish != nil {
		s.holdBeforePublish()
	}
	s.Engine.Clock().Publish(s.redo.Visible())
	s.visible.Publish(uint64(next))
	s.obs.Flight.Record(obs.TierCompute, "sec.apply", uint64(next), 0,
		s.name+": batch applied")
	return nil
}
