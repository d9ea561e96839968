package compute

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"socrates/internal/engine"
	"socrates/internal/metrics"
	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/rbio"
	"socrates/internal/rbpex"
	"socrates/internal/simdisk"
	"socrates/internal/wal"
)

// SecondaryConfig assembles a secondary compute node.
type SecondaryConfig struct {
	// Name is the node's XLOG consumer identity.
	Name string
	// XLOG is the client to the XLOG service.
	XLOG *rbio.Client
	// Resolve maps pages to page-server selectors.
	Resolve Resolver
	// CacheMemPages / CacheSSDPages size the sparse RBPEX.
	CacheMemPages, CacheSSDPages int
	// CacheSSD / CacheMeta are local cache devices.
	CacheSSD, CacheMeta *simdisk.Device
	// StartLSN is where log consumption begins (1 for a new database, or
	// the hardened end at attach for a later-added secondary).
	StartLSN page.LSN
	// StartTS seeds visibility for a later-added secondary.
	StartTS uint64
	// Meter, if set, is charged the node's simulated CPU.
	Meter *metrics.CPUMeter
	// PullBytes bounds one pull batch (default 256 KiB).
	PullBytes int
	// ApplyDelay adds latency before each pull — models a geo-replica
	// consuming the log across a WAN (§6).
	ApplyDelay time.Duration
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
	pages  *RemotePageFile
	name   string
	xlog   *rbio.Client

	mu      sync.Mutex
	applied page.LSN
	// visibleTo follows applied: it moves once the commit timestamps of
	// everything below it are published. A snapshot begun after visibleTo
	// reached an LSN sees every commit below that LSN; one begun after
	// applied did may not yet.
	visibleTo page.LSN
	// fetchFloor is the end of the block being applied, set before its first
	// record is handled: a fetch that registers mid-block asks the page
	// server for the whole block, records that went by before it registered
	// (ignored: the page was not cached) included.
	fetchFloor page.LSN
	cond       *sync.Cond

	// ctx ends when Stop is called. The apply loop's pulls run under it,
	// so Stop does not wait out a long poll at XLOG.
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	ignored     atomic.Int64
	appliedRecs atomic.Int64
	queuedRecs  atomic.Int64
	pullBytes   int
	applyDelay  time.Duration
	// holdBeforePublish, set by a test before the feed starts, runs on the
	// apply thread between a block's applied watermark and its publish.
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
	if cfg.PullBytes <= 0 {
		cfg.PullBytes = 256 << 10
	}
	if cfg.StartLSN == 0 {
		cfg.StartLSN = 1
	}
	s := &Secondary{
		name:       cfg.Name,
		xlog:       cfg.XLOG,
		applied:    cfg.StartLSN,
		visibleTo:  cfg.StartLSN,
		pullBytes:  cfg.PullBytes,
		applyDelay: cfg.ApplyDelay,
		obs:        cfg.Obs,
		waits:      cfg.Obs.Waits.Tier(obs.TierCompute),
	}
	s.cond = sync.NewCond(&s.mu)

	pages, err := NewRemotePageFile(rbpex.Config{
		MemPages: cfg.CacheMemPages,
		SSDPages: cfg.CacheSSDPages,
		SSD:      cfg.CacheSSD,
		Meta:     cfg.CacheMeta,
	}, cfg.Resolve, s.floor, cfg.Obs)
	if err != nil {
		return nil, err
	}
	s.pages = pages

	eng, err := engine.Open(engine.Config{
		Pages:    pages,
		ReadOnly: true,
		Meter:    cfg.Meter,
		Obs:      cfg.Obs,
		WaitFresh: func() {
			// A traversal raced log apply: pause until the apply thread
			// makes progress, then retry (§4.5).
			s.waitApplyProgress(2 * time.Millisecond)
		},
	})
	if err != nil {
		pages.Close()
		return nil, err
	}
	eng.Clock().Publish(cfg.StartTS)
	s.Engine = eng

	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.wg.Add(1)
	go s.applyLoop()
	return s, nil
}

// Name reports the node's consumer identity.
func (s *Secondary) Name() string { return s.name }

// Pages exposes the cache-fronted page file.
func (s *Secondary) Pages() *RemotePageFile { return s.pages }

// AppliedLSN reports the log-apply watermark.
func (s *Secondary) AppliedLSN() page.LSN {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

// floor is the freshness floor for pages this node does not hold: every
// record below the applied watermark, and every record of the block being
// applied, may have touched the page and gone by ignored — so the page server
// must have applied up to the LSN before the higher of the two. Redo queued
// for the fetch meanwhile (§4.5) may then repeat what the image has; it is
// LSN-idempotent.
func (s *Secondary) floor() page.LSN {
	s.mu.Lock()
	defer s.mu.Unlock()
	return page.MaxLSN(s.applied, s.fetchFloor).Prev()
}

// Stats reports records applied, ignored (uncached policy), and queued for
// in-flight fetches.
func (s *Secondary) Stats() (applied, ignored, queued int64) {
	return s.appliedRecs.Load(), s.ignored.Load(), s.queuedRecs.Load()
}

// WaitApplied blocks until the node has applied the log below lsn and made
// its commits visible: a snapshot begun after it returns true reads every
// transaction that committed below lsn.
func (s *Secondary) WaitApplied(lsn page.LSN, timeout time.Duration) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	// xlog.feed: the caller is blocked behind this node's log-apply progress.
	return s.waits.CondWait(nil, obs.WaitXLOGFeed, s.cond, time.Now().Add(timeout),
		func() bool { return s.visibleTo.AtLeast(lsn) }) == nil
}

// waitApplyProgress blocks until applied advances or the timeout elapses.
func (s *Secondary) waitApplyProgress(timeout time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := s.applied
	//socrates:wait-ok reached only via the engine's WaitFresh hook, whose caller (withReadRetry) records the blocked time as lock.row
	_ = s.waits.CondWait(nil, obs.WaitNone, s.cond, time.Now().Add(timeout),
		func() bool { return s.applied != start })
}

// Stop halts log consumption; a pull waiting at XLOG ends with it.
func (s *Secondary) Stop() {
	if s.ctx.Err() != nil {
		return
	}
	s.cancel()
	s.wg.Wait()
	s.pages.Close()
}

// pullRetry spaces the apply loop's pulls while they fail (XLOG down, or
// answering errors), so an outage does not spin a core. An empty answer is
// pulled again at once: XLOG answers a pull only once the log passes it, or
// at its own cap.
const pullRetry = 300 * time.Microsecond

func (s *Secondary) applyLoop() {
	defer s.wg.Done()
	for s.ctx.Err() == nil {
		if s.applyDelay > 0 {
			//socrates:sleep-ok applyDelay models a geo-replica's WAN propagation lag; the delay IS the semantics, not a poll
			time.Sleep(s.applyDelay)
		}
		if err := s.pullOnce(); err != nil {
			retry := time.NewTimer(pullRetry)
			//socrates:wait-ok failed-pull back-off in the apply loop; nobody waits on it
			select {
			case <-s.ctx.Done():
			case <-retry.C:
			}
			retry.Stop()
		}
	}
}

// pullTimeout bounds one secondary pull round against the XLOG service.
const pullTimeout = 10 * time.Second

// pullOnce pulls one batch from XLOG and applies it. An empty answer is no
// error — XLOG has already waited for the log — but a failed pull is.
func (s *Secondary) pullOnce() error {
	s.mu.Lock()
	from := s.applied
	s.mu.Unlock()

	// Bounded: a stalled XLOG costs one timed-out round instead of a wedged
	// consumer goroutine.
	ctx, cancel := context.WithTimeout(s.ctx, pullTimeout)
	defer cancel()
	resp, err := s.xlog.Call(ctx, &rbio.Request{
		Type:      rbio.MsgPullBlocks,
		LSN:       from,
		Partition: -1, // secondaries consume the whole stream (§4.6)
		MaxBytes:  int32(s.pullBytes),
	})
	if err == nil {
		err = resp.Err()
	}
	if err != nil {
		return err
	}
	payload := resp.Payload
	for len(payload) > 0 {
		b, n, err := wal.DecodeBlock(payload)
		if err != nil {
			return err
		}
		payload = payload[n:]
		s.applyBlock(b)
	}
	if resp.LSN == from {
		return nil
	}
	s.advance(&s.applied, resp.LSN)
	s.advance(&s.visibleTo, resp.LSN) // the blocks below published theirs; the rest of the range holds none
	s.obs.Watermarks.Watermark(obs.WMSecondary, s.name).Publish(uint64(resp.LSN))
	s.obs.Flight.Record(obs.TierCompute, "sec.apply", uint64(resp.LSN), 0,
		s.name+": batch applied")
	return nil
}

// applyBlock applies one log block in four steps whose order is the node's
// read contract: the page operations, then the applied watermark, then the
// block's commit timestamps, then the visible watermark WaitApplied waits on.
// A snapshot can therefore never show a commit whose LSN is at or above
// AppliedLSN — and a fetch by a reader who sees the commit asks the page
// server (floor) for at least the block that holds it — while a caller told
// the block is applied never begins a snapshot that misses its commits.
// Publishing as the records went by, with the watermark moving once per
// pull, let a snapshot taken mid-pull read ahead of the watermark — the
// chaos oracle's "read from the future". Before any of it the fetch floor
// moves to the block's end: a page fetched while the block is being applied
// comes with all of the block, whichever of its records had gone by already.
func (s *Secondary) applyBlock(b *wal.Block) {
	s.mu.Lock()
	s.fetchFloor = b.End
	s.mu.Unlock()
	var visible uint64 // highest commit timestamp in the block; they rise in log order
	for _, rec := range b.Records {
		if rec.Kind == wal.KindTxnCommit {
			visible = max(visible, rec.CommitTS())
			continue
		}
		s.applyRecord(rec)
	}
	s.advance(&s.applied, b.End)
	if s.holdBeforePublish != nil {
		s.holdBeforePublish()
	}
	s.Engine.Clock().Publish(visible)
	s.advance(&s.visibleTo, b.End)
}

// advance moves one of the node's watermarks — applied, or visibleTo once the
// commit timestamps below lsn are published — up to lsn and wakes whoever
// waits on it.
func (s *Secondary) advance(mark *page.LSN, lsn page.LSN) {
	s.mu.Lock()
	if lsn.After(*mark) {
		*mark = lsn
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// applyRecord applies one redo page operation from the log feed; other
// records pass through.
//
//socrates:hotpath runs once per record in the secondary's apply feed; budget enforced by TestSecondaryApplyAllocs
func (s *Secondary) applyRecord(rec *wal.Record) {
	if !rec.IsPageOp() {
		return
	}
	if s.pages.QueueIfPending(rec) {
		s.queuedRecs.Add(1)
		return
	}
	applied, err := s.pages.ApplyIfCached(rec)
	if err != nil {
		return
	}
	if applied {
		s.appliedRecs.Add(1)
	} else {
		s.ignored.Add(1)
	}
}
