package xlog

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/rbio"
	"socrates/internal/simdisk"
	"socrates/internal/wal"
	"socrates/internal/xstore"
)

// Service is the XLOG process (§4.3, Figure 3). The primary feeds it log
// blocks over a lossy fire-and-forget channel and reports the hardened
// watermark after landing-zone quorum writes. The service:
//
//   - parks feed blocks in the pending area (speculative logging guard),
//   - promotes blocks to the LogBroker's in-memory sequence map only once
//     they are hardened, filling feed gaps by reading the LZ,
//   - destages promoted blocks to a fixed-size local SSD block cache and
//     appends them to the long-term archive (LT) in XStore, then releases
//     the LZ space,
//   - serves consumer pulls (secondaries unfiltered, page servers filtered
//     by partition annotation) from, in order: sequence map, SSD cache, LZ,
//     and LT as the last resort; over RBIO a pull is a long poll, answered
//     once the promoted watermark passes it.
//
// The service keeps no authoritative state: everything is rebuilt from the
// LZ and LT on restart (Recover), preserving the paper's "stateless XLOG
// process" property.
type Service struct {
	lz  *LandingZone
	lt  *lt
	ssd *blockCache

	obs   obs.Plane
	waits *obs.WaitRecorder // obs.Waits.Tier(obs.TierXLOG), resolved once

	mu          sync.Mutex
	pending     map[page.LSN]entry // by Start; not yet hardened
	broker      []entry            // sequence map, sorted by Start
	brokerBytes int
	budget      int // sequence-map memory budget in bytes
	// The promoted and destaged rungs of the ladder are the service's
	// watermarks: the end LSN of the last promoted block (moved only by
	// promoteTo, under mu) and of the last destaged one. Pulls wait on
	// them; Close drops both.
	promoted, destaged *obs.Watermark
	maxCommitTS        uint64 // highest commit timestamp in promoted log

	// producerEpoch identifies the current log producer. A primary crash
	// can leave speculative (fed-but-never-hardened) blocks in the pending
	// area whose LSNs the *next* primary reuses; if the new block's feed
	// is lost, promotion would otherwise trust the dead producer's bytes
	// and disseminate transactions that are not in the durable log. Every
	// feed is stamped with its producer's epoch; BeginEpoch advances the
	// accepted epoch on failover and purges the dead producer's tail.
	producerEpoch uint64

	done      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once

	feedReceived, feedStale, gapFills int
}

// entry pairs a block with its encoded bytes, so dissemination never
// re-encodes (blocks are immutable once hardened).
type entry struct {
	b   *wal.Block
	enc []byte
}

// Config sizes a Service.
type Config struct {
	// LZ is the landing zone shared with the primary.
	LZ *LandingZone
	// LT is the XStore account holding the long-term log archive.
	LT *xstore.Store
	// LTBlob names the archive blob (one per database).
	LTBlob string
	// CacheDevice is the local SSD for the destaging block cache; nil
	// disables the cache tier.
	CacheDevice *simdisk.Device
	// CacheBytes bounds the SSD block cache (default 4 MiB).
	CacheBytes int64
	// BrokerBytes bounds the in-memory sequence map (default 1 MiB).
	BrokerBytes int
	// Obs wires the service into the observability plane: XLOG-tier spans
	// and instruments; the promotion/destaging/archive/truncation rungs of
	// the LSN ladder; flight events for gap fills, destage batches and LT
	// append failures; and the xlog wait tier — xlog.feed for callers
	// blocked on destage progress, backpressure for the LZ's ring-full
	// stalls.
	Obs obs.Plane
}

// New starts an XLOG service over a fresh log.
func New(cfg Config) (*Service, error) {
	s, err := build(cfg)
	if err != nil {
		return nil, err
	}
	s.promoted.Publish(uint64(cfg.LZ.HardenedEnd()))
	s.destaged.Publish(s.promoted.Value())
	s.start()
	return s, nil
}

// Recover starts an XLOG service over existing LZ and LT state (process
// restart): the LT index is rebuilt by scanning the archive blob, and
// promotion resumes from the destaged watermark.
func Recover(cfg Config) (*Service, error) {
	s, err := build(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.lt.recover(); err != nil {
		return nil, err
	}
	s.destaged.Publish(max(uint64(s.lt.end()), 1))
	s.promoted.Publish(s.destaged.Value())
	s.maxCommitTS = s.lt.maxCommitTS()
	// Re-promote anything hardened in the LZ but not yet destaged.
	s.promoteTo(s.lz.HardenedEnd())
	s.start()
	return s, nil
}

func build(cfg Config) (*Service, error) {
	if cfg.LZ == nil || cfg.LT == nil || cfg.LTBlob == "" {
		return nil, errors.New("xlog: LZ, LT, and LTBlob are required")
	}
	if cfg.BrokerBytes <= 0 {
		cfg.BrokerBytes = 1 << 20
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 4 << 20
	}
	s := &Service{
		lz:      cfg.LZ,
		obs:     cfg.Obs,
		waits:   cfg.Obs.Waits.Tier(obs.TierXLOG),
		lt:      &lt{store: cfg.LT, blob: cfg.LTBlob},
		pending: make(map[page.LSN]entry),
		budget:  cfg.BrokerBytes,
		done:    make(chan struct{}),
	}
	s.promoted = cfg.Obs.Watermarks.Own(obs.WMPromoted, "")
	s.destaged = cfg.Obs.Watermarks.Own(obs.WMDestaged, "")
	cfg.LZ.mu.Lock()
	cfg.LZ.waits = s.waits
	cfg.LZ.mu.Unlock()
	if cfg.CacheDevice != nil {
		s.ssd = newBlockCache(cfg.CacheDevice, cfg.CacheBytes)
	}
	return s, nil
}

func (s *Service) start() {
	s.wg.Add(1)
	go s.destageLoop()
}

// Close answers the pulls waiting for log, stops the destager after a final
// pass and drops the service's rungs. Idempotent.
func (s *Service) Close() {
	s.closeOnce.Do(func() {
		s.promoted.Drop()
		close(s.done)
		s.wg.Wait()
		s.destaged.Drop()
	})
}

// --- ingest side ---

// FeedEncodedFrom receives one block from the lossy primary feed into the
// pending area, fed by the producer identified by epoch. Blocks below the
// promoted watermark are stale duplicates and are dropped. enc is the
// block's encoded form, retained so dissemination never re-encodes; nil has
// it computed. Blocks from a superseded producer are dropped too: their LSNs
// may have been reissued by the current primary, and promoting a dead
// producer's speculative bytes would disseminate transactions that are not
// in the durable log (the feed is only a hint; the LZ is the truth).
func (s *Service) FeedEncodedFrom(ctx context.Context, epoch uint64, b *wal.Block, enc []byte) {
	_, sp := s.obs.Tracer.JoinSpan(ctx, obs.TierXLOG, "xlog.feed")
	defer sp.End()
	if enc == nil {
		enc = b.Encode()
	}
	s.mu.Lock()
	s.feedReceived++
	s.obs.Metrics.Counter("xlog.feed.blocks").Inc()
	if epoch != s.producerEpoch {
		s.obs.Metrics.Counter("xlog.feed.wrong_epoch").Inc()
		s.mu.Unlock()
		sp.SetAttr("wrong_epoch", "true")
		return
	}
	if b.End.AtMost(s.HardenedEnd()) {
		s.feedStale++
		s.obs.Metrics.Counter("xlog.feed.stale").Inc()
		s.mu.Unlock()
		sp.SetAttr("stale", "true")
		return
	}
	s.pending[b.Start] = entry{b: b, enc: enc}
	s.mu.Unlock()
}

// BeginEpoch installs a new log producer: the dead producer's speculative
// tail (pending blocks beyond the promoted watermark) is purged, the
// accepted feed epoch advances so the old producer's in-flight feeds are
// rejected on arrival, and the promotion watermark is synchronously
// gap-filled to hardenedEnd from the LZ. Returns the new epoch, which the
// replacement primary must stamp on its feeds. This is the failover
// handshake that makes LSN reuse across primaries safe.
func (s *Service) BeginEpoch(ctx context.Context, hardenedEnd page.LSN) uint64 {
	s.mu.Lock()
	s.producerEpoch++
	epoch := s.producerEpoch
	purged := 0
	for start, e := range s.pending {
		if e.b.End.After(s.HardenedEnd()) {
			delete(s.pending, start)
			purged++
		}
	}
	s.mu.Unlock()
	s.obs.Flight.Record(obs.TierXLOG, "xlog.epoch", uint64(hardenedEnd), 0,
		fmt.Sprintf("producer epoch %d; purged %d speculative pending blocks", epoch, purged))
	s.ReportHardened(ctx, hardenedEnd)
	return epoch
}

// ReportHardened tells the service every block with End <= lsn is durable
// in the LZ; they become visible to consumers (promotion). Destaging them
// is the destager's next tick, not this report's: one LT append per tick
// rather than one per hardened block.
func (s *Service) ReportHardened(ctx context.Context, lsn page.LSN) {
	_, sp := s.obs.Tracer.JoinSpan(ctx, obs.TierXLOG, "xlog.promote")
	start := time.Now()
	s.promoteTo(lsn)
	s.obs.Metrics.Histogram("xlog.promote.latency").Since(start)
	sp.End()
}

// promoteTo moves hardened blocks from the pending area into the broker in
// LSN order, reading the LZ to fill gaps left by the lossy feed. A block
// joins the broker before the promoted rung passes it, so a pull never
// reads a rung ahead of the blocks it can serve.
func (s *Service) promoteTo(lsn page.LSN) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.HardenedEnd().Before(lsn) {
		e, ok := s.pending[s.HardenedEnd()]
		if !ok {
			// Gap: the feed lost or reordered this block; the LZ has it.
			// Snapshot the watermark before dropping the lock for the LZ
			// read — harden reports arrive concurrently (one per
			// in-flight LZ write), so another promoteTo may run while we
			// are off the lock.
			at := s.HardenedEnd()
			s.mu.Unlock()
			lb, enc, found, err := s.lz.Read(at)
			s.mu.Lock()
			if s.HardenedEnd() != at {
				// A concurrent report already promoted this block (or
				// past it) while we read the LZ; appending our copy would
				// duplicate it in the broker. Checked before the read's
				// outcome: the destager may have archived the block and
				// released it from the LZ since, so an empty read here is
				// no gap. Rescan from the new watermark.
				continue
			}
			if err != nil || !found {
				return // cannot promote past the gap yet
			}
			s.gapFills++
			s.obs.Flight.Record(obs.TierXLOG, "xlog.gapfill", uint64(at), 0,
				"feed lost block; filled from LZ")
			e = entry{b: lb, enc: enc}
		} else {
			delete(s.pending, e.b.Start)
		}
		if e.b.End.After(lsn) {
			// Hardened watermark splits this block (should not happen:
			// hardening is per block) — wait for the next report.
			s.pending[e.b.Start] = e
			return
		}
		s.broker = append(s.broker, e)
		s.brokerBytes += len(e.enc)
		for _, rec := range e.b.Records {
			if rec.Kind == wal.KindTxnCommit {
				if ts := rec.CommitTS(); ts > s.maxCommitTS {
					s.maxCommitTS = ts
				}
			}
		}
		s.promoted.Publish(uint64(e.b.End))
	}
	// Drop stale pending blocks the promotion passed over.
	for start, e := range s.pending {
		if e.b.End.AtMost(s.HardenedEnd()) {
			delete(s.pending, start)
		}
	}
}

// --- destaging pipeline ---

func (s *Service) destageLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(2 * time.Millisecond)
	defer ticker.Stop()
	for {
		//socrates:wait-ok idle destager waiting for its cadence tick; not a stall
		select {
		case <-s.done:
			s.destageOnce() // final drain
			return
		case <-ticker.C:
		}
		s.destageOnce()
	}
}

// destageOnce writes every promoted-but-not-destaged block to the SSD cache
// and LT (one aggregated LT append), releases LZ space, and trims the
// broker to its memory budget. The broker is sorted by Start, so the
// undestaged suffix is found by binary search, as lookup does.
func (s *Service) destageOnce() {
	s.mu.Lock()
	i := sort.Search(len(s.broker), func(i int) bool { return s.broker[i].b.Start.AtLeast(s.DestagedEnd()) })
	batch := append([]entry(nil), s.broker[i:]...)
	s.mu.Unlock()
	if len(batch) == 0 {
		s.trimBroker()
		return
	}
	destageStart := time.Now()
	var ltBuf []byte
	blocks := make([]*wal.Block, 0, len(batch))
	for _, e := range batch {
		if s.ssd != nil {
			s.ssd.put(e.b.Start, e.enc)
		}
		ltBuf = append(ltBuf, e.enc...)
		blocks = append(blocks, e.b)
	}
	if err := s.lt.append(blocks, ltBuf); err != nil {
		// LT (XStore) outage: keep blocks in LZ + broker; retry next tick.
		s.obs.Flight.Record(obs.TierXStore, "lt.append_error",
			uint64(batch[0].b.Start), time.Since(destageStart),
			"retryable: "+err.Error())
		return
	}
	end := batch[len(batch)-1].b.End
	s.destaged.Publish(uint64(end))
	s.obs.Watermarks.Watermark(obs.WMArchived, "").Publish(uint64(end))
	s.lz.ReleaseUpTo(end)
	s.obs.Watermarks.Watermark(obs.WMTruncated, "").Publish(uint64(end))
	s.trimBroker()
	s.obs.Metrics.Histogram("xlog.destage.latency").Since(destageStart)
	s.obs.Metrics.Counter("xlog.destage.blocks").Add(uint64(len(batch)))
	s.obs.Flight.Record(obs.TierXLOG, "xlog.destage", uint64(end),
		time.Since(destageStart), fmt.Sprintf("blocks=%d bytes=%d", len(batch), len(ltBuf)))
}

// trimBroker evicts destaged blocks from the front of the sequence map
// until it fits the memory budget.
func (s *Service) trimBroker() {
	s.mu.Lock()
	for s.brokerBytes > s.budget && len(s.broker) > 0 {
		e := s.broker[0]
		if e.b.End.After(s.DestagedEnd()) {
			break // never evict blocks that exist nowhere else
		}
		s.broker = s.broker[1:]
		s.brokerBytes -= len(e.enc)
	}
	s.mu.Unlock()
}

// --- consumer side ---

// HardenedEnd reports the dissemination watermark: consumers may read up to
// (not including) this LSN.
func (s *Service) HardenedEnd() page.LSN { return page.LSN(s.promoted.Value()) }

// Pull returns encoded blocks starting exactly at fromLSN, at most
// maxBytes' worth, filtered to the given partition (negative = all blocks,
// used by secondaries). Filtered-out blocks are skipped but still advance
// the returned next-pull LSN, which is the XLOG-side half of the §4.6
// block-filtering optimization. The returned next LSN equals fromLSN when
// nothing new is available.
func (s *Service) Pull(ctx context.Context, fromLSN page.LSN, partition int32, maxBytes int) ([]byte, page.LSN, error) {
	// Pulls are polled continuously by every consumer; JoinSpan records a
	// span only when the caller is already traced, so the steady-state poll
	// loop never roots traces (the histogram always counts).
	_, sp := s.obs.Tracer.JoinSpan(ctx, obs.TierXLOG, "xlog.pull")
	defer sp.End()
	start := time.Now()
	defer s.obs.Metrics.Histogram("xlog.pull.latency").Since(start)
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	// Pick the blocks first, then copy their images into one buffer of
	// exactly their size.
	picked := make([][]byte, 0, 16)
	size := 0
	next := fromLSN
	for size < maxBytes {
		if next.AtLeast(s.HardenedEnd()) {
			break
		}
		e, err := s.lookup(next)
		if err != nil {
			return nil, fromLSN, err
		}
		if e.b == nil {
			break // gap not yet resolvable
		}
		if partition < 0 || e.b.Touches(page.PartitionID(partition)) {
			picked = append(picked, e.enc)
			size += len(e.enc)
		}
		next = e.b.End
	}
	if size == 0 {
		return nil, next, nil
	}
	out := make([]byte, 0, size)
	for _, enc := range picked {
		out = append(out, enc...)
	}
	return out, next, nil
}

// lookup finds the block starting at the LSN across the storage hierarchy:
// sequence map → SSD cache → LZ → LT.
func (s *Service) lookup(start page.LSN) (entry, error) {
	s.mu.Lock()
	i := sort.Search(len(s.broker), func(i int) bool { return s.broker[i].b.Start.AtLeast(start) })
	if i < len(s.broker) && s.broker[i].b.Start == start {
		e := s.broker[i]
		s.mu.Unlock()
		return e, nil
	}
	s.mu.Unlock()

	if s.ssd != nil {
		if enc, ok := s.ssd.get(start); ok {
			b, _, err := wal.DecodeBlock(enc)
			if err == nil {
				return entry{b: b, enc: enc}, nil
			}
		}
	}
	if b, enc, found, err := s.lz.Read(start); err == nil && found {
		return entry{b: b, enc: enc}, nil
	}
	b, enc, err := s.lt.read(start)
	if err != nil || b == nil {
		return entry{}, err
	}
	return entry{b: b, enc: enc}, nil
}

// pullWaitMax caps how long a pull waits at the service for log. Over the
// in-process fabric the consumer's context ends the wait when the consumer
// goes; a TCP frame carries no deadline, so the service bounds the wait
// itself — well under a consumer's 10 s pull timeout, so an idle pull comes
// back empty rather than failed.
const pullWaitMax = time.Second

// awaitLog is the long poll in front of a pull over RBIO. It returns once
// the promoted rung passes from, ctx ends, pullWaitMax passes (nil: the
// pull answers with nothing) or Close drops the rung. The wait is idle
// time, charged to no class: a caught-up consumer is not stalled.
func (s *Service) awaitLog(ctx context.Context, from page.LSN) error {
	//socrates:wait-ok a caught-up consumer's idle long poll; one behind the log is answered at once
	err := s.waits.AwaitLSN(ctx, obs.WaitNone, s.promoted, uint64(from.Next()), time.Now().Add(pullWaitMax))
	if errors.Is(err, obs.ErrDeadline) {
		return nil
	}
	return err
}

// Stats reports feed/dissemination counters: feed blocks received, stale
// feed blocks dropped, and gaps filled from the LZ.
func (s *Service) Stats() (received, stale, gapFills int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.feedReceived, s.feedStale, s.gapFills
}

// MaxCommitTS reports the highest commit timestamp observed in promoted
// log — a recovering primary republishes it to restore visibility (§5).
func (s *Service) MaxCommitTS() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxCommitTS
}

// DestagedEnd reports the destaging watermark.
func (s *Service) DestagedEnd() page.LSN { return page.LSN(s.destaged.Value()) }

// Handler exposes the service over RBIO. The transport hands it a context
// carrying the span identity decoded from the frame header, so XLOG-tier
// spans join the caller’s commit or catch-up trace.
func (s *Service) Handler() rbio.Handler {
	return func(ctx context.Context, req *rbio.Request) *rbio.Response {
		switch req.Type {
		case rbio.MsgPing:
			return rbio.Ok()
		case rbio.MsgFeedBlock:
			b, _, err := wal.DecodeBlock(req.Payload)
			if err != nil {
				return rbio.Errorf("bad feed block: %v", err)
			}
			// The Consumer field carries the producer epoch on feed
			// frames ("" = epoch 0, the bootstrap producer).
			epoch, _ := strconv.ParseUint(req.Consumer, 10, 64)
			s.FeedEncodedFrom(ctx, epoch, b, req.Payload)
			return rbio.Ok()
		case rbio.MsgHardenReport:
			s.ReportHardened(ctx, req.LSN)
			return rbio.Ok()
		case rbio.MsgPullBlocks:
			if err := s.awaitLog(ctx, req.LSN); err != nil {
				return rbio.Errorf("pull: %v", err)
			}
			payload, next, err := s.Pull(ctx, req.LSN, req.Partition, int(req.MaxBytes))
			if err != nil {
				return rbio.Errorf("pull: %v", err)
			}
			resp := rbio.Ok()
			resp.LSN = next
			resp.Payload = payload
			return resp
		case rbio.MsgReadState:
			resp := rbio.Ok()
			resp.LSN = s.HardenedEnd()
			var buf [16]byte
			binary.LittleEndian.PutUint64(buf[0:8], s.DestagedEnd().Uint64())
			binary.LittleEndian.PutUint64(buf[8:16], s.MaxCommitTS())
			resp.Payload = buf[:]
			return resp
		default:
			return rbio.Errorf("xlog: unsupported message %v", req.Type)
		}
	}
}
