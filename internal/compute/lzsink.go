// Package compute implements the Socrates compute tier: the primary node
// (the only log producer, §4.4) and secondary nodes (read-only log
// consumers, §4.5). Both run the shared engine over a sparse RBPEX cache
// whose misses turn into GetPage@LSN calls against the page servers.
package compute

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"socrates/internal/logwriter"
	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/rbio"
	"socrates/internal/wal"
	"socrates/internal/xlog"
)

// lzSink is where the Socrates primary's log writer puts a cut group (§4.3,
// upper-left of Figure 3): Reserve takes ring space in the landing zone, in
// LSN order; Complete sends the block fire-and-forget to the XLOG process
// for availability, writes it to the landing zone's quorum for durability,
// and reports the hardened watermark so XLOG promotes it to consumers.
type lzSink struct {
	lz    *xlog.LandingZone
	feed  *rbio.Client // XLOG service: lossy feed + harden reports
	pt    page.Partitioning
	epoch string // producer epoch stamped on feed frames (xlog.Service.BeginEpoch)
	obs   obs.Plane
	waits *obs.WaitRecorder // obs.Waits.Tier(obs.TierCompute), resolved once

	mu         sync.Mutex
	reservedTo page.LSN       // the end of the last block Reserved
	reported   page.LSN       // highest LSN already harden-reported to XLOG
	reporting  bool           // reportTrailing is running
	wg         sync.WaitGroup // the trailing report; none starts once the writer is closed
}

// newLogWriter returns the primary's log writer, whose next record receives
// startLSN, and its sink. Epoch is stamped on every fed block, so the XLOG
// service can reject speculative blocks from a superseded primary whose LSNs
// this writer reissues; 0 is the bootstrap producer.
func newLogWriter(lz *xlog.LandingZone, feed *rbio.Client, pt page.Partitioning, startLSN page.LSN, epoch uint64, plane obs.Plane) (*logwriter.LogWriter, *lzSink) {
	s := &lzSink{lz: lz, feed: feed, pt: pt, epoch: strconv.FormatUint(epoch, 10),
		obs: plane, waits: plane.Waits.Tier(obs.TierCompute), reservedTo: startLSN, reported: startLSN}
	return logwriter.New(s, startLSN, logwriter.WithObservability(plane)), s
}

// Reserve encodes the block and takes its ring space.
func (s *lzSink) Reserve(b wal.Block) (logwriter.Reservation, error) {
	b.Partitions = wal.ComputePartitions(b.Records, s.pt)
	res, err := s.lz.Reserve(&b)
	if err != nil {
		s.obs.Flight.Record(obs.TierLZ, "lz.error", uint64(b.Start), 0,
			"reserve failed: "+err.Error())
		return logwriter.Reservation{}, err
	}
	s.mu.Lock()
	s.reservedTo = b.End
	s.mu.Unlock()
	return logwriter.Reservation{Payload: res.Payload(), Ticket: res}, nil
}

// Complete feeds XLOG, performs the quorum write and returns the landing
// zone's durable prefix.
//
//socrates:ctx-ok a group has no one caller: the trace identity rides the block's commit records, one lz.write span each, and the last one's context goes on the wire
func (s *lzSink) Complete(b wal.Block, r logwriter.Reservation) (page.LSN, error) {
	res := r.Ticket.(*xlog.Reservation)
	// Every traced commit in the block gets its own "lz.write" span; the
	// last one's identity also rides the feed and harden-report frames
	// (their trace headers) into the XLOG tier.
	ioCtx := context.Background()
	var spans []*obs.Span
	var traceID obs.TraceID
	for _, rec := range b.Records {
		if rec.Kind == wal.KindTxnCommit && rec.TraceID != 0 {
			c, sp := s.obs.Tracer.StartRemoteSpan(obs.SpanContext{
				TraceID: obs.TraceID(rec.TraceID), SpanID: obs.SpanID(rec.SpanID)}, obs.TierLZ, "lz.write")
			sp.SetAttr("records", strconv.Itoa(len(b.Records)))
			spans = append(spans, sp)
			ioCtx, traceID = c, obs.TraceID(rec.TraceID)
		}
	}
	wstart := time.Now()
	// Availability path (lossy, one-way) first: "The Primary writes log
	// blocks into the LZ and to the XLOG process in parallel."
	if s.feed != nil {
		//socrates:ignore-err the XLOG feed is lossy by design (§4.3); a dropped block is gap-filled from the LZ during promotion
		_ = s.feed.Send(ioCtx, &rbio.Request{Type: rbio.MsgFeedBlock,
			Consumer: s.epoch, Payload: r.Payload})
	}
	qstart := time.Now()
	if err := s.lz.Complete(res); err != nil {
		s.obs.Flight.Record(obs.TierLZ, "lz.error", uint64(b.Start),
			time.Since(wstart), "quorum write failed: "+err.Error())
		for _, sp := range spans {
			sp.SetError(err)
			sp.End()
		}
		return 0, err
	}
	// commit.quorum: the landing-zone quorum write itself, attributed to
	// the lz.write span (ioCtx carries the last one started).
	s.waits.Observe(ioCtx, obs.WaitCommitQuorum, time.Since(qstart))
	hardened := s.lz.HardenedEnd()
	s.obs.Watermarks.Watermark(obs.WMHardened, "").Publish(uint64(hardened))
	s.mu.Lock()
	// Coalesce harden reports: the watermark is cumulative, so a completion
	// that did not advance it (out-of-order quorum writes) sends nothing —
	// the report that advanced it covered this block.
	advanced := hardened.After(s.reported)
	if advanced {
		s.reported = hardened
	}
	// Every reserved block is durable: if this report drops, no successor
	// supersedes it.
	idle := hardened == s.reservedTo
	spawn := idle && s.feed != nil && !s.reporting
	if spawn {
		s.reporting = true
		s.wg.Add(1)
	}
	s.mu.Unlock()

	for _, sp := range spans {
		sp.End()
	}
	s.obs.Metrics.Histogram("lz.write.latency").Observe(time.Since(wstart))
	s.obs.Metrics.Counter("lz.write.blocks").Inc()
	s.obs.Metrics.Counter("lz.write.bytes").Add(uint64(len(r.Payload)))
	s.obs.Flight.RecordTrace(obs.TierLZ, "lz.flush", uint64(b.End), traceID, time.Since(wstart),
		fmt.Sprintf("records=%d bytes=%d", len(b.Records), len(r.Payload)))

	// Harden reports are one-way: the watermark is monotone, so a stale
	// report is a no-op at XLOG and a lost one is superseded by the next.
	// The trailing report of a burst round-trips (reportTrailing).
	if spawn {
		go s.reportTrailing(ioCtx)
	} else if advanced && !idle && s.feed != nil {
		//socrates:ignore-err an intermediate report is superseded by the burst's trailing reliable report
		_ = s.feed.Send(ioCtx, &rbio.Request{Type: rbio.MsgHardenReport, LSN: hardened})
	}
	return hardened, nil
}

// reportTrailing sends the trailing harden report of a burst as a round
// trip — dropping it would strand the consumers' watermark until the next
// commit — off every committer's path, and again while the watermark moved
// meanwhile: one round trip in flight however many bursts end. It reports
// even if its own write did not advance the watermark: the burst's
// advancing report may have been a lost one-way frame.
func (s *lzSink) reportTrailing(ctx context.Context) {
	defer s.wg.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for sent := page.LSN(0); sent != s.reported; {
		sent = s.reported
		s.mu.Unlock()
		//socrates:ignore-err watermark report; consumers poll state as a further backstop
		_, _ = s.feed.Call(ctx, &rbio.Request{Type: rbio.MsgHardenReport, LSN: sent})
		s.mu.Lock()
	}
	s.reporting = false
}
