package compute

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"socrates/internal/engine"
	"socrates/internal/logwriter"
	"socrates/internal/metrics"
	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/rbio"
	"socrates/internal/rbpex"
	"socrates/internal/simdisk"
	"socrates/internal/xlog"
)

// PrimaryConfig assembles a primary compute node.
type PrimaryConfig struct {
	// LZ is the landing zone (shared storage service, also visible to the
	// XLOG process).
	LZ *xlog.LandingZone
	// XLOG is the client to the XLOG service (feed + harden reports +
	// recovery state reads).
	XLOG *rbio.Client
	// Resolve maps pages to page-server selectors.
	Resolve resolver
	// Partitioning is the cluster's page partitioning.
	Partitioning page.Partitioning
	// CacheMemPages / CacheSSDPages size the sparse RBPEX.
	CacheMemPages, CacheSSDPages int
	// CacheSSD / CacheMeta are local cache devices (required when
	// CacheSSDPages > 0).
	CacheSSD, CacheMeta *simdisk.Device
	// Meter, if set, is charged the node's simulated CPU.
	Meter *metrics.CPUMeter
	// Bootstrap creates a fresh database instead of attaching to one.
	Bootstrap bool
	// Epoch is the producer epoch stamped on this node's XLOG feeds
	// (issued by xlog.Service.BeginEpoch at failover; 0 = bootstrap
	// producer). It lets XLOG reject speculative blocks from a dead
	// predecessor whose LSNs this node reissues.
	Epoch uint64
	// Obs wires the node into the observability plane: commit, lz.write
	// and getpage spans; the commit and hardened rungs of the LSN ladder;
	// flush/miss/evict flight events; and the compute wait tier —
	// commit.harden/commit.quorum on the log pipeline, page.remote and
	// page.miss on the page path, lock.latch/lock.row in the engine.
	Obs obs.Plane
}

// Primary is the read-write compute node: it is the single log producer and
// behaves "almost identically to a standalone SQL Server" (§4.4) — the
// engine underneath does not know storage is remote.
type Primary struct {
	Engine *engine.Engine
	writer *logwriter.LogWriter
	sink   *lzSink
	pages  *remotePageFile
}

// NewPrimary builds a primary. With cfg.Bootstrap it creates the database;
// otherwise it performs crash/failover recovery: the hardened end of the
// log is discovered from the landing zone, visibility is restored from the
// XLOG service's max commit timestamp, and the engine simply attaches —
// there is no undo pass and no size-of-data work (ADR, §3.2).
func NewPrimary(cfg PrimaryConfig) (*Primary, error) {
	if cfg.LZ == nil || cfg.Resolve == nil {
		return nil, errors.New("compute: LZ and Resolve are required")
	}
	if cfg.CacheMemPages <= 0 {
		cfg.CacheMemPages = 128
	}

	startLSN := cfg.LZ.HardenedEnd()
	writer, sink := newLogWriter(cfg.LZ, cfg.XLOG, cfg.Partitioning, startLSN, cfg.Epoch, cfg.Obs)

	// The GetPage@LSN floor for pages this node has never seen: everything
	// in the database is at most as new as the hardened end at attach time.
	floorLSN := startLSN.Prev()
	if cfg.Bootstrap {
		floorLSN = 0
	}
	floor := func() page.LSN { return floorLSN }

	pages, err := newRemotePageFile(rbpex.Config{
		MemPages: cfg.CacheMemPages,
		SSDPages: cfg.CacheSSDPages,
		SSD:      cfg.CacheSSD,
		Meta:     cfg.CacheMeta,
	}, cfg.Resolve, floor, cfg.Obs)
	if err != nil {
		return nil, err
	}

	ecfg := engine.Config{Pages: pages, Log: writer, Meter: cfg.Meter, Obs: cfg.Obs}
	var eng *engine.Engine
	if cfg.Bootstrap {
		eng, err = engine.Create(ecfg)
	} else {
		eng, err = engine.Open(ecfg)
	}
	if err != nil {
		pages.Close()
		writer.Close()
		sink.wg.Wait()
		return nil, err
	}
	p := &Primary{Engine: eng, writer: writer, sink: sink, pages: pages}
	if !cfg.Bootstrap && cfg.XLOG != nil {
		if err := p.recoverVisibility(cfg.XLOG); err != nil {
			p.Crash()
			return nil, err
		}
	}
	return p, nil
}

// recoverVisibility republishes the highest hardened commit timestamp so
// new snapshots see everything that was durable before the failover.
func (p *Primary) recoverVisibility(xlogClient *rbio.Client) error {
	// Bounded: a stalled XLOG should fail the failover loudly rather than
	// wedge the new primary's boot forever.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, err := xlogClient.Call(ctx, &rbio.Request{Type: rbio.MsgReadState})
	if err != nil {
		return fmt.Errorf("compute: reading XLOG state: %w", err)
	}
	if len(resp.Payload) >= 16 {
		maxTS := binary.LittleEndian.Uint64(resp.Payload[8:16])
		p.Engine.Clock().Publish(maxTS)
	}
	return nil
}

// Writer exposes the log pipeline (throughput stats in benches).
func (p *Primary) Writer() *logwriter.LogWriter { return p.writer }

// Pages exposes the cache-fronted page file (hit-rate stats).
func (p *Primary) Pages() *remotePageFile { return p.pages }

// Close stops the log pipeline. The node holds no durable state (§4.2):
// dropping it loses nothing.
func (p *Primary) Close() {
	//socrates:ignore-err compute is stateless (§4.2); the cache flush is a best-effort warm-restart aid, and a failed destage only costs refetches
	_ = p.pages.Cache().FlushAll()
	p.Crash()
}

// Crash abandons the node without flushing anything — for failover tests.
func (p *Primary) Crash() {
	p.pages.Close()
	p.writer.Close()
	p.sink.wg.Wait()
}
