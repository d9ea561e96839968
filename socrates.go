// Package socrates is a from-scratch Go reproduction of "Socrates: The New
// SQL Server in the Cloud" (Antonopoulos et al., SIGMOD 2019) — the
// disaggregated OLTP database architecture shipped as Azure SQL DB
// Hyperscale.
//
// A Socrates database separates durability from availability across four
// tiers, all implemented in this module:
//
//   - compute nodes (one read-write primary, any number of read-only
//     secondaries) run the relational engine over sparse RBPEX caches and
//     fetch missing pages with GetPage@LSN;
//   - the XLOG service owns the log: the primary commits into a
//     quorum-replicated landing zone, and XLOG disseminates hardened blocks
//     to consumers and destages them to the long-term archive;
//   - page servers each keep one partition current by applying the
//     filtered log, serve pages, and checkpoint to XStore;
//   - XStore (simulated Azure Storage) durably holds checkpoints and log
//     archive, with constant-time snapshots for backup/restore.
//
// Open starts a complete single-process deployment over a simulated Azure
// storage substrate and returns a handle that speaks SQL:
//
//	db, err := socrates.Open(socrates.Config{})
//	defer db.Close()
//	db.Exec(`CREATE TABLE t (id INT PRIMARY KEY, v TEXT)`)
//	db.Exec(`INSERT INTO t VALUES (1, 'hello')`)
//	res, _ := db.Exec(`SELECT v FROM t WHERE id = 1`)
//
// The handle also exposes the paper's operational workflows: Failover,
// AddSecondary, SplitPageServer, Backup, and PointInTimeRestore.
package socrates

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"socrates/internal/cluster"
	"socrates/internal/engine"
	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/rbio"
	"socrates/internal/simdisk"
	"socrates/internal/socerr"
	"socrates/internal/sqlengine"
	"socrates/internal/xstore"
)

// Re-exported result types so callers need not import internals.
type (
	// Result is the outcome of one SQL statement.
	Result = sqlengine.Result
	// Value is one SQL value in a result row.
	Value = sqlengine.Value
	// Session is a SQL session with optional explicit transactions.
	Session = sqlengine.Session
	// TraceID identifies one recorded request trace.
	TraceID = obs.TraceID
	// SpanNode is one node of an exported span tree.
	SpanNode = obs.SpanNode
	// HistSummary is an exported latency histogram.
	HistSummary = obs.HistSummary
	// WatermarkState is one rung of the LSN watermark ladder.
	WatermarkState = obs.WatermarkState
	// FlightEvent is one flight-recorder ring entry.
	FlightEvent = obs.FlightEvent
	// Trip is one watchdog firing (lag or stall).
	Trip = obs.Trip
	// ObsServer is a running HTTP observability listener.
	ObsServer = obs.HTTPServer
)

// Typed error sentinels for errors.Is across the public surface.
var (
	// ErrTimeout marks deadline/timeout failures (context expiry,
	// replication catch-up timeouts, page-server apply lag).
	ErrTimeout = socerr.ErrTimeout
	// ErrClosed marks operations on stopped components (closed log
	// writer, stopped page server).
	ErrClosed = socerr.ErrClosed
	// ErrNoSecondary marks operations naming an unknown secondary.
	ErrNoSecondary = socerr.ErrNoSecondary
)

// LZService selects the storage service implementing the landing zone —
// the Appendix A experiment knob. Swapping services changes no other code,
// exactly as the paper claims.
type LZService int

// Landing-zone service choices.
const (
	// XIO is Azure Premium Storage: the production configuration (§7.1).
	XIO LZService = iota
	// DirectDrive is the faster RDMA-based service of Appendix A.
	DirectDrive
	// InstantLZ is a zero-latency landing zone for tests.
	InstantLZ
)

// Config tunes a deployment. The zero value is a sensible single-node
// development deployment (one primary, one page server, XIO landing zone).
type Config struct {
	// Name names the database (defaults to "db").
	Name string
	// Secondaries is the number of read-scale secondary compute nodes.
	Secondaries int
	// PageServers is the initial page-server (partition) count.
	PageServers int
	// PagesPerPartition sizes partitions; required if PageServers > 1.
	// The cluster grows extra page servers on demand as the database
	// grows past the provisioned partitions.
	PagesPerPartition uint64
	// LZ selects the landing-zone storage service.
	LZ LZService
	// CacheMemPages / CacheSSDPages size each compute node's RBPEX tiers.
	CacheMemPages, CacheSSDPages int
	// Fast replaces every simulated device with zero-latency variants —
	// full protocol fidelity without wall-clock cost (for tests/examples).
	Fast bool
}

// DB is a running Socrates deployment plus its SQL front end.
type DB struct {
	cluster *cluster.Cluster

	mu  sync.RWMutex
	sql *sqlengine.DB
}

// Open builds, bootstraps, and starts a deployment.
func Open(cfg Config) (*DB, error) {
	ccfg := cluster.Config{
		Name:              cfg.Name,
		Secondaries:       cfg.Secondaries,
		PageServers:       cfg.PageServers,
		PagesPerPartition: cfg.PagesPerPartition,
		ComputeMemPages:   cfg.CacheMemPages,
		ComputeSSDPages:   cfg.CacheSSDPages,
	}
	switch cfg.LZ {
	case XIO:
		ccfg.LZProfile = simdisk.XIO
	case DirectDrive:
		ccfg.LZProfile = simdisk.DirectDrive
	case InstantLZ:
		ccfg.LZProfile = simdisk.Instant
	default:
		return nil, fmt.Errorf("socrates: unknown landing-zone service %d", cfg.LZ)
	}
	if cfg.Fast {
		ccfg.LZProfile = simdisk.Instant
		ccfg.LocalSSD = simdisk.Instant
		ccfg.Net = rbio.NewInstantNetwork()
		ccfg.XStore = xstore.Config{Profile: simdisk.Instant}
		ccfg.CheckpointEvery = 5 * time.Millisecond
	}
	c, err := cluster.New(ccfg)
	if err != nil {
		return nil, err
	}
	return &DB{cluster: c, sql: sqlengine.New(c.Primary().Engine)}, nil
}

// Close stops every node of the deployment.
func (db *DB) Close() { db.cluster.Close() }

// Exec parses and runs one SQL statement with auto-commit.
func (db *DB) Exec(sql string) (*Result, error) { return db.front().Exec(sql) }

// ExecContext parses and runs one SQL statement with auto-commit, bounded
// by ctx: a cancelled or expired context aborts the commit wait, and the
// whole statement records one cross-tier span tree retrievable with
// LastTrace / Trace.
func (db *DB) ExecContext(ctx context.Context, sql string) (*Result, error) {
	return db.front().ExecContext(ctx, sql)
}

// Session opens a SQL session on the primary (BEGIN/COMMIT supported).
func (db *DB) Session() *Session { return db.front().Session() }

// front returns the current SQL front end (swapped on failover).
func (db *DB) front() *sqlengine.DB {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.sql
}

// ReadSession opens a SQL session against a read-only secondary.
func (db *DB) ReadSession(secondary string) (*Session, error) {
	sec, ok := db.cluster.Secondary(secondary)
	if !ok {
		return nil, fmt.Errorf("%w: %q", socerr.ErrNoSecondary, secondary)
	}
	return sqlengine.New(sec.Engine).Session(), nil
}

// KV exposes the primary's transactional key-value engine directly (the
// layer the SQL front end compiles onto).
func (db *DB) KV() *engine.Engine { return db.cluster.Primary().Engine }

// Cluster exposes the deployment for operational inspection (experiments,
// metrics, failure injection).
func (db *DB) Cluster() *cluster.Cluster { return db.cluster }

// --- operational workflows (§5, §6) ---

// Failover crashes the primary and recovers a fresh one; returns the time
// to availability. SQL traffic transparently continues on the new primary.
func (db *DB) Failover() (time.Duration, error) {
	return db.FailoverContext(context.Background())
}

// FailoverContext is Failover bounded by ctx: a done context before the
// new primary is installed aborts with a socerr-classified error.
func (db *DB) FailoverContext(ctx context.Context) (time.Duration, error) {
	if err := ctx.Err(); err != nil {
		return 0, socerr.FromContext(err)
	}
	p, d, err := db.cluster.Failover()
	if err != nil {
		return d, err
	}
	db.mu.Lock()
	db.sql = sqlengine.New(p.Engine)
	db.mu.Unlock()
	return d, nil
}

// AddSecondary attaches a read-scale secondary (O(1): no data copied).
func (db *DB) AddSecondary(name string) error {
	_, err := db.cluster.AddSecondary(name)
	return err
}

// RemoveSecondary detaches a secondary.
func (db *DB) RemoveSecondary(name string) error {
	return db.cluster.RemoveSecondary(name)
}

// Secondaries lists attached secondaries.
func (db *DB) Secondaries() []string { return db.cluster.Secondaries() }

// WaitForReplication blocks until all page servers and secondaries applied
// the log through the current hardened end. A timeout surfaces as
// ErrTimeout under errors.Is.
func (db *DB) WaitForReplication(timeout time.Duration) error {
	return db.cluster.WaitForCatchUp(timeout)
}

// WaitForReplicationContext is WaitForReplication bounded by ctx's
// deadline (default 10s when the context has none).
func (db *DB) WaitForReplicationContext(ctx context.Context) error {
	timeout := 10 * time.Second
	if d, ok := ctx.Deadline(); ok {
		timeout = time.Until(d)
	}
	if err := ctx.Err(); err != nil {
		return socerr.FromContext(err)
	}
	return db.cluster.WaitForCatchUp(timeout)
}

// SplitPageServer shards a partition into two page servers (finer sharding
// for faster recovery, §6).
func (db *DB) SplitPageServer(partition uint32) error {
	return db.cluster.SplitPageServer(page.PartitionID(partition))
}

// AddPageServerReplica adds a hot replica of a partition's page server.
func (db *DB) AddPageServerReplica(partition uint32) error {
	return db.cluster.AddPageServerReplica(page.PartitionID(partition))
}

// Backup takes a named constant-time backup (XStore snapshot).
func (db *DB) Backup(name string) error { return db.cluster.Backup(name) }

// BackupLSN reports the current hardened log position, usable as a
// PointInTimeRestore target.
func (db *DB) BackupLSN() uint64 { return db.cluster.LZ.HardenedEnd().Uint64() }

// RestoredDB is a read-only database materialized by PointInTimeRestore.
type RestoredDB struct {
	sql *sqlengine.DB
}

// Exec runs a read-only SQL statement against the restored image.
func (r *RestoredDB) Exec(sql string) (*Result, error) { return r.sql.Exec(sql) }

// PointInTimeRestore materializes the database as of targetLSN (0 = end of
// log) from a named backup: constant-time snapshot restore plus a bounded
// log-range replay (§4.7). A target past the end of the log is an error.
func (db *DB) PointInTimeRestore(backup string, targetLSN uint64) (*RestoredDB, error) {
	eng, _, err := db.cluster.PointInTimeRestore(context.Background(), backup, page.LSN(targetLSN))
	if err != nil {
		return nil, err
	}
	return &RestoredDB{sql: sqlengine.New(eng)}, nil
}

// TierMetrics groups the named metrics recorded by one Socrates tier.
// Keys are the metric names without the tier prefix (so the compute tier's
// "compute.commit.latency" histogram appears under "commit.latency").
type TierMetrics struct {
	Counters   map[string]uint64
	Gauges     map[string]int64
	Histograms map[string]HistSummary
}

// MetricsSnapshot is a point-in-time view of the deployment: its metrics
// registry, split by tier, plus the headline numbers no series carries. The
// commit path shows up as Compute.Histograms["commit.latency"] →
// LandingZone.Histograms["write.latency"] → XLOG.Histograms["promote.latency"];
// the GetPage@LSN path as Compute.Histograms["getpage.latency"] (client side,
// cache misses only) and PageServer.Histograms["getpage.latency"] (server
// side). The hardened LSN is a rung of the ladder (Watermarks, or
// BackupLSN); the secondaries are listed by Secondaries.
type MetricsSnapshot struct {
	Taken       time.Time
	Compute     TierMetrics // SQL execution, commit path, GetPage@LSN client side
	LandingZone TierMetrics // durable log writes into the LZ
	XLOG        TierMetrics // LogBroker feed, promotion, destage, pulls
	PageServer  TierMetrics // log apply, GetPage@LSN serving, checkpoints
	XStore      TierMetrics // long-term storage reads/writes/snapshots
	Other       TierMetrics // anything outside the five tier namespaces

	PageServers    int     // live page servers
	CacheHitRate   float64 // the primary's RBPEX hit rate
	RemoteFetches  int64   // GetPage@LSN calls issued by the primary
	CPUUtilization float64 // the primary's simulated CPU
}

// tierOf maps a metric-name prefix to the snapshot sub-struct it belongs to,
// returning the remainder of the name.
func (m *MetricsSnapshot) tierOf(name string) (*TierMetrics, string) {
	for _, t := range []struct {
		prefix string
		dst    *TierMetrics
	}{
		{"compute.", &m.Compute},
		{"lz.", &m.LandingZone},
		{"xlog.", &m.XLOG},
		{"pageserver.", &m.PageServer},
		{"xstore.", &m.XStore},
	} {
		if rest, ok := strings.CutPrefix(name, t.prefix); ok {
			return t.dst, rest
		}
	}
	return &m.Other, name
}

// MetricsSnapshot captures the per-tier metrics registry and the headline
// numbers. It is cheap (no device I/O) and safe to call concurrently with a
// running workload.
func (db *DB) MetricsSnapshot() MetricsSnapshot {
	raw := db.cluster.Metrics.Snapshot()
	p := db.cluster.Primary()
	out := MetricsSnapshot{
		Taken:          raw.Taken,
		PageServers:    len(db.cluster.PageServers()),
		CacheHitRate:   p.Pages().Cache().HitRate(),
		RemoteFetches:  p.Pages().Fetches(),
		CPUUtilization: db.cluster.PrimaryMeter.Utilization(),
	}
	for name, v := range raw.Counters {
		tier, rest := out.tierOf(name)
		if tier.Counters == nil {
			tier.Counters = make(map[string]uint64)
		}
		tier.Counters[rest] = v
	}
	for name, v := range raw.Gauges {
		tier, rest := out.tierOf(name)
		if tier.Gauges == nil {
			tier.Gauges = make(map[string]int64)
		}
		tier.Gauges[rest] = v
	}
	for name, v := range raw.Histograms {
		tier, rest := out.tierOf(name)
		if tier.Histograms == nil {
			tier.Histograms = make(map[string]HistSummary)
		}
		tier.Histograms[rest] = v
	}
	return out
}

// Traces lists the trace IDs retained by the deployment tracer, oldest
// first. The tracer keeps a bounded ring of recent traces.
func (db *DB) Traces() []TraceID { return db.cluster.Tracer.TraceIDs() }

// Trace assembles the span tree recorded under the given trace ID, or nil
// if the trace was never recorded (or has been evicted). Each node carries
// the tier that executed it and the simulated time it consumed; use
// SpanNode.Tiers to see which tiers a request crossed and SpanNode.Format
// to render the tree as indented text.
func (db *DB) Trace(id TraceID) *SpanNode { return db.cluster.Tracer.Trace(id) }

// LastTrace returns the most recently started retained trace, or nil when
// nothing has been traced yet. Handy in tests and demos:
//
//	db.ExecContext(ctx, "INSERT ...")
//	fmt.Print(db.LastTrace().Format())
func (db *DB) LastTrace() *SpanNode {
	ids := db.cluster.Tracer.TraceIDs()
	if len(ids) == 0 {
		return nil
	}
	return db.cluster.Tracer.Trace(ids[len(ids)-1])
}

// --- observability plane ---

// ServeObservability starts the deployment's HTTP observability plane on
// addr (":0" picks a free port; read it back with Addr on the returned
// server). Endpoints:
//
//	/metrics       Prometheus text: counters, gauges, histogram buckets,
//	               and the watermark ladder
//	/metrics.json  raw registry snapshot (what socrates-top -addr polls)
//	/watermarks    the LSN ladder + derived lags + watchdog trips (JSON)
//	/flight        the flight-recorder ring as time-ordered JSONL
//	/traces        retained trace IDs; /traces?id=N renders one span tree
//	/waits         wait-event accounting per tier and class (JSON;
//	               ?format=prom for Prometheus text)
//	/debug/pprof/  the standard Go profiling endpoints
func (db *DB) ServeObservability(addr string) (*ObsServer, error) {
	return obs.Serve(addr, obs.NewHTTPHandler(db.cluster.Plane))
}

// WaitReport snapshots the deployment's wait-event accounting: per-tier
// and global count/total/max per wait class, sorted by total blocked time.
func (db *DB) WaitReport() obs.WaitReport { return db.cluster.Waits.Report() }

// Watermarks snapshots the LSN watermark ladder: commit frontier, hardened
// prefix, promotion/destaging frontiers, per-replica applied LSNs.
func (db *DB) Watermarks() []WatermarkState { return db.cluster.Watermarks.Snapshot() }

// FlightEvents returns a time-ordered copy of the flight recorder's
// retained ring — the always-on postmortem buffer.
func (db *DB) FlightEvents() []FlightEvent { return db.cluster.Flight.Events() }

// WatchdogTrips lists lag/stall watchdog firings so far, oldest first.
func (db *DB) WatchdogTrips() []Trip { return db.cluster.Watchdog.Trips() }

// ErrNoBackup is returned by PointInTimeRestore for unknown backup names.
var ErrNoBackup = cluster.ErrNoBackup

// IsNoBackup reports whether err is an unknown-backup error.
func IsNoBackup(err error) bool { return errors.Is(err, cluster.ErrNoBackup) }
