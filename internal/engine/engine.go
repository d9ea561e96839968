// Package engine is the relational storage engine the Socrates reproduction
// runs on every compute node — the stand-in for the unchanged core of SQL
// Server (§4.1.6). It composes the page-oriented B-tree, the shared version
// store, and the transaction manager into a multi-table database with
// Snapshot Isolation, addressing all storage through the fcb.PageFile
// virtualization layer so the same engine runs:
//
//   - on the Socrates primary (pages behind an RBPEX cache + GetPage@LSN,
//     log into the landing zone),
//   - on Socrates secondaries (read-only, pages converged by log apply),
//   - on HADR replicas (pages on a local disk, log shipped to peers),
//   - and in unit tests (in-memory pages, in-memory log).
//
// Recovery follows the ADR design (§3.2): uncommitted changes never reach
// data pages (writes buffer in the transaction and apply at commit, already
// holding their locks), so restart recovery is analysis + redo only — there
// is no undo phase to bound.
package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"socrates/internal/btree"
	"socrates/internal/fcb"
	"socrates/internal/metrics"
	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/txn"
	"socrates/internal/versionstore"
	"socrates/internal/wal"
)

// MetaPage is the catalog page: table roots, the page allocator cursor, and
// the version-store append cursor all live here as cells.
const MetaPage page.ID = 1

// Catalog cell keys.
const (
	metaNextKey = "next"  // next unallocated page ID
	metaVSKey   = "vscur" // current version-store append page
	tablePrefix = "t:"    // tablePrefix+name → root page ID
)

// Simulated CPU costs per engine operation, charged to the node's meter.
const (
	cpuGet     = 6 * time.Microsecond
	cpuPut     = 4 * time.Microsecond
	cpuCommit  = 14 * time.Microsecond
	cpuApply   = 9 * time.Microsecond // per write applied at commit
	cpuScanRow = 1 * time.Microsecond
)

// Errors.
var (
	ErrReadOnly        = errors.New("engine: read-only node")
	ErrNoTable         = errors.New("engine: table does not exist")
	ErrTableExists     = errors.New("engine: table already exists")
	errTxDone          = errors.New("engine: transaction already finished")
	ErrEngineFailed    = errors.New("engine: engine failed mid-commit; node must restart")
	errNotBootstrapped = errors.New("engine: database not bootstrapped")
)

// LogPipeline is the engine's handle to the durable log: Append stages a
// record (assigning its LSN) and WaitHarden blocks until the given LSN is
// durable or ctx is done. On the Socrates primary, hardening means
// quorum-acknowledged in the landing zone; on HADR, quorum-acknowledged by
// the replica set.
type LogPipeline interface {
	wal.Logger
	WaitHarden(ctx context.Context, lsn page.LSN) error
}

// MemPipeline is an in-memory LogPipeline for tests: hardening is immediate.
type MemPipeline struct{ *wal.MemLog }

// NewMemPipeline returns an empty in-memory pipeline.
func NewMemPipeline() MemPipeline { return MemPipeline{wal.NewMemLog()} }

// WaitHarden reports immediate durability.
func (MemPipeline) WaitHarden(context.Context, page.LSN) error { return nil }

// Config assembles an engine.
type Config struct {
	// Pages is the page storage FCB.
	Pages fcb.PageFile
	// Log is the durable log pipeline. Read-only engines may pass nil.
	Log LogPipeline
	// ReadOnly marks secondary engines: all write paths fail.
	ReadOnly bool
	// ApplyRung, if set, is the rung log apply advances on a read-only node
	// (a secondary's visible rung, a HADR node's applied rung). A read that
	// races log apply (btree.ErrInconsistent) waits for it to move before
	// the read retries (§4.5); without one the read backs off 50 µs.
	ApplyRung *obs.Watermark
	// Meter, if set, is charged the simulated CPU cost of operations.
	Meter *metrics.CPUMeter
	// Obs wires the engine into the observability plane: commit-path spans
	// (tier "compute"), engine counters and latency histograms, the
	// commit-frontier watermark (compute.commit_lsn) plus the LSN→wall-clock
	// stamps that let the watchdog express follower lag in milliseconds,
	// and the compute wait tier — lock.latch when a commit contends the
	// single-writer latch, lock.row when a read blocks on log apply.
	Obs obs.Plane
}

// Engine is one node's database engine instance.
type Engine struct {
	cfg   Config
	waits *obs.WaitRecorder // cfg.Obs.Waits.Tier(obs.TierCompute), resolved once
	clock *txn.Clock
	locks *txn.LockTable
	ids   txn.IDSource

	// commitMu serializes every page-mutating path (commit apply, DDL,
	// allocation): the engine is single-writer, like a SQL Server primary.
	commitMu  sync.Mutex
	next      uint64 // next page ID to allocate (under commitMu)
	failed    bool   // a commit failed mid-apply; the node must restart
	failCause error  // what poisoned the engine

	// set is the commit's page set (under commitMu): every page version a
	// commit, DDL or allocation builds goes here, and the set is installed
	// into cfg.Pages, once per page, before the commit record is appended.
	// Readers never see it. writers are the tables' trees over it.
	set     *btree.PageSet
	writers map[string]*btree.Tree

	vs *versionstore.Store
	// vsPage is the version store's append page as the catalog names it
	// (under commitMu): an append that lands elsewhere has opened a new page,
	// and the commit writes it to the catalog.
	vsPage page.ID

	// pager is the engine as its B-trees see it: the engine itself, or —
	// over a page file that takes read-ahead hints — the engine plus the
	// file's Prefetch (hintingPager).
	pager btree.Pager

	mu     sync.Mutex
	tables map[string]*btree.Tree
}

// hintingPager is the pager the engine hands its B-trees when cfg.Pages
// implements btree.Prefetcher (a compute node's RemotePageFile does; MemFile,
// DiskFile and HADR's buffered file read locally and do not): the engine's
// Read/Write/Allocate with the page file's Prefetch passed straight through,
// which is what makes the trees read ahead.
type hintingPager struct {
	*Engine
	btree.Prefetcher
}

// Create bootstraps a fresh database into cfg.Pages and returns the engine.
func Create(cfg Config) (*Engine, error) {
	if cfg.ReadOnly {
		return nil, errors.New("engine: cannot create a database read-only")
	}
	if cfg.Log == nil {
		return nil, errors.New("engine: Create requires a log pipeline")
	}
	e := newEngine(cfg)
	e.next = uint64(MetaPage) + 1

	// Format the catalog page.
	rec := &wal.Record{Kind: wal.KindPageImage, Page: MetaPage,
		PageType: page.TypeMeta, Value: btree.EmptyNodePayload()}
	cfg.Log.Append(rec)
	if err := e.set.Apply(page.New(MetaPage, page.TypeMeta), rec); err != nil {
		return nil, err
	}
	if err := e.metaPutLocked(metaNextKey, e.next); err != nil {
		return nil, err
	}
	if err := e.set.Install(); err != nil {
		return nil, err
	}
	vs, err := versionstore.New(e, cfg.Log, page.InvalidID)
	if err != nil {
		return nil, err
	}
	e.vs = vs // the catalog names no version page yet: vsPage is InvalidID

	// Delimit bootstrap as a hardened group.
	commitLSN := cfg.Log.Append(wal.NewCommit(0, 0))
	if err := cfg.Log.WaitHarden(context.Background(), commitLSN); err != nil {
		return nil, err
	}
	return e, nil
}

// Open attaches an engine to an existing database in cfg.Pages. Read-only
// engines (secondaries) may open with a nil log.
func Open(cfg Config) (*Engine, error) {
	e := newEngine(cfg)
	meta, err := cfg.Pages.Read(MetaPage)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errNotBootstrapped, err)
	}
	next, found, err := lookupU64(meta, metaNextKey)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("%w: catalog missing allocator cursor", errNotBootstrapped)
	}
	e.next = next
	vscur := page.InvalidID
	if v, ok, err := lookupU64(meta, metaVSKey); err != nil {
		return nil, err
	} else if ok {
		vscur = page.ID(v)
	}
	log := cfg.Log
	if log == nil {
		log = nopLog{}
	}
	vs, err := versionstore.New(e, log, vscur)
	if err != nil {
		return nil, err
	}
	e.vs, e.vsPage = vs, vscur
	return e, nil
}

func newEngine(cfg Config) *Engine {
	e := &Engine{
		cfg:     cfg,
		waits:   cfg.Obs.Waits.Tier(obs.TierCompute),
		clock:   txn.NewClock(),
		locks:   txn.NewLockTable(),
		tables:  make(map[string]*btree.Tree),
		writers: make(map[string]*btree.Tree),
	}
	e.set = btree.NewPageSet(e)
	e.pager = e
	if hint, ok := cfg.Pages.(btree.Prefetcher); ok {
		e.pager = hintingPager{e, hint}
	}
	return e
}

// nopLog satisfies LogPipeline for read-only engines that never append.
type nopLog struct{}

func (nopLog) Append(*wal.Record) page.LSN {
	panic("engine: append on read-only node")
}

func (nopLog) WaitHarden(context.Context, page.LSN) error { return nil }

// Clock exposes the timestamp clock (secondaries publish commit timestamps
// from applied log; benches take snapshots).
func (e *Engine) Clock() *txn.Clock { return e.clock }

// Tracer exposes the engine's tracer (nil when unconfigured; nil is a
// valid no-op tracer).
func (e *Engine) Tracer() *obs.Tracer { return e.cfg.Obs.Tracer }

// Metrics exposes the engine's metrics registry (nil when unconfigured).
func (e *Engine) Metrics() *obs.Registry { return e.cfg.Obs.Metrics }

func (e *Engine) charge(d time.Duration) {
	if e.cfg.Meter != nil {
		e.cfg.Meter.Charge(d)
	}
}

// --- btree.Pager implementation (the engine is its own pager) ---

// Read fetches a page through the FCB layer.
func (e *Engine) Read(id page.ID) (*page.Page, error) { return e.cfg.Pages.Read(id) }

// Write installs a page through the FCB layer: the commit's page set
// publishing what it staged.
func (e *Engine) Write(pg *page.Page) error { return e.cfg.Pages.Write(pg) }

// Allocate hands out a fresh page ID and advances the allocator cursor in
// the catalog, through the commit's page set, which asks for it. Callers
// hold commitMu (all allocation happens on commit/DDL paths).
func (e *Engine) Allocate(t page.Type) (*page.Page, error) {
	if e.cfg.ReadOnly {
		return nil, ErrReadOnly
	}
	id := page.ID(e.next)
	e.next++
	if err := e.metaPutLocked(metaNextKey, e.next); err != nil {
		return nil, err
	}
	return page.New(id, t), nil
}

// metaPutLocked upserts a catalog cell in the commit's page set (caller
// holds commitMu or is bootstrapping single-threaded).
func (e *Engine) metaPutLocked(key string, val uint64) error {
	meta, err := e.set.Read(MetaPage)
	if err != nil {
		return err
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], val)
	rec := &wal.Record{Kind: wal.KindCellPut, Page: MetaPage,
		PageType: page.TypeMeta, Key: []byte(key), Value: buf[:]}
	e.cfg.Log.Append(rec)
	return e.set.Apply(meta, rec)
}

// failLocked poisons the engine after a failed apply or install (caller
// holds commitMu): the log holds records whose pages were not all
// published, so the node must restart (crash-equivalent; the unhardened
// tail is discarded by every consumer). The commit's page set is dropped.
func (e *Engine) failLocked(err error) error {
	e.set.Drop()
	e.failed, e.failCause = true, err
	return fmt.Errorf("%w: %v", ErrEngineFailed, err)
}

func lookupU64(meta *page.Page, key string) (uint64, bool, error) {
	v, found, err := btree.LookupCell(meta, []byte(key))
	if err != nil || !found {
		return 0, found, err
	}
	if len(v) != 8 {
		return 0, false, fmt.Errorf("engine: catalog cell %q has %d bytes", key, len(v))
	}
	return binary.LittleEndian.Uint64(v), true, nil
}

// --- catalog operations ---

// CreateTable creates an empty table. DDL is auto-committed and durable on
// return.
func (e *Engine) CreateTable(name string) error {
	return e.CreateTableContext(context.Background(), name)
}

// CreateTableContext is CreateTable bounded by (and traced through) ctx.
func (e *Engine) CreateTableContext(ctx context.Context, name string) error {
	if e.cfg.ReadOnly {
		return ErrReadOnly
	}
	if name == "" || strings.ContainsRune(name, 0) {
		return errors.New("engine: invalid table name")
	}
	e.commitMu.Lock()
	tree, commitLSN, ts, err := e.createTableLocked(ctx, name)
	e.commitMu.Unlock()
	if err != nil {
		return err
	}

	if err := e.cfg.Log.WaitHarden(ctx, commitLSN); err != nil {
		return err
	}
	e.clock.Publish(ts)
	e.mu.Lock()
	e.tables[name] = btree.Open(e.pager, e.cfg.Log, tree.Root())
	e.mu.Unlock()
	return nil
}

// createTableLocked creates the table's tree and catalog cell in the
// commit's page set, installs it and appends the DDL's commit record
// (caller holds commitMu). A failure after the first page change poisons
// the engine, as a failed commit does.
func (e *Engine) createTableLocked(ctx context.Context, name string) (*btree.Tree, page.LSN, uint64, error) {
	if e.failed {
		return nil, 0, 0, ErrEngineFailed
	}
	meta, err := e.set.Read(MetaPage)
	if err != nil {
		return nil, 0, 0, err
	}
	if _, exists, err := lookupU64(meta, tablePrefix+name); err != nil {
		return nil, 0, 0, err
	} else if exists {
		return nil, 0, 0, fmt.Errorf("%w: %q", ErrTableExists, name)
	}
	tree, err := btree.Create(e.set, e.cfg.Log, 0)
	if err == nil {
		err = e.metaPutLocked(tablePrefix+name, uint64(tree.Root()))
	}
	if err == nil {
		err = e.set.Install()
	}
	if err != nil {
		return nil, 0, 0, e.failLocked(err)
	}
	e.writers[name] = tree
	ts := e.clock.AllocateCommit()
	rec := wal.NewCommit(0, ts)
	if sc := obs.SpanFromContext(ctx); sc.Valid() {
		rec.TraceID, rec.SpanID = uint64(sc.TraceID), uint64(sc.SpanID)
	}
	return tree, e.cfg.Log.Append(rec), ts, nil
}

// tableTree resolves a table's B-tree, consulting the catalog page on miss
// (so secondaries pick up DDL applied by the log).
func (e *Engine) tableTree(name string) (*btree.Tree, error) {
	e.mu.Lock()
	if t, ok := e.tables[name]; ok {
		e.mu.Unlock()
		return t, nil
	}
	e.mu.Unlock()

	meta, err := e.cfg.Pages.Read(MetaPage)
	if err != nil {
		return nil, err
	}
	root, found, err := lookupU64(meta, tablePrefix+name)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	log := e.cfg.Log
	if log == nil {
		log = nopLog{}
	}
	t := btree.Open(e.pager, log, page.ID(root))
	e.mu.Lock()
	e.tables[name] = t
	e.mu.Unlock()
	return t, nil
}

// writerTree is a table's tree as the commit sees it: over the commit's page
// set, so it reads the commit's own changes (caller holds commitMu).
func (e *Engine) writerTree(name string) (*btree.Tree, error) {
	if t, ok := e.writers[name]; ok {
		return t, nil
	}
	t, err := e.tableTree(name)
	if err != nil {
		return nil, err
	}
	w := btree.Open(e.set, e.cfg.Log, t.Root())
	e.writers[name] = w
	return w, nil
}

// Tables lists table names in the catalog, sorted.
func (e *Engine) Tables() ([]string, error) {
	meta, err := e.cfg.Pages.Read(MetaPage)
	if err != nil {
		return nil, err
	}
	var names []string
	err = btree.RangeCells(meta, func(k, _ []byte) bool {
		if strings.HasPrefix(string(k), tablePrefix) {
			names = append(names, strings.TrimPrefix(string(k), tablePrefix))
		}
		return true
	})
	return names, err
}

// AllocatedPages reports how many pages the database has allocated — the
// database's physical size in pages.
func (e *Engine) AllocatedPages() int {
	e.commitMu.Lock()
	defer e.commitMu.Unlock()
	return int(e.next) - 1
}

// TruncateVersions advances the version-store watermark: snapshots older
// than beforeTS may no longer resolve (aggressive log/version reclamation).
func (e *Engine) TruncateVersions(beforeTS uint64) { e.vs.SetWatermark(beforeTS) }

// Failed reports whether the engine poisoned itself mid-commit, and why.
func (e *Engine) Failed() (bool, error) {
	e.commitMu.Lock()
	defer e.commitMu.Unlock()
	return e.failed, e.failCause
}

// withReadRetry runs f, retrying when it races log apply or page fetches.
func (e *Engine) withReadRetry(f func() error) error {
	const maxAttempts = 300
	var err error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		err = f()
		if err == nil || !errors.Is(err, btree.ErrInconsistent) {
			return err
		}
		// lock.row: a reader blocked behind log apply is the MVCC analogue
		// of a row-lock wait (the row's consistent image is not yet
		// available at this node). Aggregate-only: reads do not thread ctx.
		region := e.waits.Begin(nil, obs.WaitLockRow)
		if w := e.cfg.ApplyRung; w != nil {
			// Until apply moves the rung, or 2 ms; any outcome retries.
			_ = e.waits.AwaitLSN(nil, obs.WaitNone, w, w.Value()+1, time.Now().Add(2*time.Millisecond))
		} else {
			//socrates:sleep-ok bounded micro-backoff for read/apply races on a node with no apply rung (the primary)
			time.Sleep(50 * time.Microsecond)
		}
		region.End()
	}
	return err
}
