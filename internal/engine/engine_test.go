package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"socrates/internal/btree"
	"socrates/internal/fcb"
	"socrates/internal/page"
	"socrates/internal/txn"
	"socrates/internal/wal"
)

func newTestEngine(t *testing.T) (*Engine, *fcb.MemFile, MemPipeline) {
	t.Helper()
	pages := fcb.NewMemFile()
	pipe := NewMemPipeline()
	e, err := Create(Config{Pages: pages, Log: pipe})
	if err != nil {
		t.Fatal(err)
	}
	return e, pages, pipe
}

func TestCreateTableAndCRUD(t *testing.T) {
	e, _, _ := newTestEngine(t)
	if err := e.CreateTable("users"); err != nil {
		t.Fatal(err)
	}
	tx := e.Begin()
	if err := tx.Put("users", []byte("alice"), []byte("engineer")); err != nil {
		t.Fatal(err)
	}
	// Own write visible before commit.
	v, found, err := tx.Get("users", []byte("alice"))
	if err != nil || !found || string(v) != "engineer" {
		t.Fatalf("own write: %q %v %v", v, found, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2 := e.BeginRO()
	v, found, err = tx2.Get("users", []byte("alice"))
	if err != nil || !found || string(v) != "engineer" {
		t.Fatalf("after commit: %q %v %v", v, found, err)
	}
	tx2.Abort()
}

func TestTableErrors(t *testing.T) {
	e, _, _ := newTestEngine(t)
	_ = e.CreateTable("t")
	if err := e.CreateTable("t"); !errors.Is(err, ErrTableExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if err := e.CreateTable(""); err == nil {
		t.Fatal("empty name accepted")
	}
	tx := e.Begin()
	defer tx.Abort()
	if _, _, err := tx.Get("ghost", []byte("k")); !errors.Is(err, ErrNoTable) {
		t.Fatalf("missing table: %v", err)
	}
	if err := tx.Put("ghost", []byte("k"), nil); !errors.Is(err, ErrNoTable) {
		t.Fatalf("put to missing table: %v", err)
	}
}

func TestTablesListing(t *testing.T) {
	e, _, _ := newTestEngine(t)
	_ = e.CreateTable("b")
	_ = e.CreateTable("a")
	names, err := e.Tables()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("tables = %v", names)
	}
}

func TestSnapshotIsolationReaders(t *testing.T) {
	e, _, _ := newTestEngine(t)
	_ = e.CreateTable("t")
	w1 := e.Begin()
	_ = w1.Put("t", []byte("k"), []byte("v1"))
	if err := w1.Commit(); err != nil {
		t.Fatal(err)
	}

	// Reader's snapshot is pinned before the second write commits.
	reader := e.BeginRO()
	w2 := e.Begin()
	_ = w2.Put("t", []byte("k"), []byte("v2"))
	if err := w2.Commit(); err != nil {
		t.Fatal(err)
	}

	v, _, err := reader.Get("t", []byte("k"))
	if err != nil || string(v) != "v1" {
		t.Fatalf("snapshot read = %q %v, want v1", v, err)
	}
	// A fresh reader sees v2.
	fresh := e.BeginRO()
	v, _, _ = fresh.Get("t", []byte("k"))
	if string(v) != "v2" {
		t.Fatalf("fresh read = %q", v)
	}
}

func TestSnapshotIsolationAcrossDelete(t *testing.T) {
	e, _, _ := newTestEngine(t)
	_ = e.CreateTable("t")
	w := e.Begin()
	_ = w.Put("t", []byte("k"), []byte("alive"))
	_ = w.Commit()

	reader := e.BeginRO()
	del := e.Begin()
	_ = del.Delete("t", []byte("k"))
	_ = del.Commit()

	if v, found, _ := reader.Get("t", []byte("k")); !found || string(v) != "alive" {
		t.Fatalf("old snapshot should still see the row: %q %v", v, found)
	}
	if _, found, _ := e.BeginRO().Get("t", []byte("k")); found {
		t.Fatal("new snapshot sees deleted row")
	}
}

func TestUncommittedInvisible(t *testing.T) {
	e, _, _ := newTestEngine(t)
	_ = e.CreateTable("t")
	w := e.Begin()
	_ = w.Put("t", []byte("k"), []byte("dirty"))
	if _, found, _ := e.BeginRO().Get("t", []byte("k")); found {
		t.Fatal("uncommitted write visible to other txn")
	}
	w.Abort()
	if _, found, _ := e.BeginRO().Get("t", []byte("k")); found {
		t.Fatal("aborted write visible")
	}
}

func TestWriteConflictFirstWriterWins(t *testing.T) {
	e, _, _ := newTestEngine(t)
	_ = e.CreateTable("t")
	t1 := e.Begin()
	t2 := e.Begin()
	if err := t1.Put("t", []byte("k"), []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := t2.Put("t", []byte("k"), []byte("b")); !errors.Is(err, txn.ErrWriteConflict) {
		t.Fatalf("err = %v, want write conflict", err)
	}
	// Different key is fine.
	if err := t2.Put("t", []byte("other"), []byte("b")); err != nil {
		t.Fatal(err)
	}
	t1.Abort()
	// After abort the lock is free.
	if err := t2.Put("t", []byte("k"), []byte("b2")); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestLostUpdatePrevented is the first-updater-wins rule of Snapshot
// Isolation: a transaction may not overwrite a version committed after its
// snapshot, even if the lock is free by commit time.
func TestLostUpdatePrevented(t *testing.T) {
	e, _, _ := newTestEngine(t)
	_ = e.CreateTable("t")
	seed := e.Begin()
	_ = seed.Put("t", []byte("k"), []byte("100"))
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	t1 := e.Begin()
	t2 := e.Begin() // same snapshot as t1
	_ = t1.Put("t", []byte("k"), []byte("90"))
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	// t1's lock is released; t2 can stage its write...
	if err := t2.Put("t", []byte("k"), []byte("80")); err != nil {
		t.Fatal(err)
	}
	// ...but commit must fail: the row changed after t2's snapshot.
	if err := t2.Commit(); !errors.Is(err, txn.ErrWriteConflict) {
		t.Fatalf("lost update allowed: %v", err)
	}
	v, _, _ := e.BeginRO().Get("t", []byte("k"))
	if string(v) != "90" {
		t.Fatalf("k = %q, want t1's value", v)
	}
}

// TestTransferInvariantUnderContention hammers two accounts from many
// goroutines; the sum must be exact (atomicity + SI validation).
func TestTransferInvariantUnderContention(t *testing.T) {
	e, _, _ := newTestEngine(t)
	_ = e.CreateTable("acct")
	seed := e.Begin()
	_ = seed.Put("acct", []byte("a"), []byte{100})
	_ = seed.Put("acct", []byte("b"), []byte{100})
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tx := e.Begin()
				av, _, err := tx.Get("acct", []byte("a"))
				if err != nil {
					tx.Abort()
					continue
				}
				bv, _, _ := tx.Get("acct", []byte("b"))
				if av[0] == 0 {
					tx.Abort()
					continue
				}
				if tx.Put("acct", []byte("a"), []byte{av[0] - 1}) != nil ||
					tx.Put("acct", []byte("b"), []byte{bv[0] + 1}) != nil {
					tx.Abort()
					continue
				}
				_ = tx.Commit() // conflict aborts are fine; partial effects are not
			}
		}()
	}
	wg.Wait()
	tx := e.BeginRO()
	av, _, _ := tx.Get("acct", []byte("a"))
	bv, _, _ := tx.Get("acct", []byte("b"))
	if int(av[0])+int(bv[0]) != 200 {
		t.Fatalf("sum = %d, want 200", int(av[0])+int(bv[0]))
	}
}

func TestCommitAfterAbortAndDoubleFinish(t *testing.T) {
	e, _, _ := newTestEngine(t)
	_ = e.CreateTable("t")
	tx := e.Begin()
	tx.Abort()
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("commit after abort: %v", err)
	}
	if err := tx.Put("t", []byte("k"), nil); !errors.Is(err, ErrTxDone) {
		t.Fatalf("put after abort: %v", err)
	}
	tx.Abort() // double abort is a no-op
}

func TestReadOnlyTxRejectsWrites(t *testing.T) {
	e, _, _ := newTestEngine(t)
	_ = e.CreateTable("t")
	ro := e.BeginRO()
	if err := ro.Put("t", []byte("k"), nil); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("err = %v", err)
	}
	if err := ro.Delete("t", []byte("k")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("err = %v", err)
	}
}

func TestEmptyCommitIsFree(t *testing.T) {
	e, _, pipe := newTestEngine(t)
	_ = e.CreateTable("t")
	before := len(pipe.Since(0))
	tx := e.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := len(pipe.Since(0)); got != before {
		t.Fatalf("empty commit logged %d records", got-before)
	}
}

func TestVersionChainAcrossManyUpdates(t *testing.T) {
	e, _, _ := newTestEngine(t)
	_ = e.CreateTable("t")
	var snaps []*Tx
	for i := 1; i <= 10; i++ {
		snaps = append(snaps, e.BeginRO())
		w := e.Begin()
		_ = w.Put("t", []byte("k"), []byte(fmt.Sprintf("v%d", i)))
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// snaps[i] was taken before update i+1 committed: sees v{i}.
	for i, s := range snaps {
		v, found, err := s.Get("t", []byte("k"))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if found {
				t.Fatalf("snap 0 sees %q", v)
			}
			continue
		}
		if !found || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("snap %d = %q %v", i, v, found)
		}
	}
}

func TestScanWithOverlay(t *testing.T) {
	e, _, _ := newTestEngine(t)
	_ = e.CreateTable("t")
	setup := e.Begin()
	for i := 0; i < 10; i++ {
		_ = setup.Put("t", []byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	_ = setup.Commit()

	tx := e.Begin()
	_ = tx.Delete("t", []byte("k03"))
	_ = tx.Put("t", []byte("k05"), []byte("updated"))
	_ = tx.Put("t", []byte("k99"), []byte("new"))

	var keys, vals []string
	err := tx.Scan("t", []byte("k02"), nil, func(k, v []byte) bool {
		keys = append(keys, string(k))
		vals = append(vals, string(v))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	wantKeys := []string{"k02", "k04", "k05", "k06", "k07", "k08", "k09", "k99"}
	if fmt.Sprint(keys) != fmt.Sprint(wantKeys) {
		t.Fatalf("keys = %v, want %v", keys, wantKeys)
	}
	if vals[2] != "updated" || vals[7] != "new" {
		t.Fatalf("vals = %v", vals)
	}
	tx.Abort()

	// After abort, the base data is untouched.
	count := 0
	_ = e.BeginRO().Scan("t", nil, nil, func(k, v []byte) bool { count++; return true })
	if count != 10 {
		t.Fatalf("base rows = %d", count)
	}
}

func TestScanRangeAndEarlyStop(t *testing.T) {
	e, _, _ := newTestEngine(t)
	_ = e.CreateTable("t")
	w := e.Begin()
	for i := 0; i < 50; i++ {
		_ = w.Put("t", []byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	_ = w.Commit()
	count := 0
	_ = e.BeginRO().Scan("t", []byte("k010"), []byte("k020"), func(k, v []byte) bool {
		count++
		return true
	})
	if count != 10 {
		t.Fatalf("range rows = %d", count)
	}
	count = 0
	_ = e.BeginRO().Scan("t", nil, nil, func(k, v []byte) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Fatalf("early stop rows = %d", count)
	}
}

func TestReopenAfterRestart(t *testing.T) {
	pages := fcb.NewMemFile()
	pipe := NewMemPipeline()
	e, err := Create(Config{Pages: pages, Log: pipe})
	if err != nil {
		t.Fatal(err)
	}
	_ = e.CreateTable("t")
	w := e.Begin()
	for i := 0; i < 200; i++ {
		_ = w.Put("t", []byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	// "Failover": a fresh engine opens over the same pages (as a new
	// primary would after pages converge). The clock restarts; publish the
	// old visible watermark as the recovery would from commit records.
	e2, err := Open(Config{Pages: pages, Log: pipe})
	if err != nil {
		t.Fatal(err)
	}
	e2.Clock().Publish(e.Clock().Visible())
	v, found, err := e2.BeginRO().Get("t", []byte("k0100"))
	if err != nil || !found || string(v) != "v100" {
		t.Fatalf("after reopen: %q %v %v", v, found, err)
	}
	// New writes still work, including allocation continuity.
	w2 := e2.Begin()
	for i := 200; i < 400; i++ {
		_ = w2.Put("t", []byte(fmt.Sprintf("k%04d", i)), []byte("post"))
	}
	if err := w2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestReadOnlyEngineServesSnapshots(t *testing.T) {
	e, pages, _ := newTestEngine(t)
	_ = e.CreateTable("t")
	w := e.Begin()
	_ = w.Put("t", []byte("k"), []byte("v"))
	_ = w.Commit()

	ro, err := Open(Config{Pages: pages, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	ro.Clock().Publish(e.Clock().Visible())
	v, found, err := ro.BeginRO().Get("t", []byte("k"))
	if err != nil || !found || string(v) != "v" {
		t.Fatalf("ro read: %q %v %v", v, found, err)
	}
	if err := ro.CreateTable("x"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("ro DDL: %v", err)
	}
	tx := ro.Begin()
	if err := tx.Put("t", []byte("k"), nil); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("ro write: %v", err)
	}
}

// TestReplicaConvergence replays the primary's log on a replica page file
// and verifies a read-only engine over it sees identical data — the path a
// Socrates secondary or page server takes.
func TestReplicaConvergence(t *testing.T) {
	e, _, pipe := newTestEngine(t)
	_ = e.CreateTable("acc")
	for i := 0; i < 100; i++ {
		w := e.Begin()
		_ = w.Put("acc", []byte(fmt.Sprintf("a%03d", i%20)), []byte(fmt.Sprintf("bal%d", i)))
		if i%3 == 0 {
			_ = w.Delete("acc", []byte(fmt.Sprintf("a%03d", (i+7)%20)))
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	replicaPages := fcb.NewMemFile()
	var visible uint64
	for _, rec := range pipe.Since(0) {
		switch {
		case rec.IsPageOp():
			pg, err := replicaPages.Read(rec.Page)
			if errors.Is(err, fcb.ErrNotFound) {
				pg = page.New(rec.Page, rec.PageType)
			} else if err != nil {
				t.Fatal(err)
			}
			pg, _, err = btree.Apply(pg, rec)
			if err != nil {
				t.Fatal(err)
			}
			if err := replicaPages.Write(pg); err != nil {
				t.Fatal(err)
			}
		case rec.Kind == wal.KindTxnCommit:
			if ts := rec.CommitTS(); ts > visible {
				visible = ts
			}
		}
	}
	replica, err := Open(Config{Pages: replicaPages, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	replica.Clock().Publish(visible)

	var prim, repl []string
	collect := func(eng *Engine, out *[]string) {
		_ = eng.BeginRO().Scan("acc", nil, nil, func(k, v []byte) bool {
			*out = append(*out, string(k)+"="+string(v))
			return true
		})
	}
	collect(e, &prim)
	collect(replica, &repl)
	if len(prim) == 0 || fmt.Sprint(prim) != fmt.Sprint(repl) {
		t.Fatalf("replica diverged:\nprimary %v\nreplica %v", prim, repl)
	}
}

// TestDelayedPublishGating verifies the durability/visibility split: a
// commit whose log has not hardened is invisible to new snapshots.
func TestDelayedPublishGating(t *testing.T) {
	pages := fcb.NewMemFile()
	gate := &gatedPipeline{MemLog: wal.NewMemLog(), release: make(chan struct{})}
	e, err := Create(Config{Pages: pages, Log: gate})
	if err != nil {
		t.Fatal(err)
	}
	_ = e.CreateTable("t")

	gate.hold.Store(true)
	done := make(chan error)
	go func() {
		w := e.Begin()
		_ = w.Put("t", []byte("k"), []byte("v"))
		done <- w.Commit()
	}()
	// While hardening is stuck, the write must be invisible.
	for i := 0; i < 50; i++ {
		if _, found, _ := e.BeginRO().Get("t", []byte("k")); found {
			t.Fatal("unhardened commit visible")
		}
	}
	close(gate.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, found, _ := e.BeginRO().Get("t", []byte("k")); !found {
		t.Fatal("hardened commit invisible")
	}
}

type gatedPipeline struct {
	*wal.MemLog
	hold    holdFlag
	release chan struct{}
}

type holdFlag struct {
	mu sync.Mutex
	v  bool
}

func (h *holdFlag) Store(v bool) { h.mu.Lock(); h.v = v; h.mu.Unlock() }
func (h *holdFlag) Load() bool   { h.mu.Lock(); defer h.mu.Unlock(); return h.v }

func (g *gatedPipeline) WaitHarden(context.Context, page.LSN) error {
	if g.hold.Load() {
		<-g.release
	}
	return nil
}

func TestConcurrentCommitsDistinctKeys(t *testing.T) {
	e, _, _ := newTestEngine(t)
	_ = e.CreateTable("t")
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				tx := e.Begin()
				key := []byte(fmt.Sprintf("w%d-k%d", w, i))
				if err := tx.Put("t", key, []byte("v")); err != nil {
					errs <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	count := 0
	_ = e.BeginRO().Scan("t", nil, nil, func(k, v []byte) bool { count++; return true })
	if count != 200 {
		t.Fatalf("rows = %d, want 200", count)
	}
}

func TestConcurrentReadersDuringWrites(t *testing.T) {
	e, _, _ := newTestEngine(t)
	_ = e.CreateTable("t")
	seed := e.Begin()
	for i := 0; i < 300; i++ {
		_ = seed.Put("t", []byte(fmt.Sprintf("k%04d", i)), []byte("v0"))
	}
	_ = seed.Commit()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer churns
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			tx := e.Begin()
			_ = tx.Put("t", []byte(fmt.Sprintf("k%04d", i%300)), []byte(fmt.Sprintf("v%d", i)))
			_ = tx.Commit()
			i++
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 50; i++ {
				tx := e.BeginRO()
				count := 0
				if err := tx.Scan("t", nil, nil, func(k, v []byte) bool {
					count++
					return true
				}); err != nil {
					t.Errorf("scan: %v", err)
					return
				}
				if count != 300 {
					t.Errorf("snapshot scan saw %d rows, want 300", count)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	wg.Wait()
}

// updateUntilVersionPages updates one row in commits of its own, each
// moving a 1 KB head into the version store, until the store has opened
// pages version pages in this incarnation: the engine's catalog entry for
// the append page has moved that many times.
func updateUntilVersionPages(t *testing.T, e *Engine, key []byte, pages int) {
	t.Helper()
	val := make([]byte, 1024)
	for i, opened, last := 0, 0, e.vsPage; opened < pages; i++ {
		if i == 100 {
			t.Fatalf("100 updates opened %d version pages, want %d", opened, pages)
		}
		val[0] = byte(i)
		tx := e.Begin()
		if err := tx.Put("t", key, val); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if e.vsPage != last {
			opened, last = opened+1, e.vsPage
		}
	}
}

// TestVersionPageSurvivesReopen: a commit whose version append opens a new
// page names that page in the catalog, so an engine opened on the same
// pages appends where the last one left off instead of opening another.
func TestVersionPageSurvivesReopen(t *testing.T) {
	e, pages, pipe := newTestEngine(t)
	if err := e.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	key := []byte("k")
	updateUntilVersionPages(t, e, key, 2)
	cur := e.vsPage

	meta, err := pages.Read(MetaPage)
	if err != nil {
		t.Fatal(err)
	}
	if named, found, err := lookupU64(meta, metaVSKey); err != nil || !found || page.ID(named) != cur {
		t.Fatalf("catalog names version page %d (%v %v), the store appends to %d", named, found, err, cur)
	}

	e2, err := Open(Config{Pages: pages, Log: pipe})
	if err != nil {
		t.Fatal(err)
	}
	e2.Clock().Publish(e.Clock().Visible())
	tx := e2.Begin()
	if err := tx.Put("t", key, []byte("after reopen")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := e2.vsPage; got != cur {
		t.Fatalf("reopened engine appends to page %d; want page %d, none opened", got, cur)
	}
	rowIs(t, e2, key, "after reopen")
}

// catalogFault is a MemFile whose catalog page fails to read once: at the
// first read after the version store formats its second page — the read of
// the catalog write that names that page.
type catalogFault struct {
	*fcb.MemFile
	err     error
	version map[page.ID]bool // version pages written so far
	armed   bool
}

func (f *catalogFault) Write(pg *page.Page) error {
	if pg.Type == page.TypeVersion && !f.version[pg.ID] {
		f.version[pg.ID] = true
		f.armed = len(f.version) == 2
	}
	return f.MemFile.Write(pg)
}

func (f *catalogFault) Read(id page.ID) (*page.Page, error) {
	if id == MetaPage && f.armed {
		f.armed = false
		return nil, f.err
	}
	return f.MemFile.Read(id)
}

// TestFailedVersionPageCatalogWriteFailsTheCommit: the catalog write that
// names a new version page can fail (on a compute node its read of the
// catalog is a GetPage a severed link fails). The commit that opened the
// page then fails as any apply error fails it: the engine is poisoned, with
// the cause, and the commit is not acknowledged.
func TestFailedVersionPageCatalogWriteFailsTheCommit(t *testing.T) {
	injected := errors.New("injected catalog read failure")
	pages := &catalogFault{MemFile: fcb.NewMemFile(), err: injected, version: map[page.ID]bool{}}
	e, err := Create(Config{Pages: pages, Log: NewMemPipeline()})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	key, val := []byte("k"), make([]byte, 1024)
	var commitErr error
	for i := 0; i < 100 && commitErr == nil && len(pages.version) < 2; i++ {
		tx := e.Begin()
		if err := tx.Put("t", key, val); err != nil {
			t.Fatal(err)
		}
		commitErr = tx.Commit()
	}
	if len(pages.version) < 2 {
		t.Fatalf("100 updates opened %d version pages, want 2", len(pages.version))
	}
	if !errors.Is(commitErr, ErrEngineFailed) {
		t.Fatalf("the commit whose catalog write failed returned %v, want %v", commitErr, ErrEngineFailed)
	}
	if failed, cause := e.Failed(); !failed || !errors.Is(cause, injected) {
		t.Fatalf("Failed() = %v, %v; want true and the catalog read's error", failed, cause)
	}
	tx := e.Begin()
	if err := tx.Put("t", key, []byte("later")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrEngineFailed) {
		t.Fatalf("a later commit returned %v, want %v", err, ErrEngineFailed)
	}
}
