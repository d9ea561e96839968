package compute

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"socrates/internal/btree"
	"socrates/internal/engine"
	"socrates/internal/fcb"
	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/rbio"
	"socrates/internal/rbpex"
	"socrates/internal/simdisk"
	"socrates/internal/wal"
)

// hangGuard bounds how long a test waits for something that, when the code
// is right, happens at once. It is a hang detector, never a measurement.
const hangGuard = 10 * time.Second

// fakePageServer answers GetPage out of a MemFile and lets a test decide
// when: a barrier that answers nothing until enough distinct pages are in
// flight, and per-page holds released by hand.
type fakePageServer struct {
	store *fcb.MemFile

	mu       sync.Mutex
	requests map[page.ID]int          // GetPage requests seen, per page
	barrier  int                      // answer no GetPage until this many distinct pages wait (0: no barrier)
	waiting  map[page.ID]bool         // pages waiting at the barrier
	open     chan struct{}            // closed when the barrier fills
	holds    map[page.ID]chan release // the next request for the page is held
	failing  error                    // answer every GetPage with this error
}

// release is how a held request goes on: closed to answer from the store,
// or sent an error to answer with.
type release chan error

func newFakePageServer() *fakePageServer {
	return &fakePageServer{
		store:    fcb.NewMemFile(),
		requests: map[page.ID]int{},
		waiting:  map[page.ID]bool{},
		holds:    map[page.ID]chan release{},
	}
}

// armBarrier makes the server answer no GetPage until n distinct pages have
// a request in flight.
func (s *fakePageServer) armBarrier(n int) {
	s.mu.Lock()
	s.barrier, s.open = n, make(chan struct{})
	s.mu.Unlock()
}

// hold makes the next GetPage for id wait. The returned channel yields the
// request's release once the request has arrived.
func (s *fakePageServer) hold(id page.ID) <-chan release {
	arrived := make(chan release, 1)
	s.mu.Lock()
	s.holds[id] = arrived
	s.mu.Unlock()
	return arrived
}

func (s *fakePageServer) seen(id page.ID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.requests[id]
}

func (s *fakePageServer) handler() rbio.Handler {
	return func(ctx context.Context, req *rbio.Request) *rbio.Response {
		if req.Type != rbio.MsgGetPage {
			return rbio.Errorf("unexpected %v", req.Type)
		}
		s.mu.Lock()
		s.requests[req.Page]++
		failing := s.failing
		arrived, held := s.holds[req.Page]
		delete(s.holds, req.Page)
		var open chan struct{}
		if s.barrier > 0 {
			s.waiting[req.Page] = true
			if open = s.open; len(s.waiting) == s.barrier {
				close(open)
				s.barrier = 0
			}
		}
		s.mu.Unlock()
		if failing != nil {
			return rbio.Errorf("%v", failing)
		}
		if held {
			rel := make(release)
			arrived <- rel
			select {
			case err := <-rel:
				if err != nil {
					return rbio.Errorf("%v", err)
				}
			case <-ctx.Done():
				return rbio.Errorf("held request abandoned: %v", ctx.Err())
			}
		}
		if open != nil {
			select {
			case <-open:
			case <-ctx.Done():
				return rbio.Errorf("request abandoned at the barrier: %v", ctx.Err())
			}
		}
		pg, err := s.store.Read(req.Page)
		if err != nil {
			return rbio.Errorf("%v", err)
		}
		buf, err := pg.Encode()
		if err != nil {
			return rbio.Errorf("%v", err)
		}
		resp := rbio.Ok()
		resp.Payload = buf
		return resp
	}
}

// remoteFile builds a remotePageFile on the server with a registry to read
// its counters from and a wait set to read page.remote from.
func (s *fakePageServer) remoteFile(t *testing.T, memPages int, floor func() page.LSN) (*remotePageFile, *obs.Registry, *obs.WaitSet) {
	t.Helper()
	net := rbio.NewInstantNetwork()
	net.Serve("ps", s.handler())
	sel := rbio.NewSelector(rbio.NewClient(net.Dial("ps")))
	if floor == nil {
		floor = func() page.LSN { return 1 }
	}
	reg, waits := obs.NewRegistry(), obs.NewWaitSet()
	f, err := newRemotePageFile(rbpex.Config{MemPages: memPages},
		func(page.ID) (*rbio.Selector, error) { return sel, nil }, floor,
		obs.Plane{Metrics: reg, Waits: waits})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f, reg, waits
}

func pageRemoteWaits(ws *obs.WaitSet) uint64 {
	for _, st := range ws.Report().Global {
		if st.Class == obs.WaitPageRemote.String() {
			return st.Count
		}
	}
	return 0
}

// pagerOver makes a page file a btree.Pager; nothing here allocates.
type pagerOver struct{ *remotePageFile }

func (pagerOver) Allocate(page.Type) (*page.Page, error) {
	return nil, errors.New("read-only pager")
}

type storePager struct {
	*fcb.MemFile
	next page.ID
}

func (p *storePager) Allocate(t page.Type) (*page.Page, error) {
	p.next++
	return page.New(p.next, t), nil
}

func rowKey(i int) []byte { return []byte(fmt.Sprintf("row-%05d", i)) }

// loadTree builds a root-over-leaves tree of n rows in the server's store
// and returns its root.
func (s *fakePageServer) loadTree(t *testing.T, n int) page.ID {
	t.Helper()
	tree, err := btree.Create(&storePager{MemFile: s.store}, wal.NewMemLog(), 0)
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 200)
	for i := 0; i < n; i++ {
		if err := tree.Put(1, rowKey(i), val); err != nil {
			t.Fatal(err)
		}
	}
	return tree.Root()
}

// within fails the test if fn has not returned within the hang guard.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(hangGuard):
		t.Fatalf("%s: still waiting after %v", what, hangGuard)
	}
}

// xlogOnce is a fake XLOG that feeds a secondary one pull: the pull from
// start waits until serve is closed and is answered with payload, up to
// end. Any other pull finds nothing and, like XLOG's long poll, holds until
// the puller gives up — answering it empty would spin the apply loop.
func xlogOnce(start, end page.LSN, payload []byte, serve <-chan struct{}) rbio.Handler {
	return func(ctx context.Context, req *rbio.Request) *rbio.Response {
		if req.Type == rbio.MsgPullBlocks && req.LSN == start {
			select {
			case <-serve:
				resp := rbio.Ok()
				resp.LSN, resp.Payload = end, payload
				return resp
			case <-ctx.Done():
			}
		}
		<-ctx.Done()
		return rbio.Errorf("pull: %v", ctx.Err())
	}
}

// TestReadAheadOverlapsScanFetches is the overlap itself. The page server
// answers nothing until ReadAhead+1 distinct pages are in flight: a scan that
// fetched its leaves one after another would hang on the first; with
// read-ahead the first leaf and the ReadAhead hinted behind it fill the
// barrier. Every page is requested from the server exactly once, whoever got
// there first — the hint or the read.
func TestReadAheadOverlapsScanFetches(t *testing.T) {
	srv := newFakePageServer()
	root := srv.loadTree(t, 2000)
	f, reg, _ := srv.remoteFile(t, 256, nil)
	tree := btree.Open(pagerOver{f}, wal.NewMemLog(), root)
	if _, err := f.Read(root); err != nil { // the root is always hot
		t.Fatal(err)
	}

	srv.armBarrier(btree.ReadAhead + 1)
	rows := 0
	within(t, "scan through the barrier (no read-ahead?)", func() {
		if err := tree.Scan(rowKey(100), rowKey(1900), func(_, _ []byte) bool { rows++; return true }); err != nil {
			t.Errorf("scan: %v", err)
		}
	})
	if rows != 1800 {
		t.Fatalf("scan returned %d rows, want 1800", rows)
	}
	f.Close() // no read-ahead still in the air when the counters are read

	srv.mu.Lock()
	distinct := len(srv.requests)
	for id, n := range srv.requests {
		if n != 1 {
			t.Errorf("page %d requested %d times, want once", id, n)
		}
	}
	srv.mu.Unlock()
	if distinct < btree.ReadAhead+2 {
		t.Fatalf("the scan touched %d pages; the test needs more than the barrier", distinct)
	}
	if got := f.Fetches(); got != int64(distinct) {
		t.Fatalf("Fetches() = %d, want one per distinct uncached page = %d", got, distinct)
	}
	issued := reg.Counter("compute.readahead.issued").Value()
	joined := reg.Counter("compute.readahead.joined").Value()
	dropped := reg.Counter("compute.readahead.dropped").Value()
	// Every leaf but the first was hinted, and every hint that started a
	// fetch met its reader. (Over a network with no latency the scan is
	// faster than the window empties: fetches that have landed but not yet
	// left it make later hints drop.)
	if issued+dropped != uint64(distinct-2) || issued < btree.ReadAhead || joined != issued {
		t.Fatalf("read-ahead issued %d joined %d dropped %d over %d hinted pages", issued, joined, dropped, distinct-2)
	}
}

// TestReadAheadFullWindowDropsHint: with rangeFanout fetches in flight a
// further hint is dropped — Prefetch returns at once, counts it, and the
// page is fetched by whoever reads it.
func TestReadAheadFullWindowDropsHint(t *testing.T) {
	srv := newFakePageServer()
	for id := page.ID(1); id <= rangeFanout+1; id++ {
		_ = srv.store.Write(&page.Page{ID: id, LSN: 5, Type: page.TypeLeaf, Data: btree.EmptyNodePayload()})
	}
	f, reg, waits := srv.remoteFile(t, 64, nil)
	srv.armBarrier(rangeFanout + 1) // holds all of them until the seventeenth page is asked for

	ids := make([]page.ID, rangeFanout+1)
	for i := range ids {
		ids[i] = page.ID(i + 1)
	}
	within(t, "Prefetch with the window full", func() { f.Prefetch(ids) })
	within(t, "a repeated hint", func() { f.Prefetch(ids[:4]) }) // in flight already: nothing to do
	if issued, dropped := reg.Counter("compute.readahead.issued").Value(),
		reg.Counter("compute.readahead.dropped").Value(); issued != rangeFanout || dropped != 1 {
		t.Fatalf("issued %d dropped %d, want %d and 1", issued, dropped, rangeFanout)
	}
	if n := pageRemoteWaits(waits); n != 0 {
		t.Fatalf("read-ahead recorded %d page.remote waits; it blocks nobody", n)
	}
	// The dropped page's reader fetches it, which also opens the barrier.
	within(t, "read of the dropped page", func() {
		if pg, err := f.Read(rangeFanout + 1); err != nil || pg.ID != rangeFanout+1 {
			t.Errorf("read: %+v %v", pg, err)
		}
	})
	if n := pageRemoteWaits(waits); n != 1 {
		t.Fatalf("page.remote waits = %d, want the one reader", n)
	}
	f.Close()
	if got := f.Fetches(); got != rangeFanout+1 {
		t.Fatalf("Fetches() = %d, want %d", got, rangeFanout+1)
	}
}

// TestReadAheadQueuedRedoReachesJoinerAndCache is §4.5 with the read-ahead
// owning the registration: redo that arrives for the page mid-flight is
// queued behind the read-ahead's fetch, and both the reader that joined the
// flight and the cache end up with it applied.
func TestReadAheadQueuedRedoReachesJoinerAndCache(t *testing.T) {
	srv := newFakePageServer()
	_ = srv.store.Write(&page.Page{ID: 3, LSN: 10, Type: page.TypeLeaf, Data: btree.EmptyNodePayload()})
	f, reg, waits := srv.remoteFile(t, 16, nil)

	arrived := srv.hold(3)
	f.Prefetch([]page.ID{3})
	var rel release
	within(t, "the read-ahead's GetPage", func() { rel = <-arrived })

	rec := &wal.Record{LSN: 11, Kind: wal.KindCellPut, Page: 3, Key: []byte("k"), Value: []byte("v")}
	if !f.QueueIfPending(rec) {
		t.Fatal("redo for a page being read ahead was not queued")
	}
	var got *page.Page
	var readErr error
	read := make(chan struct{})
	go func() {
		defer close(read)
		got, readErr = f.Read(3)
	}()
	// The reader has joined the registration once the hint is counted as met.
	within(t, "the reader joining the registration", func() {
		for reg.Counter("compute.readahead.joined").Value() == 0 {
			time.Sleep(50 * time.Microsecond) // deadline-bounded poll for the reader goroutine to register
		}
	})
	close(rel)
	within(t, "the joined read", func() { <-read })

	if readErr != nil || got.LSN != 11 {
		t.Fatalf("joined read: %+v %v, want the page at LSN 11 (queued redo applied)", got, readErr)
	}
	if v, found, err := btree.LookupCell(got, []byte("k")); err != nil || !found || string(v) != "v" {
		t.Fatalf("joined read lacks the queued cell: %q %v %v", v, found, err)
	}
	f.Close()
	if lsn, ok := cachedLSN(f.Cache(), 3); !ok || lsn != 11 {
		t.Fatalf("cached LSN = %d %v, want 11", lsn, ok)
	}
	if f.QueueIfPending(&wal.Record{LSN: 12, Kind: wal.KindCellPut, Page: 3, Key: []byte("k")}) {
		t.Fatal("registration outlived the read-ahead's install")
	}
	if srv.seen(3) != 1 || f.Fetches() != 1 {
		t.Fatalf("page requested %d times, Fetches() = %d, want one shared request", srv.seen(3), f.Fetches())
	}
	if issued, joined := reg.Counter("compute.readahead.issued").Value(),
		reg.Counter("compute.readahead.joined").Value(); issued != 1 || joined != 1 {
		t.Fatalf("issued %d joined %d, want 1 and 1", issued, joined)
	}
	// Only the reader was ever blocked.
	if n := pageRemoteWaits(waits); n != 1 {
		t.Fatalf("page.remote waits = %d, want 1", n)
	}
	// A later hit on the page is an ordinary hit: the join was counted once.
	if _, err := f.Read(3); err != nil {
		t.Fatal(err)
	}
	if joined := reg.Counter("compute.readahead.joined").Value(); joined != 1 {
		t.Fatalf("joined = %d after a plain cache hit, want 1", joined)
	}
}

// TestReadAheadHitCountsOnce: a page read-ahead brought in waits in the
// cache's ahead area, counts as joined at its first Read — which is a memory
// hit, and the cache's own count of it — and never again; a hint that failed
// costs its reader nothing but the fetch.
func TestReadAheadHitCountsOnce(t *testing.T) {
	srv := newFakePageServer()
	_ = srv.store.Write(&page.Page{ID: 3, LSN: 10, Type: page.TypeLeaf, Data: btree.EmptyNodePayload()})
	_ = srv.store.Write(&page.Page{ID: 4, LSN: 10, Type: page.TypeLeaf, Data: btree.EmptyNodePayload()})
	f, reg, waits := srv.remoteFile(t, 16, nil)
	joined := reg.Counter("compute.readahead.joined")

	arrived := srv.hold(4)
	f.Prefetch([]page.ID{3, 4})
	within(t, "the failing read-ahead", func() { (<-arrived) <- errors.New("page server hiccup") })
	within(t, "read-ahead to land", func() {
		for reg.Counter("compute.rbpex.ahead.parked").Value() != 1 {
			time.Sleep(50 * time.Microsecond) // deadline-bounded poll for the background install
		}
	})
	if !f.Cache().Contains(3) || joined.Value() != 0 {
		t.Fatalf("parked page: Contains %v, joined %d; want it cached and not yet counted", f.Cache().Contains(3), joined.Value())
	}
	for i := 0; i < 3; i++ {
		if _, err := f.Read(3); err != nil {
			t.Fatal(err)
		}
	}
	if joined.Value() != 1 || pageRemoteWaits(waits) != 0 {
		t.Fatalf("joined = %d, page.remote waits = %d; want 1 and 0: three hits on one page read ahead",
			joined.Value(), pageRemoteWaits(waits))
	}
	if memHits, _, misses := f.Cache().Stats(); memHits != 3 || misses != 0 {
		t.Fatalf("%d memory hits, %d misses; want 3 and 0: the first read of a parked page is a memory hit", memHits, misses)
	}
	if parked, read, displaced := reg.Counter("compute.rbpex.ahead.parked").Value(), reg.Counter("compute.rbpex.ahead.read").Value(),
		reg.Counter("compute.rbpex.ahead.displaced").Value(); parked != 1 || read != 1 || displaced != 0 {
		t.Fatalf("ahead area: parked %d read %d displaced %d; want 1, 1 and 0", parked, read, displaced)
	}
	// The failed hint left nothing behind: its reader fetches and succeeds.
	within(t, "read after a failed hint", func() {
		for {
			f.mu.Lock()
			_, pending := f.pending[4]
			f.mu.Unlock()
			if !pending {
				break
			}
			time.Sleep(50 * time.Microsecond) // deadline-bounded poll for the failed background fetch to end
		}
		if _, err := f.Read(4); err != nil {
			t.Errorf("read after a failed hint: %v", err)
		}
	})
	if joined.Value() != 1 || srv.seen(4) != 2 {
		t.Fatalf("joined = %d, page 4 requested %d times; want 1 and 2", joined.Value(), srv.seen(4))
	}
}

// TestRedoReachesParkedPageBeforeItsReader is §4.5 for a page in the cache's
// ahead area, step by step: the read-ahead has installed the page and ended
// its registration, nobody has read it; redo for it arrives. The page is
// cached — the apply thread must not ignore the record, as it does for pages
// the node does not hold — so the record is applied to the parked image, and
// the reader that comes next sees it, without asking the page server again.
func TestRedoReachesParkedPageBeforeItsReader(t *testing.T) {
	srv := newFakePageServer()
	_ = srv.store.Write(&page.Page{ID: 3, LSN: 10, Type: page.TypeLeaf, Data: btree.EmptyNodePayload()})
	f, reg, _ := srv.remoteFile(t, 16, nil)

	f.Prefetch([]page.ID{3})
	within(t, "the read-ahead to park its page", func() {
		for reg.Counter("compute.rbpex.ahead.parked").Value() != 1 {
			time.Sleep(50 * time.Microsecond) // deadline-bounded poll for the background install
		}
	})
	f.Close() // the registration is over when the fetch's goroutine is

	// What a secondary's apply thread does with a page operation.
	rec := &wal.Record{LSN: 11, Kind: wal.KindCellPut, Page: 3, Key: []byte("k"), Value: []byte("v")}
	if f.QueueIfPending(rec) {
		t.Fatal("the registration outlived the read-ahead's install")
	}
	applyAsSecondary(t, f, rec)
	// Log apply is not the reader the page waits for: it stays parked, in
	// the new version, and the hint is not counted yet.
	parked, stillParked := f.Cache().Parked(3)
	if joined := reg.Counter("compute.readahead.joined").Value(); !stillParked || parked.LSN != 11 || joined != 0 {
		t.Fatalf("after the redo: parked %v (%+v), joined %d; want the page parked at LSN 11 and no hint counted", stillParked, parked, joined)
	}

	pg, err := f.Read(3)
	if err != nil || pg.LSN != 11 {
		t.Fatalf("read after the redo: %+v %v, want the page at LSN 11", pg, err)
	}
	if v, found, err := btree.LookupCell(pg, []byte("k")); err != nil || !found || string(v) != "v" {
		t.Fatalf("the reader's page lacks the redo: %q %v %v", v, found, err)
	}
	if srv.seen(3) != 1 || f.Fetches() != 1 {
		t.Fatalf("page requested %d times, Fetches() = %d; want the read-ahead's one request", srv.seen(3), f.Fetches())
	}
	// The reader's was the page's first read: the hint is counted once.
	if joined := reg.Counter("compute.readahead.joined").Value(); joined != 1 {
		t.Fatalf("joined = %d, want 1", joined)
	}
}

// TestCloseEndsReadAhead: Close cancels read-ahead in flight, returns once
// its goroutines have, and turns later hints into no-ops; reads still work.
func TestCloseEndsReadAhead(t *testing.T) {
	srv := newFakePageServer()
	_ = srv.store.Write(&page.Page{ID: 3, LSN: 10, Type: page.TypeLeaf, Data: btree.EmptyNodePayload()})
	f, reg, _ := srv.remoteFile(t, 16, nil)
	arrived := srv.hold(3)
	f.Prefetch([]page.ID{3})
	within(t, "the read-ahead's GetPage", func() { <-arrived }) // held, never released
	within(t, "Close with read-ahead in flight", f.Close)
	f.mu.Lock()
	pending := len(f.pending)
	f.mu.Unlock()
	if pending != 0 {
		t.Fatalf("%d registrations left after Close", pending)
	}
	f.Prefetch([]page.ID{3})
	if issued := reg.Counter("compute.readahead.issued").Value(); issued != 1 {
		t.Fatalf("issued = %d: a hint after Close started a fetch", issued)
	}
	if pg, err := f.Read(3); err != nil || pg.LSN != 10 {
		t.Fatalf("read after Close: %+v %v", pg, err)
	}
}

// buildDatabase creates a one-table database through an engine over the
// server, commits rows into it, and leaves every page in the server's store
// — what the page servers hold once they have applied the log.
func (s *fakePageServer) buildDatabase(t *testing.T, log engine.LogPipeline, rows int) {
	t.Helper()
	pad := string(make([]byte, 300))
	f, _, _ := s.remoteFile(t, 1024, nil)
	e, err := engine.Create(engine.Config{Pages: f, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ { // the second round moves versions into the version store
		tx := e.Begin()
		for i := 0; i < rows; i++ {
			if err := tx.Put("t", rowKey(i), []byte(fmt.Sprintf("v%d%s", round, pad))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	for id := page.ID(1); int(id) <= e.AllocatedPages(); id++ {
		pg, err := f.Read(id)
		if err != nil {
			t.Fatalf("page %d: %v", id, err)
		}
		if err := s.store.Write(pg); err != nil {
			t.Fatal(err)
		}
	}
}

// leafOf finds the leaf in the server's store that holds key.
func (s *fakePageServer) leafOf(t *testing.T, key []byte) page.ID {
	t.Helper()
	leaf := page.InvalidID
	s.store.Range(func(pg *page.Page) bool {
		if pg.Type == page.TypeLeaf {
			if _, found, _ := btree.LookupCell(pg, key); found {
				leaf = pg.ID
			}
		}
		return leaf == page.InvalidID
	})
	if leaf == page.InvalidID {
		t.Fatalf("no leaf holds %q", key)
	}
	return leaf
}

// TestFetchedImageNeverMovesCachedPageBackwards is the lost update a late
// install used to cause, as an exact schedule: a fetch of page P is held at
// the page server; a commit reads P by a request of its own, edits it and
// writes P′ into the cache; the held fetch is released and its owner installs
// what it got — P, the older image. The cache must keep P′.
//
// (The commit's fetch cannot share the held flight here because the test
// raises the floor in between. On a live primary the same ordering arises
// when a commit joins the flight and is first out of it: it has written P′
// before the owner gets round to installing P.)
func TestFetchedImageNeverMovesCachedPageBackwards(t *testing.T) {
	srv := newFakePageServer()
	log := engine.NewMemPipeline()
	srv.buildDatabase(t, log, 8)
	key := rowKey(3)
	leaf := srv.leafOf(t, key)

	// A fresh node over the same database: nothing cached.
	var floor atomic.Uint64
	floor.Store(1)
	f, _, _ := srv.remoteFile(t, 1024, func() page.LSN { return page.LSN(floor.Load()) })
	e, err := engine.Open(engine.Config{Pages: f, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	e.Clock().Publish(100) // what recoverVisibility does on a real node

	arrived := srv.hold(leaf)
	var stale *page.Page
	var staleErr error
	owner := make(chan struct{})
	go func() {
		defer close(owner)
		stale, staleErr = f.Read(leaf)
	}()
	var rel release
	within(t, "the held fetch", func() { rel = <-arrived })

	floor.Add(1)
	tx := e.Begin()
	if err := tx.Put("t", key, []byte("committed")); err != nil {
		t.Fatal(err)
	}
	within(t, "the commit", func() {
		if err := tx.Commit(); err != nil {
			t.Errorf("commit: %v", err)
		}
	})
	committed, ok := cachedLSN(f.Cache(), leaf)
	if !ok {
		t.Fatal("the commit did not leave its page in the cache")
	}

	close(rel)
	within(t, "the held fetch's owner", func() { <-owner })
	if staleErr != nil || !stale.LSN.Before(committed) {
		t.Fatalf("the held reader got %+v %v, want the image from before the commit", stale, staleErr)
	}

	if pg, err := f.Read(leaf); err != nil || pg.LSN != committed {
		t.Fatalf("after the late install the page reads at LSN %d (%v), want the committed %d", pg.LSN, err, committed)
	}
	got, found, err := e.BeginRO().Get("t", key)
	if err != nil || !found || string(got) != "committed" {
		t.Fatalf("row after the late install: %q %v %v, want the committed value", got, found, err)
	}

	// The same rule covers a version that has left the cache altogether: the
	// cache's eviction record remembers it, and an older image may not take
	// its place. In a one-page cache, a second write pushes the first out.
	small, _, _ := srv.remoteFile(t, 1, nil)
	leafPage := func(id page.ID, lsn page.LSN) *page.Page {
		return &page.Page{ID: id, LSN: lsn, Type: page.TypeLeaf, Data: btree.EmptyNodePayload()}
	}
	if err := small.Write(leafPage(900, 50)); err != nil {
		t.Fatal(err)
	}
	if err := small.Write(leafPage(901, 51)); err != nil {
		t.Fatal(err)
	}
	if small.Cache().Contains(900) || small.minLSN(900) != 50 {
		t.Fatalf("page 900 after the write that evicts it: cached %v, minimum LSN %d; want gone, 50",
			small.Cache().Contains(900), small.minLSN(900))
	}
	older := leafPage(900, 40)
	reg, _ := small.register(900)
	if pg, err := small.install(reg, older); err != nil || pg != older {
		t.Fatalf("install of a superseded image: %+v %v, want it handed back", pg, err)
	}
	if small.Cache().Contains(900) {
		t.Fatal("an image older than the page's evicted version was cached")
	}
	reg, _ = small.register(900)
	if _, err := small.install(reg, leafPage(900, 50)); err != nil || !small.Cache().Contains(900) {
		t.Fatalf("the evicted version itself was not cached: %v", err)
	}
}

// TestCommitWarmsWriteSetTogether: an 8-row commit whose leaves are all
// remote has them in flight together — the server answers nothing until
// eight distinct pages wait — and a pre-read that fails changes nothing about
// the commit.
func TestCommitWarmsWriteSetTogether(t *testing.T) {
	srv := newFakePageServer()
	log := engine.NewMemPipeline()
	srv.buildDatabase(t, log, 600) // dozens of leaves
	var keys [][]byte
	leaves := map[page.ID]bool{}
	for i := 0; i < 600 && len(keys) < 8; i++ {
		if leaf := srv.leafOf(t, rowKey(i)); !leaves[leaf] {
			leaves[leaf] = true
			keys = append(keys, rowKey(i))
		}
	}
	if len(keys) < 8 {
		t.Fatalf("only %d leaves", len(keys))
	}

	open := func() (*engine.Engine, *remotePageFile) {
		f, _, _ := srv.remoteFile(t, 1024, nil)
		e, err := engine.Open(engine.Config{Pages: f, Log: log})
		if err != nil {
			t.Fatal(err)
		}
		e.Clock().Publish(1000) // what recoverVisibility does on a real node
		// Everything but the leaves is hot on a real node: the catalog,
		// the tree's upper levels, the version store's append page.
		srv.store.Range(func(pg *page.Page) bool {
			if !leaves[pg.ID] {
				if _, err := f.Read(pg.ID); err != nil {
					t.Errorf("warming page %d: %v", pg.ID, err)
				}
			}
			return true
		})
		return e, f
	}
	commit := func(e *engine.Engine, value string, keys ...[]byte) error {
		tx := e.Begin()
		for _, k := range keys {
			if err := tx.Put("t", k, []byte(value)); err != nil {
				t.Fatal(err)
			}
		}
		var err error
		within(t, "the 8-row commit (leaves fetched one by one?)", func() { err = tx.Commit() })
		return err
	}

	e, f := open()
	srv.armBarrier(len(keys))
	if err := commit(e, "together", keys...); err != nil {
		t.Fatalf("commit: %v", err)
	}
	for leaf := range leaves {
		if n := srv.seen(leaf); n != 1 {
			t.Errorf("leaf %d requested %d times, want once", leaf, n)
		}
		if !f.Cache().Contains(leaf) {
			t.Errorf("leaf %d not cached after the commit", leaf)
		}
	}

	// A pre-read that fails: the first request for a leaf — the pre-read's —
	// is answered with an error; the commit's own read under the latch asks
	// again and the commit succeeds as if nothing had happened. (One row, so
	// that the request count is exact: its pre-read is a plain descent.)
	e, f = open()
	leaf := srv.leafOf(t, keys[0])
	before := srv.seen(leaf)
	arrived := srv.hold(leaf)
	go func() { (<-arrived) <- errors.New("page server hiccup") }()
	if err := commit(e, "after-hiccup", keys[0]); err != nil {
		t.Fatalf("commit whose pre-read failed: %v", err)
	}
	if n := srv.seen(leaf) - before; n != 2 {
		t.Fatalf("leaf %d requested %d times, want 2: the failed pre-read and the commit's read", leaf, n)
	}
	if got, found, err := e.BeginRO().Get("t", keys[0]); err != nil || !found || string(got) != "after-hiccup" {
		t.Fatalf("row = %q %v %v after a commit whose pre-read failed", got, found, err)
	}
	f.Close()

	// With the page server down for good the commit fails as it always did:
	// with the read error, before it has touched anything.
	e, _ = open()
	srv.mu.Lock()
	srv.failing = errors.New("page server down")
	srv.mu.Unlock()
	if err := commit(e, "never", keys...); err == nil {
		t.Fatal("commit succeeded without its pages")
	}
	srv.mu.Lock()
	srv.failing = nil
	srv.mu.Unlock()
	if failed, cause := e.Failed(); failed {
		t.Fatalf("a commit that could not read its pages poisoned the engine: %v", cause)
	}
	if err := commit(e, "after", keys...); err != nil {
		t.Fatalf("commit after the page server came back: %v", err)
	}
	got, found, err := e.BeginRO().Get("t", keys[0])
	if err != nil || !found || string(got) != "after" {
		t.Fatalf("row = %q %v %v, want the last commit's value", got, found, err)
	}
}

// TestCommitLeavesItsWriteSetProtected: the leaves of an 8-row commit are
// parked in the cache's ahead area, hinted and unread, when the commit
// begins. Its pre-read takes them from there — every hint meets its reader,
// none is displaced, none is fetched again — and under commitMu they are read
// once more and written: referenced twice, they stay where they are while a
// pass of cold pages twice the memory tier's size goes through it.
func TestCommitLeavesItsWriteSetProtected(t *testing.T) {
	const memPages = 64
	srv := newFakePageServer()
	log := engine.NewMemPipeline()
	srv.buildDatabase(t, log, 600)
	var keys [][]byte
	var leaves []page.ID
	for i := 0; i < 600 && len(keys) < 8; i++ {
		if leaf := srv.leafOf(t, rowKey(i)); !slices.Contains(leaves, leaf) {
			leaves = append(leaves, leaf)
			keys = append(keys, rowKey(i))
		}
	}
	var cold []page.ID
	for id := page.ID(100000); id < 100000+2*memPages; id++ {
		_ = srv.store.Write(&page.Page{ID: id, LSN: 5, Type: page.TypeLeaf, Data: btree.EmptyNodePayload()})
		cold = append(cold, id)
	}

	f, reg, _ := srv.remoteFile(t, memPages, nil)
	e, err := engine.Open(engine.Config{Pages: f, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	e.Clock().Publish(1000) // what recoverVisibility does on a real node
	f.Prefetch(leaves)
	within(t, "the hinted leaves to land", func() {
		for reg.Counter("compute.rbpex.ahead.parked").Value() != uint64(len(leaves)) {
			time.Sleep(50 * time.Microsecond) // deadline-bounded poll for the background installs
		}
	})

	tx := e.Begin()
	for _, k := range keys {
		if err := tx.Put("t", k, []byte("protected")); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	joined, displaced := reg.Counter("compute.readahead.joined").Value(), reg.Counter("compute.rbpex.ahead.displaced").Value()
	if read := reg.Counter("compute.rbpex.ahead.read").Value(); joined != uint64(len(leaves)) || read != joined || displaced != 0 {
		t.Fatalf("joined %d, read in the ahead area %d, displaced %d; want each of the %d parked leaves read once", joined, read, displaced, len(leaves))
	}

	for _, id := range cold {
		if _, err := f.Read(id); err != nil {
			t.Fatal(err)
		}
	}
	f.Cache().ResetStats()
	for _, leaf := range leaves {
		if _, err := f.Read(leaf); err != nil {
			t.Fatal(err)
		}
		if n := srv.seen(leaf); n != 1 {
			t.Errorf("leaf %d requested %d times; a pass of cold pages pushed it out", leaf, n)
		}
	}
	if mem, _, misses := f.Cache().Stats(); mem != int64(len(leaves)) || misses != 0 {
		t.Fatalf("the write set after %d cold pages: %d memory hits, %d misses; want %d and 0", len(cold), mem, misses, len(leaves))
	}
}

// TestSecondaryAppliedBeforeVisible feeds a secondary one pull of two blocks
// and stops its apply thread inside the second, after the first block's
// commit has gone through the cursor. Nothing of the pull may show at that
// instant: the visible timestamp and AppliedLSN stay at the pull's start, so
// no snapshot reads a commit at or above the watermark. Publishing a block's
// commits at the block's end showed the first block's commit before the
// pull's pages were installed; advancing the watermark once per pull after
// publishing record by record let a snapshot read ahead of the watermark —
// the chaos oracle's "read from the future".
func TestSecondaryAppliedBeforeVisible(t *testing.T) {
	srv := newFakePageServer()
	srv.buildDatabase(t, engine.NewMemPipeline(), 4)

	// Block 1: a commit (timestamp 101) with no page operation before it.
	// Block 2: a page operation on page q, where stallAt stops the apply
	// thread, then a commit (timestamp 102).
	const start, q = page.LSN(1000), page.ID(5000)
	bld := wal.NewBuilder(start, page.Partitioning{})
	bld.Append(&wal.Record{Txn: 7, Kind: wal.KindNoop})
	commit1 := bld.Append(wal.NewCommit(7, 101))
	b1 := bld.Flush()
	bld.Append(&wal.Record{Txn: 8, Kind: wal.KindCellPut, Page: q, PageType: page.TypeLeaf,
		Key: []byte("k"), Value: []byte("v")})
	commit2 := bld.Append(wal.NewCommit(8, 102))
	b2 := bld.Flush()
	feed := append(b1.Encode(), b2.Encode()...)

	serve := make(chan struct{})
	net := rbio.NewInstantNetwork()
	net.Serve("ps", srv.handler())
	net.Serve("xlog", xlogOnce(start, b2.End, feed, serve))
	sel := rbio.NewSelector(rbio.NewClient(net.Dial("ps")))
	ssd, meta := simdisk.New(simdisk.Instant), simdisk.New(simdisk.Instant)
	reg := obs.NewRegistry()
	blockedPuts := reg.Counter("compute.rbpex.writebehind.blocked_puts")
	sec, err := NewSecondary(SecondaryConfig{
		Name:          "sec",
		XLOG:          rbio.NewClient(net.Dial("xlog")),
		Resolve:       func(page.ID) (*rbio.Selector, error) { return sel, nil },
		StartLSN:      start,
		StartTS:       100,
		CacheMemPages: 1, CacheSSDPages: 64, CacheSSD: ssd, CacheMeta: meta,
		Obs: obs.Plane{Metrics: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sec.Stop()
	clock := sec.Engine.Clock()
	release := stallAt(t, sec.pages.Cache(), ssd, meta, q)
	defer release()

	close(serve)
	until(t, "the apply thread to stop at block 2's page operation", func() bool {
		return blockedPuts.Value() == 1
	})
	if vis, applied := clock.Visible(), sec.AppliedLSN(); vis != 100 || applied != start {
		t.Fatalf("mid-pull: visible %d, applied %d; want 100 and %d, the pull's start, with block 1's commit (LSN %d) past the cursor",
			vis, applied, start, commit1)
	}
	release()

	if !sec.WaitApplied(b2.End, hangGuard) {
		t.Fatalf("applied = %d, want %d", sec.AppliedLSN(), b2.End)
	}
	// Visible is published after the applied watermark and before
	// WaitApplied's own.
	if vis := clock.Visible(); vis != 102 || !sec.AppliedLSN().After(commit2) {
		t.Fatalf("WaitApplied(%d) returned with visible %d, applied %d; want 102, past LSN %d", b2.End, vis, sec.AppliedLSN(), commit2)
	}
}

// TestSecondaryWaitAppliedMeansVisible stops the apply thread between a
// block's applied watermark and the publish of its commit timestamp. At that
// instant AppliedLSN covers the block — a snapshot must never show a commit at
// or above it — but a caller of WaitApplied must not be let through: the
// snapshot it is about to begin would miss the block's transaction.
func TestSecondaryWaitAppliedMeansVisible(t *testing.T) {
	srv := newFakePageServer()
	srv.buildDatabase(t, engine.NewMemPipeline(), 4)

	const start = page.LSN(1000)
	bld := wal.NewBuilder(start, page.Partitioning{})
	bld.Append(&wal.Record{Txn: 8, Kind: wal.KindCellPut, Page: 2, PageType: page.TypeLeaf,
		Key: []byte("k"), Value: []byte("v")})
	bld.Append(wal.NewCommit(8, 102))
	b := bld.Flush()

	serve := make(chan struct{})
	net := rbio.NewInstantNetwork()
	net.Serve("ps", srv.handler())
	net.Serve("xlog", xlogOnce(start, b.End, b.Encode(), serve))
	sel := rbio.NewSelector(rbio.NewClient(net.Dial("ps")))
	sec, err := NewSecondary(SecondaryConfig{
		Name:     "sec",
		XLOG:     rbio.NewClient(net.Dial("xlog")),
		Resolve:  func(page.ID) (*rbio.Selector, error) { return sel, nil },
		StartLSN: start,
		StartTS:  100,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sec.Stop()
	clock := sec.Engine.Clock()

	reached, release := make(chan struct{}), make(chan struct{})
	sec.holdBeforePublish = func() {
		close(reached)
		<-release
	}
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	close(serve)
	within(t, "the apply thread to reach the publish", func() { <-reached })

	if applied, vis := sec.AppliedLSN(), clock.Visible(); applied != b.End || vis != 100 {
		t.Fatalf("held before publish: applied %d, visible %d; want %d and 100", applied, vis, b.End)
	}
	if sec.WaitApplied(b.End, time.Millisecond) {
		t.Fatalf("WaitApplied(%d) let a caller through with visible %d: its snapshot misses the commit at 102", b.End, clock.Visible())
	}
	close(release)
	if !sec.WaitApplied(b.End, hangGuard) {
		t.Fatalf("WaitApplied(%d) never returned", b.End)
	}
	if vis := clock.Visible(); vis != 102 {
		t.Fatalf("WaitApplied(%d) returned with visible %d, want 102", b.End, vis)
	}
}

// TestSecondaryStopWakesWaitApplied: a caller parked in WaitApplied behind
// log that never comes returns false as soon as Stop drops the node's rung,
// not when its own timeout passes.
func TestSecondaryStopWakesWaitApplied(t *testing.T) {
	srv := newFakePageServer()
	srv.buildDatabase(t, engine.NewMemPipeline(), 4)
	const start = page.LSN(1000)
	net := rbio.NewInstantNetwork()
	net.Serve("ps", srv.handler())
	net.Serve("xlog", xlogOnce(start, start, nil, make(chan struct{}))) // never answers
	sel := rbio.NewSelector(rbio.NewClient(net.Dial("ps")))
	sec, err := NewSecondary(SecondaryConfig{
		Name:     "sec",
		XLOG:     rbio.NewClient(net.Dial("xlog")),
		Resolve:  func(page.ID) (*rbio.Selector, error) { return sel, nil },
		StartLSN: start,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sec.Stop()
	done := make(chan bool, 1)
	go func() { done <- sec.WaitApplied(start+100, time.Hour) }()
	within(t, "WaitApplied to park", func() {
		buf := make([]byte, 1<<20)
		for {
			n := runtime.Stack(buf, true)
			for _, g := range bytes.Split(buf[:n], []byte("\n\n")) {
				if bytes.Contains(g, []byte("sync.(*Cond).Wait")) && bytes.Contains(g, []byte("(*Secondary).WaitApplied")) {
					return
				}
			}
			runtime.Gosched()
		}
	})
	sec.Stop()
	within(t, "WaitApplied to return across Stop", func() {
		if <-done {
			t.Error("WaitApplied reported log applied that never came")
		}
	})
}
