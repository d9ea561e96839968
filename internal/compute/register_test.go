package compute

import (
	"context"
	"errors"
	"testing"

	"socrates/internal/btree"
	"socrates/internal/page"
	"socrates/internal/wal"
)

// The join rule of the §4.5 registration (DESIGN §12.3), step by step on the
// fake page server. A test that needs a reader to have joined registers it
// itself — register is where the join is decided — and runs the rest of its
// miss (fetch) on a goroutine.

// leafAt is page 3 as a page server holds it at lsn.
func leafAt(lsn page.LSN) *page.Page {
	return &page.Page{ID: 3, LSN: lsn, Type: page.TypeLeaf, Data: btree.EmptyNodePayload()}
}

// readOn runs f.Read(3) on a goroutine; the channel yields its result.
func readOn(f *remotePageFile) <-chan readResult {
	out := make(chan readResult, 1)
	go func() {
		pg, err := f.Read(3)
		out <- readResult{pg, err}
	}()
	return out
}

// joinOn registers a reader of page 3, which must join the registration in
// flight, and runs its fetch on a goroutine under ctx.
func joinOn(t *testing.T, ctx context.Context, f *remotePageFile) <-chan readResult {
	t.Helper()
	reg, owner := f.register(3)
	if reg == nil || owner {
		t.Fatalf("a reader at the owner's LSN did not join its registration (reg %v, owner %v)", reg, owner)
	}
	out := make(chan readResult, 1)
	go func() {
		pg, err := f.fetch(ctx, 3, reg, false)
		out <- readResult{pg, err}
	}()
	return out
}

type readResult struct {
	pg  *page.Page
	err error
}

// TestRegistrationJoinerTakesOwnersPage: readers whose minimum LSN is at or
// below the owner's join its registration. Each takes the owner's page, with
// the redo queued during the flight applied, and the page is requested once.
func TestRegistrationJoinerTakesOwnersPage(t *testing.T) {
	srv := newFakePageServer()
	_ = srv.store.Write(leafAt(10))
	f, reg, _ := srv.remoteFile(t, 1, nil)

	arrived := srv.hold(3)
	owner := readOn(f)
	var rel release
	within(t, "the owner's GetPage", func() { rel = <-arrived })
	if !f.QueueIfPending(&wal.Record{LSN: 11, Kind: wal.KindCellPut, Page: 3, Key: []byte("k"), Value: []byte("v")}) {
		t.Fatal("redo for a page in flight was not queued")
	}
	const joiners = 4
	var joined [joiners]<-chan readResult
	for i := range joined {
		joined[i] = joinOn(t, context.Background(), f)
	}
	close(rel)

	var own readResult
	within(t, "the owner's read", func() { own = <-owner })
	if own.err != nil || own.pg.LSN != 11 {
		t.Fatalf("owner: %+v %v, want the page at LSN 11 (queued redo applied)", own.pg, own.err)
	}
	for i, ch := range joined {
		var r readResult
		within(t, "a joiner's read", func() { r = <-ch })
		if r.err != nil || r.pg.LSN != 11 {
			t.Fatalf("joiner %d: %+v %v, want the owner's page at LSN 11", i, r.pg, r.err)
		}
		if v, found, err := btree.LookupCell(r.pg, []byte("k")); err != nil || !found || string(v) != "v" {
			t.Fatalf("joiner %d's page lacks the queued cell: %q %v %v", i, v, found, err)
		}
	}
	if srv.seen(3) != 1 || f.Fetches() != 1 {
		t.Fatalf("page requested %d times, Fetches() = %d; want one request", srv.seen(3), f.Fetches())
	}
	if hits, misses := reg.Counter("netmux.coalesce.hits").Value(), reg.Counter("netmux.coalesce.misses").Value(); hits != joiners || misses != 1 {
		t.Fatalf("hits %d misses %d, want %d and 1", hits, misses, joiners)
	}
	if lsn, ok := cachedLSN(f.Cache(), 3); !ok || lsn != 11 {
		t.Fatalf("cached LSN = %d %v, want 11", lsn, ok)
	}
}

// TestRegistrationNewerReaderAsksForItself is the primary's case: while the
// owner's request is in the air, a commit writes the page at a newer LSN and
// the page is evicted again. A reader now needs that newer version, which the
// owner did not ask for: it sends its own request at its LSN, does not wait
// for the owner, and installs nothing — the cache is the owner's to fill.
func TestRegistrationNewerReaderAsksForItself(t *testing.T) {
	srv := newFakePageServer()
	_ = srv.store.Write(leafAt(10))
	f, reg, _ := srv.remoteFile(t, 1, nil)

	arrived := srv.hold(3)
	owner := readOn(f)
	var rel release
	within(t, "the owner's GetPage", func() { rel = <-arrived })
	f.mu.Lock()
	ownerReg := f.pending[3]
	f.mu.Unlock()

	_ = srv.store.Write(leafAt(20)) // the page server has applied the commit
	// The commit's version enters the one-page cache and the next write
	// pushes it out.
	if err := f.Write(leafAt(20)); err != nil {
		t.Fatal(err)
	}
	if err := f.Write(&page.Page{ID: 4, LSN: 21, Type: page.TypeLeaf, Data: btree.EmptyNodePayload()}); err != nil {
		t.Fatal(err)
	}
	var newer readResult
	within(t, "the newer reader (waiting for the owner?)", func() { newer = <-readOn(f) })
	if newer.err != nil || newer.pg.LSN != 20 {
		t.Fatalf("newer reader: %+v %v, want the page at LSN 20", newer.pg, newer.err)
	}
	f.mu.Lock()
	stillOwners := f.pending[3] == ownerReg
	f.mu.Unlock()
	if f.Cache().Contains(3) || !stillOwners || srv.seen(3) != 2 {
		t.Fatalf("after the newer read: cached %v, owner still registered %v, requests %d; want false, true, 2",
			f.Cache().Contains(3), stillOwners, srv.seen(3))
	}

	close(rel)
	var own readResult
	within(t, "the owner's read", func() { own = <-owner })
	if own.err != nil {
		t.Fatal(own.err)
	}
	if lsn, ok := cachedLSN(f.Cache(), 3); !ok || lsn != 20 {
		t.Fatalf("cached LSN = %d %v, want the evicted version 20", lsn, ok)
	}
	if hits, misses := reg.Counter("netmux.coalesce.hits").Value(), reg.Counter("netmux.coalesce.misses").Value(); hits != 0 || misses != 2 {
		t.Fatalf("hits %d misses %d, want 0 and 2", hits, misses)
	}
}

// TestRegistrationFailedOwnerLeavesJoinerToAskForItself: the owner of a
// registration fails, or is cancelled, with a reader joined to it. The reader
// does not inherit the owner's error: it asks for the page itself and gets it.
func TestRegistrationFailedOwnerLeavesJoinerToAskForItself(t *testing.T) {
	for _, c := range []struct {
		name string
		end  func(rel release, cancel context.CancelFunc)
	}{
		{"failed", func(rel release, _ context.CancelFunc) { rel <- errors.New("page server hiccup") }},
		{"cancelled", func(_ release, cancel context.CancelFunc) { cancel() }},
	} {
		t.Run(c.name, func(t *testing.T) {
			srv := newFakePageServer()
			_ = srv.store.Write(leafAt(10))
			f, _, _ := srv.remoteFile(t, 16, nil)

			arrived := srv.hold(3)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			owner := make(chan error, 1)
			go func() {
				_, err := f.ReadContext(ctx, 3)
				owner <- err
			}()
			var rel release
			within(t, "the owner's GetPage", func() { rel = <-arrived })
			joined := joinOn(t, context.Background(), f)
			c.end(rel, cancel)

			within(t, "the owner's read", func() {
				if err := <-owner; err == nil {
					t.Error("the owner's read succeeded")
				}
			})
			var r readResult
			within(t, "the joiner's read", func() { r = <-joined })
			if r.err != nil || r.pg.LSN != 10 {
				t.Fatalf("joiner of a %s owner: %+v %v, want the page at LSN 10", c.name, r.pg, r.err)
			}
			if srv.seen(3) != 2 || f.Fetches() != 2 {
				t.Fatalf("page requested %d times, Fetches() = %d; want the owner's and the joiner's", srv.seen(3), f.Fetches())
			}
		})
	}
}

// TestRegistrationJoinerCtxEndsOwnerUnaffected: a joiner whose ctx ends stops
// waiting with ctx's error; the owner's fetch goes on, installs the page and
// ends the registration.
func TestRegistrationJoinerCtxEndsOwnerUnaffected(t *testing.T) {
	srv := newFakePageServer()
	_ = srv.store.Write(leafAt(10))
	f, _, _ := srv.remoteFile(t, 16, nil)

	arrived := srv.hold(3)
	owner := readOn(f)
	var rel release
	within(t, "the owner's GetPage", func() { rel = <-arrived })
	ctx, cancel := context.WithCancel(context.Background())
	joined := joinOn(t, ctx, f)
	cancel()
	var r readResult
	within(t, "the cancelled joiner", func() { r = <-joined })
	if !errors.Is(r.err, context.Canceled) {
		t.Fatalf("cancelled joiner: %+v %v, want context.Canceled", r.pg, r.err)
	}

	close(rel)
	var own readResult
	within(t, "the owner's read", func() { own = <-owner })
	if own.err != nil || own.pg.LSN != 10 {
		t.Fatalf("owner: %+v %v", own.pg, own.err)
	}
	if !f.Cache().Contains(3) || f.QueueIfPending(&wal.Record{LSN: 11, Kind: wal.KindCellPut, Page: 3, Key: []byte("k")}) {
		t.Fatal("the owner did not install its page and end its registration")
	}
	if srv.seen(3) != 1 {
		t.Fatalf("page requested %d times, want the owner's one", srv.seen(3))
	}
}
