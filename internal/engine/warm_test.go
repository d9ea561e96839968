package engine

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"socrates/internal/btree"
	"socrates/internal/fcb"
	"socrates/internal/page"
	"socrates/internal/testutil"
)

// simRemote is a page file that behaves like a compute node's, without the
// network: the MemFile underneath plays the page servers, a Read of a page
// that is not in its cache is a remote fetch, and Prefetch starts fetches in
// the background. For every fetch it starts it records whether the engine's
// commit latch was held at that moment.
type simRemote struct {
	*fcb.MemFile
	e *Engine // whose latch to watch; set once the engine exists

	mu       sync.Mutex
	cached   map[page.ID]bool
	inflight map[page.ID]chan struct{}
	fetches  []simFetch
	// barrier: no fetch completes until this many are in flight together.
	barrier int
	open    chan struct{}
	// failing: how many more fetches of a page fail. imageOnce: what the
	// next Read that fetches a page returns instead of the page; a prefetch
	// leaves it for that Read and caches nothing.
	failing   map[page.ID]int
	imageOnce map[page.ID]*page.Page
}

var errPageServer = errors.New("page server hiccup")

type simFetch struct {
	id         page.ID
	underLatch bool
}

func newSimRemote() *simRemote {
	return &simRemote{
		MemFile:   fcb.NewMemFile(),
		cached:    map[page.ID]bool{},
		inflight:  map[page.ID]chan struct{}{},
		failing:   map[page.ID]int{},
		imageOnce: map[page.ID]*page.Page{},
	}
}

func (s *simRemote) Write(pg *page.Page) error {
	s.mu.Lock()
	s.cached[pg.ID] = true
	s.mu.Unlock()
	return s.MemFile.Write(pg)
}

func (s *simRemote) Read(id page.ID) (*page.Page, error) {
	s.mu.Lock()
	if s.cached[id] {
		s.mu.Unlock()
		return s.MemFile.Read(id)
	}
	return s.fetch(id) // unlocks
}

func (s *simRemote) Prefetch(ids []page.ID) {
	for _, id := range ids {
		s.mu.Lock()
		if s.cached[id] || s.inflight[id] != nil {
			s.mu.Unlock()
			continue
		}
		// Register here, like the real page file: the Read that follows
		// the hint must find the fetch already under way.
		done := s.startLocked(id)
		s.mu.Unlock()
		go func(id page.ID) { _, _ = s.finish(id, done, false) }(id)
	}
}

// fetch joins the page's fetch or starts one; it is entered with s.mu held.
func (s *simRemote) fetch(id page.ID) (*page.Page, error) {
	if done, ok := s.inflight[id]; ok {
		s.mu.Unlock()
		<-done
		return s.Read(id)
	}
	done := s.startLocked(id)
	s.mu.Unlock()
	return s.finish(id, done, true)
}

func (s *simRemote) startLocked(id page.ID) chan struct{} {
	held := false
	if s.e != nil {
		if held = !s.e.commitMu.TryLock(); !held {
			s.e.commitMu.Unlock()
		}
	}
	s.fetches = append(s.fetches, simFetch{id: id, underLatch: held})
	done := make(chan struct{})
	s.inflight[id] = done
	if s.barrier > 0 && len(s.inflight) >= s.barrier {
		close(s.open)
		s.barrier = 0
	}
	return done
}

func (s *simRemote) finish(id page.ID, done chan struct{}, read bool) (*page.Page, error) {
	s.mu.Lock()
	open := s.open
	s.mu.Unlock()
	if open != nil {
		<-open
	}
	s.mu.Lock()
	var err error
	if s.failing[id] > 0 {
		s.failing[id]--
		err = errPageServer
	}
	image := s.imageOnce[id]
	if read {
		delete(s.imageOnce, id)
	}
	s.cached[id] = err == nil && image == nil
	delete(s.inflight, id)
	s.mu.Unlock()
	close(done)
	if err != nil || read && image != nil {
		return image, err
	}
	return s.MemFile.Read(id)
}

func (s *simRemote) evict(ids ...page.ID) {
	s.mu.Lock()
	for _, id := range ids {
		delete(s.cached, id)
	}
	s.fetches = nil
	s.mu.Unlock()
}

func (s *simRemote) armBarrier(n int) {
	s.mu.Lock()
	s.barrier, s.open = n, make(chan struct{})
	s.mu.Unlock()
}

func (s *simRemote) fetched() []simFetch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]simFetch(nil), s.fetches...)
}

func warmKey(i int) []byte { return []byte(fmt.Sprintf("row-%05d", i)) }

// newWarmEngine builds a table of dozens of leaves over a simRemote and
// returns keys on eight different leaves, with those leaves.
func newWarmEngine(t *testing.T) (*Engine, *simRemote, [][]byte, []page.ID) {
	t.Helper()
	sim := newSimRemote()
	e, err := Create(Config{Pages: sim, Log: NewMemPipeline()})
	if err != nil {
		t.Fatal(err)
	}
	sim.e = e
	if err := e.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	pad := string(make([]byte, 300))
	for round := 0; round < 2; round++ { // the second round starts the version store
		tx := e.Begin()
		for i := 0; i < 600; i++ {
			if err := tx.Put("t", warmKey(i), []byte(fmt.Sprintf("v%d%s", round, pad))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	var keys [][]byte
	var leaves []page.ID
	seen := map[page.ID]bool{}
	for i := 0; i < 600 && len(keys) < 8; i++ {
		sim.Range(func(pg *page.Page) bool {
			if pg.Type != page.TypeLeaf {
				return true
			}
			if _, found, _ := btree.LookupCell(pg, warmKey(i)); found && !seen[pg.ID] {
				seen[pg.ID] = true
				keys = append(keys, warmKey(i))
				leaves = append(leaves, pg.ID)
			}
			return true
		})
	}
	if len(keys) < 8 {
		t.Fatalf("only %d leaves", len(keys))
	}
	return e, sim, keys, leaves
}

func commitRows(t *testing.T, e *Engine, keys [][]byte, value string) error {
	t.Helper()
	tx := e.Begin()
	for _, k := range keys {
		if err := tx.Put("t", k, []byte(value)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- tx.Commit() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second): // a hang guard, not a measurement
		t.Fatal("commit still waiting after 10s: its pages are not in flight together")
		return nil
	}
}

func rowIs(t *testing.T, e *Engine, key []byte, want string) {
	t.Helper()
	got, found, err := e.BeginRO().Get("t", key)
	if err != nil || !found || string(got) != want {
		t.Fatalf("row %q = %q %v %v, want %q", key, got, found, err, want)
	}
}

// TestCommitFetchesBeforeTheLatch: the leaves of an 8-row write set are all
// in flight together — the page file completes no fetch until eight are —
// and every remote fetch the commit causes starts before the latch is taken.
// Under the latch validate and apply find their pages cached.
func TestCommitFetchesBeforeTheLatch(t *testing.T) {
	e, sim, keys, leaves := newWarmEngine(t)
	check := func(what string, want []page.ID) {
		t.Helper()
		fetches := sim.fetched()
		got := map[page.ID]int{}
		for _, f := range fetches {
			got[f.id]++
			if f.underLatch {
				t.Errorf("%s: the fetch of page %d started under the commit latch", what, f.id)
			}
		}
		for _, id := range want {
			if got[id] != 1 {
				t.Errorf("%s: leaf %d fetched %d times, want once", what, id, got[id])
			}
		}
		if len(fetches) != len(want) {
			t.Errorf("%s: %d fetches for a write set of %d leaves: %+v", what, len(fetches), len(want), fetches)
		}
	}

	sim.evict(leaves...)
	sim.armBarrier(len(leaves))
	if err := commitRows(t, e, keys, "eight"); err != nil {
		t.Fatal(err)
	}
	check("8-row commit", leaves)
	for _, k := range keys {
		rowIs(t, e, k, "eight")
	}

	// One row: nothing to overlap, but its miss still moves out of the latch.
	sim.evict(leaves[3])
	if err := commitRows(t, e, keys[3:4], "one"); err != nil {
		t.Fatal(err)
	}
	check("1-row commit", leaves[3:4])
	rowIs(t, e, keys[3], "one")
}

// TestCommitUnchangedByFailedWarm: the pre-read is a cache warmer and nothing
// more. When it fails — the page server errors, or the walk meets a page
// whose fences no longer cover the key, as after a racing split — Commit does
// what it would have done without it.
func TestCommitUnchangedByFailedWarm(t *testing.T) {
	e, sim, keys, leaves := newWarmEngine(t)
	set := func(fn func()) {
		sim.mu.Lock()
		fn()
		sim.mu.Unlock()
	}

	// The first fetch of a leaf fails; the commit's own read fetches again.
	sim.evict(leaves[0], leaves[1])
	set(func() { sim.failing[leaves[1]] = 1 })
	if err := commitRows(t, e, keys[:2], "after-error"); err != nil {
		t.Fatalf("commit after a failed pre-read: %v", err)
	}
	rowIs(t, e, keys[0], "after-error")
	rowIs(t, e, keys[1], "after-error")
	if n := len(sim.fetched()); n != 3 {
		t.Fatalf("%d fetches, want 3: two by the pre-read, one again under the latch", n)
	}

	// The first fetch of a leaf returns a page that does not cover the key
	// (here: another leaf's contents). The pre-read gives up with
	// ErrInconsistent; the commit reads the real page.
	other, err := sim.MemFile.Read(leaves[5])
	if err != nil {
		t.Fatal(err)
	}
	stray := &page.Page{ID: leaves[2], LSN: other.LSN, Type: other.Type, Data: other.Data}
	tree, err := e.tableTree("t")
	if err != nil {
		t.Fatal(err)
	}
	sim.evict(leaves[2])
	set(func() { sim.imageOnce[leaves[2]] = stray })
	if err := tree.Warm(keys[2:3]); !errors.Is(err, btree.ErrInconsistent) {
		t.Fatalf("Warm over a page that does not cover its key: %v, want ErrInconsistent", err)
	}
	set(func() { sim.imageOnce[leaves[2]] = stray })
	if err := commitRows(t, e, keys[2:3], "after-split"); err != nil {
		t.Fatalf("commit after a pre-read that met an inconsistent page: %v", err)
	}
	rowIs(t, e, keys[2], "after-split")

	// A commit that cannot read its pages at all fails as it always did:
	// with the read error, before anything is touched.
	sim.evict(leaves[4])
	set(func() { sim.failing[leaves[4]] = 1 << 20 })
	if err := commitRows(t, e, keys[4:5], "never"); !errors.Is(err, errPageServer) {
		t.Fatalf("commit without its page: %v, want the page server's error", err)
	}
	set(func() { sim.failing[leaves[4]] = 0 })
	if failed, cause := e.Failed(); failed {
		t.Fatalf("a commit that could not read its page poisoned the engine: %v", cause)
	}
	if err := commitRows(t, e, keys[4:5], "after-outage"); err != nil {
		t.Fatal(err)
	}
	rowIs(t, e, keys[4], "after-outage")
}

// hintingMemFile is a MemFile that takes hints and ignores them: the
// cheapest page file that makes the engine's trees read ahead.
type hintingMemFile struct{ *fcb.MemFile }

func (hintingMemFile) Prefetch([]page.ID) {}

// TestCommitWarmAllocs is the allocation contract of the pre-read on the
// commit that needs it least: one row, every page cached. Over a page file
// that takes hints the commit allocates exactly what it does over one that
// does not.
func TestCommitWarmAllocs(t *testing.T) {
	testutil.SkipIfRace(t)
	measure := func(pages fcb.PageFile) float64 {
		e, err := Create(Config{Pages: pages, Log: NewMemPipeline()})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.CreateTable("t"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ { // a root over leaves
			tx := e.Begin()
			_ = tx.Put("t", warmKey(i), make([]byte, 100))
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		value := make([]byte, 100)
		i := 0
		return testing.AllocsPerRun(500, func() {
			tx := e.Begin()
			if err := tx.Put("t", warmKey(i%2000), value); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			i += 37
		})
	}
	plain := measure(fcb.NewMemFile())
	hinting := measure(hintingMemFile{fcb.NewMemFile()})
	t.Logf("one-row commit: %.1f allocs/op plain, %.1f over a hinting page file", plain, hinting)
	if hinting > plain {
		t.Fatalf("one-row commit: %.1f allocs/op over a hinting page file, %.1f over a plain one", hinting, plain)
	}
}

// TestScanResumesAfterLastRow: a scan whose walk meets an inconsistent page —
// its third leaf is served once as a page whose range lies below the scan's
// — retries, and still hands fn each row exactly once, in key order, with
// the transaction's own inserts, updates and deletes merged in; also when fn
// stops the scan early, before or after the retry.
func TestScanResumesAfterLastRow(t *testing.T) {
	e, sim, keys, leaves := newWarmEngine(t)
	pad := string(make([]byte, 300))
	model := map[string]string{}
	for i := 0; i < 600; i++ {
		model[string(warmKey(i))] = "v1" + pad
	}
	tx := e.Begin()
	defer tx.Abort()
	put := func(k []byte, v string) {
		if err := tx.Put("t", k, []byte(v)); err != nil {
			t.Fatal(err)
		}
		model[string(k)] = v
	}
	del := func(k []byte) {
		if err := tx.Delete("t", k); err != nil {
			t.Fatal(err)
		}
		delete(model, string(k))
	}
	put(append(bytes.Clone(keys[1]), "-own"...), "inserted before the retry")
	put(keys[2], "updated before the retry")
	del(append(bytes.Clone(keys[2]), "-never"...)) // a delete of a row that never was
	del(keys[3])
	put(append(bytes.Clone(keys[4]), "-own"...), "inserted after the retry")
	put(keys[5], "updated after the retry")
	del(keys[6])
	put(warmKey(99999), "inserted past the last row")

	// The scan starts on the second leaf; the stray is the first leaf's
	// contents, so its fences do not cover where the scan stands.
	var inRange []string
	for k := range model {
		if k >= string(keys[1]) {
			inRange = append(inRange, k)
		}
	}
	sort.Strings(inRange)
	want := make([]string, len(inRange))
	for i, k := range inRange {
		want[i] = k + "=" + model[k]
	}
	first, err := sim.MemFile.Read(leaves[0])
	if err != nil {
		t.Fatal(err)
	}
	third := 0 // rows before the third leaf
	for third < len(want) && want[third] < string(keys[3]) {
		third++
	}
	for _, stop := range []int{0, third - 1, third + 3, len(want) - 1} {
		sim.evict(leaves[3])
		sim.mu.Lock()
		sim.imageOnce[leaves[3]] = &page.Page{ID: leaves[3], LSN: first.LSN, Type: first.Type, Data: first.Data}
		sim.mu.Unlock()
		var got []string
		err := tx.Scan("t", keys[1], nil, func(k, v []byte) bool {
			got = append(got, string(k)+"="+string(v))
			return len(got) != stop
		})
		if err != nil {
			t.Fatalf("stop %d: %v", stop, err)
		}
		n := len(want)
		if stop > 0 {
			n = stop
		}
		for i := 0; i < len(got) || i < n; i++ {
			if i >= len(got) || i >= n || got[i] != want[i] {
				t.Fatalf("stop %d: %d rows, want %d; they part at row %d", stop, len(got), n, i)
			}
		}
		sim.mu.Lock()
		served := sim.imageOnce[leaves[3]] == nil
		sim.mu.Unlock()
		if reached := stop == 0 || stop > third; reached && !served {
			t.Fatalf("stop %d: the scan never read the stray", stop)
		}
	}
}
