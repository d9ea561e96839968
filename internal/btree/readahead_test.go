package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"socrates/internal/page"
	"socrates/internal/testutil"
	"socrates/internal/wal"
)

// hintPager is a testPager that takes read-ahead hints and records, in
// order, every Read and every Prefetch the tree makes.
type hintPager struct {
	*testPager
	mu     sync.Mutex
	events []pagerEvent
}

// pagerEvent is one Read (hint false, one id) or one Prefetch.
type pagerEvent struct {
	hint bool
	ids  []page.ID
}

func (p *hintPager) Read(id page.ID) (*page.Page, error) {
	p.mu.Lock()
	p.events = append(p.events, pagerEvent{ids: []page.ID{id}})
	p.mu.Unlock()
	return p.testPager.Read(id)
}

func (p *hintPager) Prefetch(ids []page.ID) {
	p.mu.Lock()
	p.events = append(p.events, pagerEvent{hint: true, ids: append([]page.ID(nil), ids...)})
	p.mu.Unlock()
}

func (p *hintPager) take() []pagerEvent {
	p.mu.Lock()
	defer p.mu.Unlock()
	ev := p.events
	p.events = nil
	return ev
}

// randomTree builds a tree of random shape over pager: long keys keep the
// fan-out of internal nodes small, so a few hundred keys reach three levels.
// It returns the keys, sorted.
func randomTree(t *testing.T, r *rand.Rand, pager Pager) (*Tree, [][]byte) {
	t.Helper()
	tree, err := Create(pager, wal.NewMemLog(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var keys [][]byte
	for i, n := 0, 100+r.Intn(500); i < n; i++ {
		if r.Intn(3) == 0 {
			continue // gaps, so range bounds fall between keys too
		}
		k := append([]byte(fmt.Sprintf("%05d", i)), bytes.Repeat([]byte{'x'}, r.Intn(700))...)
		if err := tree.Put(1, k, bytes.Repeat([]byte{'v'}, r.Intn(300))); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	return tree, keys
}

// randomBound picks a scan bound: nil, one of the keys, or a key that falls
// between two of them.
func randomBound(r *rand.Rand, keys [][]byte) []byte {
	switch r.Intn(6) {
	case 0:
		return nil
	case 1:
		return []byte(fmt.Sprintf("%05d", r.Intn(700))) // a bare prefix sorts before its padded key
	default:
		return keys[r.Intn(len(keys))]
	}
}

// oracleNode reads a page the materializing way.
func oracleNode(t *testing.T, pager Pager, id page.ID) (*page.Page, *node) {
	t.Helper()
	pg, err := pager.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	n, err := decodeNode(pg.Data)
	if err != nil {
		t.Fatal(err)
	}
	return pg, n
}

// oracleChildren is what a scan of [lo, hi) reads below an internal node,
// worked out on the decoded node: the children whose key ranges intersect
// the scan range, in order.
func oracleChildren(t *testing.T, n *node, lo, hi []byte) []page.ID {
	t.Helper()
	var out []page.ID
	for i, c := range n.cells {
		if hi != nil && len(c.key) > 0 && bytes.Compare(c.key, hi) >= 0 {
			break
		}
		upper := n.hi
		if i+1 < len(n.cells) {
			upper = n.cells[i+1].key
		}
		if lo != nil && len(upper) > 0 && bytes.Compare(upper, lo) <= 0 {
			continue
		}
		id, err := decodeChild(c.value)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, id)
	}
	return out
}

// checkScanHints holds the recorded events of one scan of [lo, hi) against
// the read-ahead contract. full says the scan ran to its end; an
// early-terminated one may leave hinted pages unread.
func checkScanHints(t *testing.T, pager Pager, events []pagerEvent, lo, hi []byte, full bool) {
	t.Helper()
	// What each internal node the scan read may hint, and who is whose parent.
	parent := map[page.ID]page.ID{}
	mayHint := map[page.ID]bool{}
	for _, ev := range events {
		if ev.hint {
			continue
		}
		pg, n := oracleNode(t, pager, ev.ids[0])
		if pg.Type != page.TypeInternal {
			continue
		}
		children := oracleChildren(t, n, lo, hi)
		for i, c := range children {
			parent[c] = pg.ID
			if i > 0 { // the scan reads its first child itself
				mayHint[c] = true
			}
		}
	}
	hinted := map[page.ID]bool{}
	read := map[page.ID]bool{}
	ahead := map[page.ID]int{} // per internal node: children hinted and not read yet
	for _, ev := range events {
		for _, id := range ev.ids {
			if !ev.hint {
				if hinted[id] && !read[id] {
					ahead[parent[id]]--
				}
				read[id] = true
				// The window is counted from the page being read.
				if n := ahead[parent[id]]; n > ReadAhead {
					t.Fatalf("scan [%q, %q) reads page %d with %d of its siblings hinted ahead, limit %d",
						lo, hi, id, n, ReadAhead)
				}
				continue
			}
			if !mayHint[id] {
				t.Fatalf("scan [%q, %q) hinted page %d, which it has no reason to read", lo, hi, id)
			}
			if hinted[id] {
				t.Fatalf("scan [%q, %q) hinted page %d twice", lo, hi, id)
			}
			if read[id] {
				t.Fatalf("scan [%q, %q) hinted page %d after reading it", lo, hi, id)
			}
			hinted[id] = true
			ahead[parent[id]]++
			if _, n := oracleNode(t, pager, id); hi != nil && bytes.Compare(n.lo, hi) >= 0 {
				t.Fatalf("scan [%q, %q) hinted page %d, which starts at %q", lo, hi, id, n.lo)
			}
		}
	}
	if !full {
		return
	}
	for id := range mayHint {
		if !hinted[id] {
			t.Fatalf("scan [%q, %q) read page %d without hinting it", lo, hi, id)
		}
	}
	for id := range hinted {
		if !read[id] {
			t.Fatalf("scan [%q, %q) hinted page %d and never read it", lo, hi, id)
		}
	}
}

type row struct{ k, v string }

func collect(t *testing.T, tree *Tree, lo, hi []byte, limit int) []row {
	t.Helper()
	var rows []row
	err := tree.Scan(lo, hi, func(k, v []byte) bool {
		rows = append(rows, row{string(k), string(v)})
		return limit < 0 || len(rows) < limit
	})
	if err != nil {
		t.Fatalf("scan [%q, %q): %v", lo, hi, err)
	}
	return rows
}

// TestScanReadAheadProperty: over random trees and ranges, a scan through a
// hinting pager returns the rows a scan through a plain pager does, and its
// hints are exactly the in-range children it goes on to read — each once,
// before the read, never more than ReadAhead ahead, none at or beyond hi.
func TestScanReadAheadProperty(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	levels := map[int]int{}
	for trial := 0; trial < 24; trial++ {
		pager := &hintPager{testPager: newTestPager()}
		hinting, keys := randomTree(t, r, pager)
		plain := Open(pager.testPager, wal.NewMemLog(), hinting.Root())
		if plain.hint != nil || hinting.hint == nil {
			t.Fatal("the plain pager hints, or the hinting one does not")
		}
		levels[depth(t, pager, hinting.Root())]++
		for s := 0; s < 25; s++ {
			lo, hi := randomBound(r, keys), randomBound(r, keys)
			limit := -1
			if s%3 == 0 {
				limit = 1 + r.Intn(60)
			}
			want := collect(t, plain, lo, hi, limit)
			pager.take()
			got := collect(t, hinting, lo, hi, limit)
			events := pager.take()
			if len(got) != len(want) {
				t.Fatalf("scan [%q, %q): %d rows with read-ahead, %d without", lo, hi, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("scan [%q, %q): row %d differs with read-ahead", lo, hi, i)
				}
			}
			checkScanHints(t, pager.testPager, events, lo, hi, limit < 0 || len(got) < limit)
		}
	}
	if levels[3] == 0 {
		t.Fatalf("no three-level tree among the trials (levels: %v): nested read-ahead went untested", levels)
	}
}

func depth(t *testing.T, pager Pager, id page.ID) int {
	t.Helper()
	for d := 1; ; d++ {
		pg, n := oracleNode(t, pager, id)
		if pg.Type != page.TypeInternal {
			return d
		}
		var err error
		if id, err = decodeChild(n.cells[0].value); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScanReadAheadWindow pins the window on one wide node: ReadAhead hints
// before the first leaf is read, one more for each leaf finished, and a scan
// cut short leaves exactly ReadAhead pages hinted and unread.
func TestScanReadAheadWindow(t *testing.T) {
	pager := &hintPager{testPager: newTestPager()}
	tree, err := Create(pager, wal.NewMemLog(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		if err := tree.Put(1, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if d := depth(t, pager, tree.Root()); d != 2 {
		t.Fatalf("tree has %d levels, want a root over leaves", d)
	}
	pager.take()
	const leaves = 5
	pagesRead := 0
	var last page.ID
	err = tree.Scan(nil, nil, func(k, _ []byte) bool {
		// Stop on the first row of the sixth leaf.
		events := pager.events
		if id := events[len(events)-1].ids[0]; !events[len(events)-1].hint && id != last {
			last = id
			pagesRead++
		}
		return pagesRead <= leaves
	})
	if err != nil {
		t.Fatal(err)
	}
	events := pager.take()
	if !events[1].hint || len(events[1].ids) != ReadAhead {
		t.Fatalf("after the root, want one hint of %d pages, got %+v", ReadAhead, events[1])
	}
	hinted, unread := 0, map[page.ID]bool{}
	for _, ev := range events[1:] {
		for _, id := range ev.ids {
			if ev.hint {
				hinted++
				unread[id] = true
			} else {
				delete(unread, id)
			}
		}
		if ev.hint && hinted > ReadAhead && len(ev.ids) != 1 {
			t.Fatalf("the window slides by %d pages, want 1", len(ev.ids))
		}
	}
	if len(unread) != ReadAhead {
		t.Fatalf("a scan cut short left %d pages hinted and unread, want %d", len(unread), ReadAhead)
	}
	checkScanHints(t, pager.testPager, events, nil, nil, false)
}

// TestScanReadAheadRacesSplits runs hinting scans against a writer that
// keeps splitting nodes (as a secondary's reads race log apply). A scan may
// report ErrInconsistent; whatever it returns otherwise is sorted, in range
// and internally consistent. Under -race this also pins that the window
// pool and the forked cursor share nothing between scans.
func TestScanReadAheadRacesSplits(t *testing.T) {
	pager := &hintPager{testPager: newTestPager()}
	tree, err := Create(pager, wal.NewMemLog(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i += 2 {
		if err := tree.Put(1, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < 3; s++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				lo := key(r.Intn(3000))
				hi := key(r.Intn(3000))
				var prev []byte
				err := tree.Scan(lo, hi, func(k, v []byte) bool {
					if bytes.Compare(k, lo) < 0 || bytes.Compare(k, hi) >= 0 ||
						(prev != nil && bytes.Compare(prev, k) >= 0) {
						t.Errorf("scan [%q, %q) returned %q after %q", lo, hi, k, prev)
						return false
					}
					prev = append(prev[:0], k...)
					return true
				})
				if err != nil && !errors.Is(err, ErrInconsistent) {
					t.Errorf("scan [%q, %q): %v", lo, hi, err)
					return
				}
			}
		}(int64(s))
	}
	for i := 1; i < 3000; i += 2 {
		if err := tree.Put(1, key(i), val(i)); err != nil {
			t.Error(err)
			break
		}
		if i%64 == 1 {
			pager.take() // keep the recording from growing without bound
		}
	}
	close(done)
	wg.Wait()
}

// warmPaths is the oracle for Warm: the pages on the paths from the root to
// the leaves of keys, level by level, each page once, in key order.
func warmPaths(t *testing.T, pager Pager, root page.ID, keys [][]byte) [][]page.ID {
	t.Helper()
	var levels [][]page.ID
	at := make([]page.ID, len(keys)) // where each key's path stands
	for i := range at {
		at[i] = root
	}
	for {
		var level []page.ID
		internal := false
		for i, k := range keys {
			if len(level) == 0 || level[len(level)-1] != at[i] {
				level = append(level, at[i])
			}
			pg, n := oracleNode(t, pager, at[i])
			if pg.Type == page.TypeInternal {
				internal = true
				child, err := n.childFor(k)
				if err != nil {
					t.Fatal(err)
				}
				at[i] = child
			}
		}
		levels = append(levels, level)
		if !internal {
			return levels
		}
	}
}

// TestWarmReadsPathsLevelByLevel: Warm reads exactly the pages on the keys'
// paths, a level at a time, and hints a level's pages (at most ReadAhead at
// once) before it reads the first of them.
func TestWarmReadsPathsLevelByLevel(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 12; trial++ {
		pager := &hintPager{testPager: newTestPager()}
		tree, keys := randomTree(t, r, pager)
		var batch [][]byte
		for i := r.Intn(8); i < len(keys); i += 1 + r.Intn(len(keys)/10) {
			batch = append(batch, keys[i])
		}
		if len(batch) < 2 {
			continue
		}
		pager.take()
		if err := tree.Warm(batch); err != nil {
			t.Fatal(err)
		}
		events := pager.take()
		var reads []page.ID
		hinted := map[page.ID]bool{}
		for _, ev := range events {
			if ev.hint {
				if len(ev.ids) < 2 || len(ev.ids) > ReadAhead {
					t.Fatalf("Warm hinted %d pages at once", len(ev.ids))
				}
				for _, id := range ev.ids {
					hinted[id] = true
				}
				continue
			}
			reads = append(reads, ev.ids[0])
		}
		var want []page.ID
		for _, level := range warmPaths(t, pager.testPager, tree.Root(), batch) {
			want = append(want, level...)
			// A level of one page has nothing to overlap; every other page
			// is hinted, except the odd one a batch boundary leaves alone.
			for i, id := range level {
				alone := len(level) == 1 || (i == len(level)-1 && i%ReadAhead == 0)
				if hinted[id] == alone {
					t.Fatalf("level %v: page %d hinted = %v", level, id, hinted[id])
				}
			}
		}
		if fmt.Sprint(reads) != fmt.Sprint(want) {
			t.Fatalf("Warm read %v, want the paths level by level %v", reads, want)
		}
		// Hints come before the reads they are for.
		seen := map[page.ID]bool{}
		for _, ev := range events {
			for _, id := range ev.ids {
				if ev.hint && seen[id] {
					t.Fatalf("page %d hinted after it was read", id)
				}
				if !ev.hint {
					seen[id] = true
				}
			}
		}
	}
}

// TestWarmSmallCases: one key is a plain descent with no hints; no keys and
// a pager without Prefetch read nothing at all.
func TestWarmSmallCases(t *testing.T) {
	pager := &hintPager{testPager: newTestPager()}
	tree, keys := randomTree(t, rand.New(rand.NewSource(9)), pager)
	pager.take()
	if err := tree.Warm(nil); err != nil || len(pager.take()) != 0 {
		t.Fatalf("Warm of no keys: %v, or it read something", err)
	}
	if err := tree.Warm(keys[:1]); err != nil {
		t.Fatal(err)
	}
	events := pager.take()
	path := warmPaths(t, pager.testPager, tree.Root(), keys[:1])
	if len(events) != len(path) {
		t.Fatalf("Warm of one key: %d pager calls for a path of %d pages", len(events), len(path))
	}
	for i, ev := range events {
		if ev.hint || ev.ids[0] != path[i][0] {
			t.Fatalf("Warm of one key: call %d is %+v, want a read of page %d", i, ev, path[i][0])
		}
	}

	counting := &countingPager{Pager: pager.testPager}
	plain := Open(counting, wal.NewMemLog(), tree.Root())
	if err := plain.Warm(keys); err != nil || counting.reads != 0 {
		t.Fatalf("Warm over a pager without Prefetch: %v, %d reads", err, counting.reads)
	}
}

type countingPager struct {
	Pager
	reads int
}

func (p *countingPager) Read(id page.ID) (*page.Page, error) {
	p.reads++
	return p.Pager.Read(id)
}

// TestWarmReportsRacingSplit: Warm runs outside every latch, so it can meet
// a child that was split after its parent was read; it says so like any
// other traversal.
func TestWarmReportsRacingSplit(t *testing.T) {
	pager := &hintPager{testPager: newTestPager()}
	tree, err := Create(pager, wal.NewMemLog(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := tree.Put(1, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Shrink a leaf's hi fence under its parent, as TestFenceViolationDetected does.
	leaf, _, err := tree.leafFor(key(700))
	if err != nil {
		t.Fatal(err)
	}
	n, _ := decodeNode(leaf.Data)
	probe := n.cells[len(n.cells)-1].key
	n.hi = n.cells[len(n.cells)/2].key
	n.cells = n.cells[:len(n.cells)/2]
	data, _ := n.encode()
	_ = pager.Write(&page.Page{ID: leaf.ID, LSN: leaf.LSN, Type: leaf.Type, Data: data})

	if err := tree.Warm([][]byte{key(3), probe}); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("Warm across a split leaf: %v, want ErrInconsistent", err)
	}
	if err := tree.Warm([][]byte{probe}); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("Warm of one key across a split leaf: %v, want ErrInconsistent", err)
	}
}

// hintingSharedPager is sharedPager with a Prefetch that does nothing: the
// cheapest pager that makes a tree hint.
type hintingSharedPager struct{ sharedPager }

func (*hintingSharedPager) Prefetch([]page.ID) {}

// TestTreeScanAllocs is the allocation contract of read-ahead on a scan that
// needs none: with every page cached, a scan through a hinting pager
// allocates no more than one through a plain pager. The child window is
// pooled and the second cursor lives on the stack.
func TestTreeScanAllocs(t *testing.T) {
	testutil.SkipIfRace(t)
	plainTree, keys := allocTree(t)
	plainPager := plainTree.pager.(*sharedPager)
	hintingTree := Open(&hintingSharedPager{*plainPager}, &discardLog{}, plainTree.Root())
	if hintingTree.hint == nil {
		t.Fatal("the hinting pager does not hint")
	}
	measure := func(tree *Tree) float64 {
		i := 0
		return testing.AllocsPerRun(200, func() {
			rows := 0
			lo, hi := keys[i%4000], keys[i%4000+900] // a few dozen leaves
			if err := tree.Scan(lo, hi, func(_, _ []byte) bool { rows++; return true }); err != nil || rows != 900 {
				t.Fatalf("scan: %d rows, %v", rows, err)
			}
			i += 37
		})
	}
	plain, hinting := measure(plainTree), measure(hintingTree)
	t.Logf("Tree.Scan of 900 rows: %.1f allocs/op plain, %.1f hinting", plain, hinting)
	if hinting > plain {
		t.Fatalf("Tree.Scan: %.1f allocs/op through a hinting pager, %.1f through a plain one", hinting, plain)
	}
}
