package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"

	"socrates/internal/fcb"
	"socrates/internal/page"
	"socrates/internal/wal"
)

// testPager backs a tree with a MemFile plus a trivial allocator.
type testPager struct {
	*fcb.MemFile
	next atomic.Uint64
}

func newTestPager() *testPager {
	p := &testPager{MemFile: fcb.NewMemFile()}
	p.next.Store(1)
	return p
}

func (p *testPager) Allocate(t page.Type) (*page.Page, error) {
	id := page.ID(p.next.Add(1))
	return page.New(id, t), nil
}

func newTree(t *testing.T) (*Tree, *testPager, *wal.MemLog) {
	t.Helper()
	pager := newTestPager()
	log := wal.NewMemLog()
	tree, err := Create(pager, log, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tree, pager, log
}

func TestEmptyTree(t *testing.T) {
	tree, _, _ := newTree(t)
	_, found, err := tree.Get([]byte("missing"))
	if err != nil || found {
		t.Fatalf("get on empty: %v %v", found, err)
	}
	n, err := treeLen(tree)
	if err != nil || n != 0 {
		t.Fatalf("count = %d %v", n, err)
	}
}

func TestPutGetSingle(t *testing.T) {
	tree, _, _ := newTree(t)
	if err := tree.Put(1, []byte("key"), []byte("value")); err != nil {
		t.Fatal(err)
	}
	v, found, err := tree.Get([]byte("key"))
	if err != nil || !found || string(v) != "value" {
		t.Fatalf("get = %q %v %v", v, found, err)
	}
}

func TestPutOverwrites(t *testing.T) {
	tree, _, _ := newTree(t)
	_ = tree.Put(1, []byte("k"), []byte("v1"))
	_ = tree.Put(2, []byte("k"), []byte("v2"))
	v, _, _ := tree.Get([]byte("k"))
	if string(v) != "v2" {
		t.Fatalf("got %q", v)
	}
	if n, _ := treeLen(tree); n != 1 {
		t.Fatalf("count = %d", n)
	}
}

func TestValidation(t *testing.T) {
	tree, _, _ := newTree(t)
	if err := tree.Put(1, nil, []byte("v")); err == nil {
		t.Fatal("empty key accepted")
	}
	big := make([]byte, maxCell+1)
	if err := tree.Put(1, []byte("k"), big); !errors.Is(err, errTooLarge) {
		t.Fatalf("oversized entry: %v", err)
	}
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("value-%d-%s", i, bytes.Repeat([]byte{'x'}, 64))) }

func TestManyInsertsForceSplits(t *testing.T) {
	tree, pager, _ := newTree(t)
	const n = 2000
	for i := 0; i < n; i++ {
		if err := tree.Put(1, key(i), val(i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if allocated := pager.next.Load() - 1; allocated < 10 {
		t.Fatalf("only %d pages allocated; splits did not happen", allocated)
	}
	for i := 0; i < n; i++ {
		v, found, err := tree.Get(key(i))
		if err != nil || !found || !bytes.Equal(v, val(i)) {
			t.Fatalf("get %d = %q %v %v", i, v, found, err)
		}
	}
	if c, _ := treeLen(tree); c != n {
		t.Fatalf("count = %d, want %d", c, n)
	}
}

func TestRandomOrderInserts(t *testing.T) {
	tree, _, _ := newTree(t)
	r := rand.New(rand.NewSource(3))
	perm := r.Perm(1500)
	for _, i := range perm {
		if err := tree.Put(1, key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Scan must return sorted keys.
	var prev []byte
	count := 0
	err := tree.Scan(nil, nil, func(k, _ []byte) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("scan out of order: %q then %q", prev, k)
		}
		prev = append(prev[:0], k...)
		count++
		return true
	})
	if err != nil || count != 1500 {
		t.Fatalf("scan count = %d err = %v", count, err)
	}
}

func TestRangeScan(t *testing.T) {
	tree, _, _ := newTree(t)
	for i := 0; i < 500; i++ {
		_ = tree.Put(1, key(i), val(i))
	}
	var got []string
	err := tree.Scan(key(100), key(110), func(k, _ []byte) bool {
		got = append(got, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != string(key(100)) || got[9] != string(key(109)) {
		t.Fatalf("range scan = %v", got)
	}
}

func TestScanEarlyStop(t *testing.T) {
	tree, _, _ := newTree(t)
	for i := 0; i < 300; i++ {
		_ = tree.Put(1, key(i), val(i))
	}
	count := 0
	_ = tree.Scan(nil, nil, func(k, v []byte) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d", count)
	}
}

// TestScanViewsAreCapped: the key and value a scan hands out end at their
// own last byte, so an append to either copies and leaves the page — here
// every page of the tree, encoded before and after — as it was.
func TestScanViewsAreCapped(t *testing.T) {
	tree, pager, _ := newTree(t)
	for i := 0; i < 500; i++ {
		_ = tree.Put(1, key(i), val(i))
	}
	encodeAll := func() map[page.ID][]byte {
		images := map[page.ID][]byte{}
		pager.Range(func(pg *page.Page) bool {
			b, err := pg.Encode()
			if err != nil {
				t.Fatal(err)
			}
			images[pg.ID] = bytes.Clone(b)
			return true
		})
		return images
	}
	before := encodeAll()
	rows := 0
	err := tree.Scan(nil, nil, func(k, v []byte) bool {
		if cap(k) != len(k) || cap(v) != len(v) {
			t.Fatalf("row %q: key cap %d len %d, value cap %d len %d", k, cap(k), len(k), cap(v), len(v))
		}
		_ = append(k, 0xff, 0xff, 0xff, 0xff)
		_ = append(v, 0xff, 0xff, 0xff, 0xff)
		rows++
		return true
	})
	if err != nil || rows != 500 {
		t.Fatalf("scan: %d rows, %v", rows, err)
	}
	after := encodeAll()
	if len(after) != len(before) {
		t.Fatalf("%d pages after the scan, %d before", len(after), len(before))
	}
	for id, img := range before {
		if !bytes.Equal(after[id], img) {
			t.Fatalf("page %d changed under appends to scan views", id)
		}
	}
}

func TestRootIDStableAcrossSplits(t *testing.T) {
	tree, _, _ := newTree(t)
	root := tree.Root()
	for i := 0; i < 3000; i++ {
		_ = tree.Put(1, key(i), val(i))
	}
	if tree.Root() != root {
		t.Fatalf("root moved from %d to %d", root, tree.Root())
	}
}

// TestReplicaConvergesViaApply is the core redo test: replaying the primary's
// log records against an empty page set reproduces the identical tree.
func TestReplicaConvergesViaApply(t *testing.T) {
	tree, pager, log := newTree(t)
	r := rand.New(rand.NewSource(7))
	live := map[string]string{}
	for i := 0; i < 3000; i++ {
		k, v := key(r.Intn(800)), val(i)
		_ = tree.Put(1, k, v)
		live[string(k)] = string(v)
	}

	// Replica: apply every page record in LSN order.
	replica := fcb.NewMemFile()
	for _, rec := range log.Since(0) {
		if !rec.IsPageOp() {
			continue
		}
		pg, err := replica.Read(rec.Page)
		if errors.Is(err, fcb.ErrNotFound) {
			if rec.Kind != wal.KindPageImage {
				t.Fatalf("first record for page %d is %v, not an image", rec.Page, rec.Kind)
			}
			pg, err = NewFormatted(rec)
			if err != nil {
				t.Fatal(err)
			}
			if err := replica.Write(pg); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		npg, _, err := Apply(pg, rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := replica.Write(npg); err != nil {
			t.Fatal(err)
		}
	}

	// The replica tree (read-only) must match the primary's live map.
	rt := Open(readonlyPager{replica}, nil, tree.Root())
	count := 0
	err := rt.Scan(nil, nil, func(k, v []byte) bool {
		if live[string(k)] != string(v) {
			t.Fatalf("replica key %q = %q, want %q", k, v, live[string(k)])
		}
		count++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != len(live) {
		t.Fatalf("replica has %d keys, want %d", count, len(live))
	}
	// Spot-check page images byte-for-byte equality with the primary.
	pager.MemFile.Range(func(pg *page.Page) bool {
		rpg, err := replica.Read(pg.ID)
		if err != nil {
			t.Fatalf("replica missing page %d", pg.ID)
		}
		if rpg.LSN != pg.LSN || !bytes.Equal(rpg.Data, pg.Data) {
			t.Fatalf("page %d diverged: lsn %d vs %d", pg.ID, rpg.LSN, pg.LSN)
		}
		return true
	})
}

type readonlyPager struct{ *fcb.MemFile }

func (readonlyPager) Allocate(page.Type) (*page.Page, error) {
	return nil, errors.New("read-only pager")
}

func TestApplyIsIdempotent(t *testing.T) {
	tree, pager, log := newTree(t)
	for i := 0; i < 50; i++ {
		_ = tree.Put(1, key(i), val(i))
	}
	recs := log.Since(0)
	// Replay everything twice against a replica.
	replica := fcb.NewMemFile()
	replay := func() {
		for _, rec := range recs {
			if !rec.IsPageOp() {
				continue
			}
			pg, err := replica.Read(rec.Page)
			if errors.Is(err, fcb.ErrNotFound) {
				pg = page.New(rec.Page, rec.PageType)
			} else if err != nil {
				t.Fatal(err)
			}
			npg, _, err := Apply(pg, rec)
			if err != nil {
				t.Fatal(err)
			}
			_ = replica.Write(npg)
		}
	}
	replay()
	replay()
	pager.MemFile.Range(func(pg *page.Page) bool {
		rpg, err := replica.Read(pg.ID)
		if err != nil || rpg.LSN != pg.LSN || !bytes.Equal(rpg.Data, pg.Data) {
			t.Fatalf("page %d diverged after double replay", pg.ID)
		}
		return true
	})
}

func TestApplyRejectsWrongPage(t *testing.T) {
	pg := page.New(1, page.TypeLeaf)
	rec := &wal.Record{LSN: 5, Kind: wal.KindCellPut, Page: 2, Key: []byte("k")}
	if _, _, err := Apply(pg, rec); err == nil {
		t.Fatal("cross-page apply accepted")
	}
	if _, _, err := Apply(pg, &wal.Record{LSN: 5, Kind: wal.KindTxnCommit, Page: 1}); err == nil {
		t.Fatal("non-page op accepted")
	}
}

func TestApplySkipsOldRecords(t *testing.T) {
	n := &node{}
	data, _ := n.encode()
	pg := &page.Page{ID: 1, LSN: 100, Type: page.TypeLeaf, Data: data}
	rec := &wal.Record{LSN: 50, Kind: wal.KindCellPut, Page: 1, Key: []byte("k"), Value: []byte("v")}
	npg, applied, err := Apply(pg, rec)
	if err != nil || applied || npg != pg {
		t.Fatalf("old record applied: %v %v", applied, err)
	}
	if pg.LSN != 100 {
		t.Fatal("LSN moved backwards")
	}
}

// TestFenceViolationDetected reproduces the §4.5 race: a parent routes to a
// child that has since been split (its fence shrank), and the traversal
// must fail with ErrInconsistent rather than return a wrong answer.
func TestFenceViolationDetected(t *testing.T) {
	tree, pager, _ := newTree(t)
	for i := 0; i < 2000; i++ {
		_ = tree.Put(1, key(i), val(i))
	}
	// Find a leaf and artificially shrink its hi fence, simulating a page
	// "from the future" (post-split) while its parent is still "present".
	var victim *page.Page
	pager.MemFile.Range(func(pg *page.Page) bool {
		if pg.Type == page.TypeLeaf {
			n, _ := decodeNode(pg.Data)
			if len(n.cells) > 2 && len(n.hi) > 0 {
				victim = pg
				return false
			}
		}
		return true
	})
	if victim == nil {
		t.Skip("no bounded leaf found")
	}
	n, _ := decodeNode(victim.Data)
	// Keys >= mid are no longer covered by this leaf.
	mid := n.cells[len(n.cells)/2].key
	probe := n.cells[len(n.cells)-1].key
	n.hi = mid
	n.cells = n.cells[:len(n.cells)/2]
	data, _ := n.encode()
	_ = pager.Write(&page.Page{ID: victim.ID, LSN: victim.LSN, Type: victim.Type, Data: data})

	_, _, err := tree.Get(probe)
	if !errors.Is(err, ErrInconsistent) {
		t.Fatalf("err = %v, want ErrInconsistent", err)
	}
}

// TestScanFenceViolationDetected: a scan meets a leaf whose fences differ
// from what its parent routes to it — split after the parent was read (it
// covers less) or read from before a split the parent shows (it covers
// more) — and fails with ErrInconsistent instead of skipping the keys the
// leaf gave away or handing out twice the keys it still holds.
func TestScanFenceViolationDetected(t *testing.T) {
	for _, grow := range []bool{false, true} {
		tree, pager, _ := newTree(t)
		for i := 0; i < 2000; i++ {
			_ = tree.Put(1, key(i), val(i))
		}
		var victim, next *page.Page
		pager.MemFile.Range(func(pg *page.Page) bool {
			if pg.Type != page.TypeLeaf {
				return true
			}
			if n, _ := decodeNode(pg.Data); len(n.cells) > 2 && len(n.hi) > 0 {
				victim = pg
				return false
			}
			return true
		})
		n, _ := decodeNode(victim.Data)
		if grow { // take in the first cells of the leaf to the right
			pager.MemFile.Range(func(pg *page.Page) bool {
				if m, _ := decodeNode(pg.Data); pg.Type == page.TypeLeaf && bytes.Equal(m.lo, n.hi) {
					next = pg
					return false
				}
				return true
			})
			m, _ := decodeNode(next.Data)
			n.cells = append(n.cells, m.cells[:2]...)
			n.hi = m.cells[2].key
		} else { // give away the upper half of the leaf
			n.hi = n.cells[len(n.cells)/2].key
			n.cells = n.cells[:len(n.cells)/2]
		}
		data, _ := n.encode()
		_ = pager.Write(&page.Page{ID: victim.ID, LSN: victim.LSN, Type: victim.Type, Data: data})

		err := tree.Scan(nil, nil, func(_, _ []byte) bool { return true })
		if !errors.Is(err, ErrInconsistent) {
			t.Fatalf("grow %v: scan err = %v, want ErrInconsistent", grow, err)
		}
	}
}

func TestNodeCodecProperty(t *testing.T) {
	f := func(lo, hi []byte, keys [][]byte) bool {
		if len(lo) > 200 {
			lo = lo[:200]
		}
		if len(hi) > 200 {
			hi = hi[:200]
		}
		n := &node{lo: lo, hi: hi}
		if len(n.lo) == 0 {
			n.lo = nil
		}
		if len(n.hi) == 0 {
			n.hi = nil
		}
		for i, k := range keys {
			if len(k) == 0 || len(k) > 100 {
				continue
			}
			n.put(k, []byte(fmt.Sprintf("v%d", i)))
		}
		if n.encodedSize() > page.MaxData {
			return true
		}
		data, err := n.encode()
		if err != nil {
			return false
		}
		got, err := decodeNode(data)
		if err != nil {
			return false
		}
		if !bytes.Equal(got.lo, n.lo) || !bytes.Equal(got.hi, n.hi) || len(got.cells) != len(n.cells) {
			return false
		}
		for i := range n.cells {
			if !bytes.Equal(got.cells[i].key, n.cells[i].key) ||
				!bytes.Equal(got.cells[i].value, n.cells[i].value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the tree matches a sorted map under random puts.
func TestTreeModelEquivalenceProperty(t *testing.T) {
	type op struct {
		Key    uint16
		ValSeq uint8
	}
	f := func(ops []op) bool {
		pager := newTestPager()
		log := wal.NewMemLog()
		tree, err := Create(pager, log, 0)
		if err != nil {
			return false
		}
		model := map[string][]byte{}
		for _, o := range ops {
			k := []byte(fmt.Sprintf("k%05d", o.Key%512))
			v := bytes.Repeat([]byte{o.ValSeq}, 32)
			if tree.Put(0, k, v) != nil {
				return false
			}
			model[string(k)] = v
		}
		// Full comparison via scan.
		var keys []string
		for k := range model {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		i := 0
		err = tree.Scan(nil, nil, func(k, v []byte) bool {
			if i >= len(keys) || keys[i] != string(k) || !bytes.Equal(model[keys[i]], v) {
				i = -1
				return false
			}
			i++
			return true
		})
		return err == nil && i == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeValuesNearCellLimit(t *testing.T) {
	tree, _, _ := newTree(t)
	v := bytes.Repeat([]byte{7}, maxCell-20)
	for i := 0; i < 40; i++ {
		if err := tree.Put(1, key(i), v); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	for i := 0; i < 40; i++ {
		got, found, err := tree.Get(key(i))
		if err != nil || !found || !bytes.Equal(got, v) {
			t.Fatalf("get %d failed", i)
		}
	}
}

// treeLen counts the tree's entries with a full scan.
func treeLen(tree *Tree) (int, error) {
	n := 0
	err := tree.Scan(nil, nil, func([]byte, []byte) bool { n++; return true })
	return n, err
}
