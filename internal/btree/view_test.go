package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"socrates/internal/page"
	"socrates/internal/testutil"
	"socrates/internal/wal"
)

// The decoded node is the oracle for the view: the methods below are the
// materialize-then-search forms the view replaced, kept for comparison.

func (n *node) covers(key []byte) bool {
	if len(n.lo) > 0 && bytes.Compare(key, n.lo) < 0 {
		return false
	}
	return len(n.hi) == 0 || bytes.Compare(key, n.hi) < 0
}

func (n *node) childFor(key []byte) (page.ID, error) {
	i := sort.Search(len(n.cells), func(i int) bool {
		return bytes.Compare(n.cells[i].key, key) > 0
	})
	if i == 0 {
		return page.InvalidID, errCorrupt
	}
	return decodeChild(n.cells[i-1].value)
}

// randomNode builds a node with sorted distinct keys that fits a page.
// Internal nodes get an empty first key and 8-byte child values.
func randomNode(r *rand.Rand, internal bool) *node {
	n := &node{}
	if r.Intn(2) == 0 {
		n.lo = randomKey(r)
	}
	if r.Intn(2) == 0 {
		n.hi = randomKey(r)
	}
	if internal {
		n.cells = append(n.cells, cell{key: nil, value: encodeChild(page.ID(r.Intn(1000) + 1))})
	}
	for i, count := 0, r.Intn(60); i < count; i++ {
		val := make([]byte, r.Intn(40))
		r.Read(val)
		if internal {
			val = encodeChild(page.ID(r.Intn(1000) + 1))
		}
		n.put(randomKey(r), val)
	}
	return n
}

func randomKey(r *rand.Rand) []byte {
	k := make([]byte, 1+r.Intn(6))
	for i := range k {
		k[i] = byte('a' + r.Intn(4)) // small alphabet: hits and near-misses
	}
	return k
}

// checkViewAgainstOracle compares every view operation with the decoded
// node on one valid payload and a set of probe keys.
func checkViewAgainstOracle(t *testing.T, data []byte, internal bool, probes [][]byte) {
	t.Helper()
	oracle, err := decodeNode(data)
	if err != nil {
		t.Fatalf("oracle rejects payload: %v", err)
	}
	v, err := parseView(data)
	if err != nil {
		t.Fatalf("view rejects a payload the oracle accepts: %v", err)
	}
	if !bytes.Equal(v.lo, oracle.lo) || !bytes.Equal(v.hi, oracle.hi) || v.count != len(oracle.cells) {
		t.Fatalf("header: view lo=%q hi=%q count=%d, oracle lo=%q hi=%q count=%d",
			v.lo, v.hi, v.count, oracle.lo, oracle.hi, len(oracle.cells))
	}
	// Iteration yields exactly the oracle's cells.
	it := v.iter()
	for i, c := range oracle.cells {
		k, val, ok, err := it.next()
		if err != nil || !ok || !bytes.Equal(k, c.key) || !bytes.Equal(val, c.value) {
			t.Fatalf("cell %d: view (%q,%q,%v,%v), oracle (%q,%q)", i, k, val, ok, err, c.key, c.value)
		}
	}
	if _, _, ok, err := it.next(); ok || err != nil {
		t.Fatalf("iteration past the last cell: ok=%v err=%v", ok, err)
	}
	for _, key := range probes {
		if got, want := v.covers(key), oracle.covers(key); got != want {
			t.Fatalf("covers(%q) = %v, oracle %v", key, got, want)
		}
		i, want := oracle.find(key)
		val, found, err := v.find(key)
		if err != nil || found != want {
			t.Fatalf("find(%q) = found %v err %v, oracle %v", key, found, err, want)
		}
		if found && !bytes.Equal(val, oracle.cells[i].value) {
			t.Fatalf("find(%q) value %q, oracle %q", key, val, oracle.cells[i].value)
		}
		if si, _, _, err := v.search(key); err != nil || si != i {
			t.Fatalf("search(%q) = %d %v, oracle %d", key, si, err, i)
		}
		if internal {
			got, gerr := v.childFor(key)
			wantID, werr := oracle.childFor(key)
			if (gerr != nil) != (werr != nil) || got != wantID {
				t.Fatalf("childFor(%q) = %d %v, oracle %d %v", key, got, gerr, wantID, werr)
			}
			if gerr != nil && !errors.Is(gerr, errCorrupt) {
				t.Fatalf("childFor(%q) error %v is not ErrCorrupt", key, gerr)
			}
		}
		// put: byte-identical to decode + put + encode, or overflow on both.
		value := bytes.Repeat([]byte{'v'}, len(key)*3)
		edited, _ := decodeNode(data)
		edited.put(key, value)
		got, err := v.put(key, value, false)
		if edited.encodedSize() > page.MaxData {
			if !errors.Is(err, errOverflow) {
				t.Fatalf("put(%q) on a full node: err %v, want overflow", key, err)
			}
		} else {
			want, _ := edited.encode()
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("put(%q): view payload differs from oracle (err %v)", key, err)
			}
		}
		// In place, with and without room to grow: the same bytes.
		for _, room := range []int{0, 64} {
			w, _ := parseView(append(make([]byte, 0, len(data)+room), data...))
			inPlace, ierr := w.put(key, value, true)
			if (ierr != nil) != (err != nil) || !bytes.Equal(inPlace, got) {
				t.Fatalf("put(%q) in place (room %d) differs from copy-on-write (err %v, %v)", key, room, ierr, err)
			}
		}
	}
	if !bytes.Equal(data, mustEncode(t, oracle)) {
		t.Fatal("an edit modified the payload it read")
	}
}

func mustEncode(t *testing.T, n *node) []byte {
	t.Helper()
	data, err := n.encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// exerciseCorrupt runs every view operation over a payload that may be
// arbitrarily damaged: nothing may panic, every error must be errCorrupt
// (or overflow from put), and a full walk must fail whenever the oracle
// does.
func exerciseCorrupt(t *testing.T, data []byte, probes [][]byte) {
	t.Helper()
	isCorrupt := func(err error) bool { return err == nil || errors.Is(err, errCorrupt) }
	_, oracleErr := decodeNode(data)
	v, err := parseView(data)
	if err != nil {
		if !errors.Is(err, errCorrupt) || oracleErr == nil {
			t.Fatalf("parseView: %v (oracle: %v)", err, oracleErr)
		}
		return
	}
	var walkErr error
	for it := v.iter(); ; {
		_, _, ok, err := it.next()
		if err != nil || !ok {
			walkErr = err
			break
		}
	}
	if !isCorrupt(walkErr) || (walkErr == nil) != (oracleErr == nil) {
		t.Fatalf("full walk: %v, oracle: %v", walkErr, oracleErr)
	}
	for _, key := range probes {
		v.covers(key)
		if _, _, err := v.find(key); !isCorrupt(err) {
			t.Fatalf("find(%q): %v", key, err)
		}
		// A scan's walks from where a search for key starts them.
		if i, off, _, err := v.search(key); !isCorrupt(err) {
			t.Fatalf("search(%q): %v", key, err)
		} else if err == nil {
			for it := v.iterAt(i, off); ; {
				if _, _, ok, err := it.next(); !isCorrupt(err) {
					t.Fatalf("walk from %q: %v", key, err)
				} else if err != nil || !ok {
					break
				}
			}
		}
		if ci, err := v.children(key, nil); !isCorrupt(err) {
			t.Fatalf("children(%q): %v", key, err)
		} else if err == nil {
			for {
				if _, _, _, ok, err := ci.next(); !isCorrupt(err) {
					t.Fatalf("children from %q: %v", key, err)
				} else if err != nil || !ok {
					break
				}
			}
		}
		if _, err := v.childFor(key); !isCorrupt(err) {
			t.Fatalf("childFor(%q): %v", key, err)
		}
		if _, err := v.put(key, key, false); !isCorrupt(err) && !errors.Is(err, errOverflow) {
			t.Fatalf("put(%q): %v", key, err)
		}
		w, _ := parseView(bytes.Clone(data))
		if _, err := w.put(key, key, true); !isCorrupt(err) && !errors.Is(err, errOverflow) {
			t.Fatalf("put(%q) in place: %v", key, err)
		}
	}
}

// slotDamage returns copies of a valid payload with its slot array damaged
// in each way a walk must catch: a slot outside the cell area, a slot
// pointing into the middle of its cell, two slots swapped out of key order,
// and a count whose slots cannot fit.
func slotDamage(t testing.TB, data []byte) [][]byte {
	t.Helper()
	v, err := parseView(data)
	if err != nil {
		t.Fatal(err)
	}
	put := func(d []byte, at, x int) []byte {
		d = bytes.Clone(d)
		binary.LittleEndian.PutUint16(d[at:], uint16(x))
		return d
	}
	slotAt := func(i int) int { return v.slots + slotSize*i }
	damaged := [][]byte{
		put(data, v.first-2, (len(data)-v.first)/slotSize+1), // count too large for its slots
		put(data, v.first-2, 0xffff),
	}
	for i := 0; i < v.count; i++ {
		off, _ := v.slot(i)
		damaged = append(damaged,
			put(data, slotAt(i), v.first-1),   // into the header
			put(data, slotAt(i), v.slots),     // onto the slot array
			put(data, slotAt(i), len(data)+7), // past the payload
			put(data, slotAt(i), off+1),       // mid-cell
		)
		if i+1 < v.count {
			next, _ := v.slot(i + 1)
			swapped := put(data, slotAt(i), next)
			damaged = append(damaged, put(swapped, slotAt(i+1), off))
		}
	}
	return damaged
}

// probesFor returns every key of the node plus random neighbours.
func probesFor(r *rand.Rand, n *node) [][]byte {
	probes := [][]byte{{}, {0xff, 0xff}}
	for _, c := range n.cells {
		probes = append(probes, c.key)
	}
	for i := 0; i < 20; i++ {
		probes = append(probes, randomKey(r))
	}
	return probes
}

func TestViewMatchesDecodedNode(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for i := 0; i < 300; i++ {
		internal := i%2 == 1
		n := randomNode(r, internal)
		checkViewAgainstOracle(t, mustEncode(t, n), internal, probesFor(r, n))
	}
	// A node filled to the brim: put must report overflow exactly when the
	// re-encoded node would not fit.
	full := &node{}
	for i := 0; full.encodedSize() < page.MaxData-64; i++ {
		full.put(binary.BigEndian.AppendUint32(nil, uint32(i)), bytes.Repeat([]byte{1}, 50))
	}
	checkViewAgainstOracle(t, mustEncode(t, full), false, probesFor(r, full))
}

func TestViewCorruptPayloads(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for i := 0; i < 40; i++ {
		n := randomNode(r, i%2 == 1)
		data := mustEncode(t, n)
		probes := probesFor(r, n)
		for cut := 0; cut < len(data); cut += 1 + r.Intn(7) {
			exerciseCorrupt(t, data[:cut], probes)
		}
		for j := 0; j < 8; j++ {
			flipped := bytes.Clone(data)
			flipped[r.Intn(len(flipped))] ^= byte(1 + r.Intn(255))
			exerciseCorrupt(t, flipped, probes)
		}
		exerciseCorrupt(t, append(bytes.Clone(data), 0), probes) // trailing byte
		for _, d := range slotDamage(t, data) {
			if _, err := decodeNode(d); err == nil {
				t.Fatalf("decodeNode accepts a damaged slot array")
			}
			exerciseCorrupt(t, d, probes)
		}
	}
}

// FuzzNodeView feeds arbitrary payloads to the view. Valid ones must agree
// with the decoded-node oracle on every operation; invalid ones must yield
// errCorrupt, never a panic or an out-of-range slice.
func FuzzNodeView(f *testing.F) {
	r := rand.New(rand.NewSource(18))
	for i := 0; i < 8; i++ {
		data, err := randomNode(r, i%2 == 1).encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, []byte("ab"))
		f.Add(data[:len(data)/2], []byte("c"))
		if i < 2 {
			for _, d := range slotDamage(f, data) {
				f.Add(d, []byte("b"))
			}
		}
	}
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, data, key []byte) {
		probes := [][]byte{key, {}, {0xff}}
		oracle, err := decodeNode(data)
		if err != nil || !sortedDistinct(oracle) {
			exerciseCorrupt(t, data, probes)
			return
		}
		for _, c := range oracle.cells {
			probes = append(probes, c.key)
		}
		checkViewAgainstOracle(t, data, false, probes)
		exerciseCorrupt(t, data, probes) // childFor on arbitrary values
	})
}

// sortedDistinct reports whether the cells are in strictly ascending key
// order — the invariant both search implementations assume.
func sortedDistinct(n *node) bool {
	for i := 1; i < len(n.cells); i++ {
		if bytes.Compare(n.cells[i-1].key, n.cells[i].key) >= 0 {
			return false
		}
	}
	return true
}

// sharedPager hands out the page it stores, as every page file does.
type sharedPager struct {
	pages map[page.ID]*page.Page
	next  page.ID
}

func (p *sharedPager) Read(id page.ID) (*page.Page, error) { return p.pages[id], nil }
func (p *sharedPager) Write(pg *page.Page) error           { p.pages[pg.ID] = pg; return nil }
func (p *sharedPager) Allocate(t page.Type) (*page.Page, error) {
	p.next++
	return page.New(p.next, t), nil
}

// discardLog assigns LSNs and keeps nothing, so the log's own growth stays
// out of the allocation counts below.
type discardLog struct{ next page.LSN }

func (l *discardLog) Append(rec *wal.Record) page.LSN {
	l.next = l.next.Next()
	rec.LSN = l.next
	return rec.LSN
}

func allocTree(t *testing.T) (*Tree, [][]byte) {
	t.Helper()
	tree, err := Create(&sharedPager{pages: map[page.ID]*page.Page{}}, &discardLog{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([][]byte, 5000)
	for i := range keys {
		keys[i] = key(i)
		if err := tree.Put(1, keys[i], val(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tree, keys
}

// TestTreeGetAllocs is the allocation contract of a point lookup on a
// three-level tree: the descent and the leaf search allocate nothing; the
// returned value is the caller's copy.
func TestTreeGetAllocs(t *testing.T) {
	testutil.SkipIfRace(t)
	tree, keys := allocTree(t)
	i := 0
	avg := testing.AllocsPerRun(1000, func() {
		if _, found, err := tree.Get(keys[i%len(keys)]); err != nil || !found {
			t.Fatalf("get: %v %v", found, err)
		}
		i += 37
	})
	const budget = 2
	t.Logf("Tree.Get: %.1f allocs/op (budget %d)", avg, budget)
	if avg > budget {
		t.Fatalf("Tree.Get: %.1f allocs/op, budget %d", avg, budget)
	}
}

// TestTreePutAllocs is the allocation contract of an in-place update (no
// split): the spliced payload, the new page, and the log record.
func TestTreePutAllocs(t *testing.T) {
	testutil.SkipIfRace(t)
	tree, keys := allocTree(t)
	value := val(7)
	i := 0
	avg := testing.AllocsPerRun(1000, func() {
		if err := tree.Put(2, keys[i%len(keys)], value); err != nil {
			t.Fatal(err)
		}
		i += 37
	})
	const budget = 8
	t.Logf("Tree.Put: %.1f allocs/op (budget %d)", avg, budget)
	if avg > budget {
		t.Fatalf("Tree.Put: %.1f allocs/op, budget %d", avg, budget)
	}
}

// benchNode encodes a node of cells cells under the even keys 0, 2, 4, …
// (9 bytes, as the SQL table's), each with an 8-byte value: a leaf, or an
// internal node whose first key is empty.
func benchNode(b *testing.B, cells int, internal bool) (view, [][]byte) {
	b.Helper()
	n := &node{}
	for i := 0; i < cells; i++ {
		k := shapeKey(9, 2*i)
		if internal && i == 0 {
			k = nil
		}
		n.cells = append(n.cells, cell{key: k, value: encodeChild(page.ID(i + 1))})
	}
	data, err := n.encode()
	if err != nil {
		b.Fatal(err)
	}
	v, err := parseView(data)
	if err != nil {
		b.Fatal(err)
	}
	probes := make([][]byte, 2*cells) // every key and every gap
	for i := range probes {
		probes[i] = shapeKey(9, i)
	}
	return v, probes
}

// BenchmarkViewFind is the leaf search of a point read, over every key and
// every gap of the node.
func BenchmarkViewFind(b *testing.B) {
	for _, cells := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("cells=%d", cells), func(b *testing.B) {
			v, probes := benchNode(b, cells, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := v.find(probes[i%len(probes)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkViewChildFor is one routing step of a descent.
func BenchmarkViewChildFor(b *testing.B) {
	for _, cells := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("cells=%d", cells), func(b *testing.B) {
			v, probes := benchNode(b, cells, true)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := v.childFor(probes[i%len(probes)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
