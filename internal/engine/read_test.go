package engine

import (
	"bytes"
	"fmt"
	"testing"

	"socrates/internal/testutil"
)

func readKey(i int) []byte { return []byte(fmt.Sprintf("k%04d", i)) }

func readVal(i int, gen string) []byte { return []byte(fmt.Sprintf("%s-value-%04d", gen, i)) }

// newReadEngine commits rows 0..n-1 of table t, 50 to a transaction, so the
// tree has a root over leaves.
func newReadEngine(t *testing.T, n int) *Engine {
	t.Helper()
	e, _, _ := newTestEngine(t)
	if err := e.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	commitGen(t, e, 0, n, "v1")
	return e
}

// commitGen writes generation gen of rows lo..hi-1, 50 to a transaction.
func commitGen(t *testing.T, e *Engine, lo, hi int, gen string) {
	t.Helper()
	for i := lo; i < hi; i += 50 {
		tx := e.Begin()
		for j := i; j < i+50 && j < hi; j++ {
			if err := tx.Put("t", readKey(j), readVal(j, gen)); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReadVisibleAllocs is the allocation contract of a point read whose
// row head is visible: Tree.Get's copy of the cell is the value handed out.
func TestReadVisibleAllocs(t *testing.T) {
	testutil.SkipIfRace(t)
	e := newReadEngine(t, 2000)
	snap := e.BeginRO().snapshot
	keys := make([][]byte, 2000)
	for i := range keys {
		keys[i] = readKey(i)
	}
	i := 0
	avg := testing.AllocsPerRun(1000, func() {
		v, found, err := e.readVisible("t", keys[i%len(keys)], snap)
		if err != nil || !found || len(v) == 0 {
			t.Fatal("point read missed")
		}
		i += 37
	})
	const budget = 2
	t.Logf("readVisible: %.1f allocs/op (budget %d)", avg, budget)
	if avg > budget {
		t.Fatalf("readVisible: %.1f allocs/op, budget %d", avg, budget)
	}
}

// TestScanVisibleAllocs is the allocation contract of a range scan: each
// row goes to the callback as a view of its page while the walk stands on
// it, so a 200-row scan allocates nothing.
func TestScanVisibleAllocs(t *testing.T) {
	testutil.SkipIfRace(t)
	e := newReadEngine(t, 2000)
	snap := e.BeginRO().snapshot
	lo, hi := readKey(700), readKey(900)
	avg := testing.AllocsPerRun(200, func() {
		rows := 0
		err := e.scanVisible("t", lo, hi, snap, func(_, _ []byte) bool { rows++; return true })
		if err != nil || rows != 200 {
			t.Fatal("scan lost rows")
		}
	})
	const budget = 0
	t.Logf("scanVisible, 200 rows: %.1f allocs/op (budget %d)", avg, budget)
	if avg > budget {
		t.Fatalf("scanVisible, 200 rows: %.1f allocs/op, budget %d", avg, budget)
	}
}

// TestTxScanAllocs: what a read-only Tx.Scan allocates does not grow with
// the rows it hands out.
func TestTxScanAllocs(t *testing.T) {
	testutil.SkipIfRace(t)
	e := newReadEngine(t, 2000)
	tx := e.BeginRO()
	defer tx.Abort()
	measure := func(n int) float64 {
		lo, hi := readKey(700), readKey(700+n)
		return testing.AllocsPerRun(200, func() {
			rows := 0
			err := tx.Scan("t", lo, hi, func(_, _ []byte) bool { rows++; return true })
			if err != nil || rows != n {
				t.Fatalf("scan of %d rows: %d rows, %v", n, rows, err)
			}
		})
	}
	small, large := measure(20), measure(200)
	t.Logf("Tx.Scan: %.1f allocs/op for 20 rows, %.1f for 200", small, large)
	if large > small {
		t.Fatalf("Tx.Scan: %.1f allocs/op for 200 rows, %.1f for 20", large, small)
	}
}

// scanAll collects a scan's rows as strings.
func scanAll(t *testing.T, tx *Tx, lo, hi string, stopAfter int) []string {
	t.Helper()
	var got []string
	var lob, hib []byte
	if lo != "" {
		lob = []byte(lo)
	}
	if hi != "" {
		hib = []byte(hi)
	}
	err := tx.Scan("t", lob, hib, func(k, v []byte) bool {
		got = append(got, string(k)+"="+string(v))
		return len(got) != stopAfter
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestScanOverlayMerge: a scan merges the transaction's own inserts, updates
// and deletes into the committed rows in key order, inside the range and at
// both of its edges; writes to another table and outside the range are not
// seen, and fn declining a row stops the merge there.
func TestScanOverlayMerge(t *testing.T) {
	e, _, _ := newTestEngine(t)
	for _, name := range []string{"t", "u"} {
		if err := e.CreateTable(name); err != nil {
			t.Fatal(err)
		}
	}
	setup := e.Begin()
	for i := 0; i < 10; i++ {
		_ = setup.Put("t", []byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	tx := e.Begin()
	for _, w := range []struct{ table, key, value string }{
		{"t", "k02", "u02"},    // update at the low edge
		{"t", "k015", "new"},   // insert just below the range
		{"t", "k035", "new"},   // insert inside
		{"t", "k05", "u05"},    // update inside
		{"t", "k079", "new"},   // insert at the high edge
		{"t", "k08", "u08"},    // update of the exclusive high bound
		{"u", "k045", "other"}, // another table
	} {
		if err := tx.Put(w.table, []byte(w.key), []byte(w.value)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Delete("t", []byte("k06")); err != nil { // delete inside
		t.Fatal(err)
	}
	want := []string{"k02=u02", "k03=v3", "k035=new", "k04=v4", "k05=u05", "k07=v7", "k079=new"}
	if got := scanAll(t, tx, "k02", "k08", 0); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan [k02, k08) = %v, want %v", got, want)
	}
	// fn declining a row ends the merge at that row, committed or own.
	for n := 1; n <= len(want); n++ {
		if got := scanAll(t, tx, "k02", "k08", n); fmt.Sprint(got) != fmt.Sprint(want[:n]) {
			t.Fatalf("scan stopped after %d = %v, want %v", n, got, want[:n])
		}
	}

	tx.Abort()

	// Deletes at both edges and an insert at the (inclusive) low bound.
	tx2 := e.Begin()
	defer tx2.Abort()
	if err := tx2.Put("t", []byte("k015"), []byte("new")); err != nil { // insert at the low edge
		t.Fatal(err)
	}
	for _, k := range []string{
		"k02",  // the first committed row
		"k07",  // the last committed row
		"k075", // a row that never was, at the exclusive high bound
	} {
		if err := tx2.Delete("t", []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	want = []string{"k015=new", "k03=v3", "k04=v4", "k05=v5", "k06=v6"}
	if got := scanAll(t, tx2, "k015", "k075", 0); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scan [k015, k075) = %v, want %v", got, want)
	}
	// Unbounded: every own write of t, the deletes removing their rows.
	want = []string{"k00=v0", "k01=v1", "k015=new", "k03=v3", "k04=v4", "k05=v5", "k06=v6", "k08=v8", "k09=v9"}
	if got := scanAll(t, tx2, "", "", 0); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("unbounded scan = %v, want %v", got, want)
	}
}

// TestScanViewsStayPut: the rows a scan hands out are views of pages nobody
// edits. Kept past the call, across later commits — leaf splits,
// version-page appends — they keep their bytes, and an append to one
// reaches neither the next row nor the page. A Get's value is the caller's
// own: overwriting it changes nothing another read sees.
func TestScanViewsStayPut(t *testing.T) {
	const n = 400
	e := newReadEngine(t, n)
	old := e.BeginRO() // sees v1 everywhere
	defer old.Abort()
	commitGen(t, e, 0, n/2, "v2") // rows below n/2 now resolve through the chain for old

	type row struct{ k, v []byte }
	read := func(tx *Tx) []row {
		var rows []row
		if err := tx.Scan("t", nil, nil, func(k, v []byte) bool {
			rows = append(rows, row{k, v})
			return true
		}); err != nil {
			t.Fatal(err)
		}
		for _, i := range []int{3, n - 3} { // one through the chain, one at the head
			v, found, err := tx.Get("t", readKey(i))
			if err != nil || !found {
				t.Fatalf("get %d: %v %v", i, found, err)
			}
			rows = append(rows, row{readKey(i), v})
		}
		return rows
	}
	check := func(what string, rows []row, gen func(i int) string) {
		t.Helper()
		if len(rows) != n+2 {
			t.Fatalf("%s: %d rows, want %d", what, len(rows), n+2)
		}
		for j, r := range rows {
			i := j
			switch j {
			case n:
				i = 3
			case n + 1:
				i = n - 3
			}
			if !bytes.Equal(r.k, readKey(i)) || !bytes.Equal(r.v, readVal(i, gen(i))) {
				t.Fatalf("%s: row %d = %q=%q, want %q=%q", what, j, r.k, r.v, readKey(i), readVal(i, gen(i)))
			}
		}
	}
	v1 := func(int) string { return "v1" }
	v2 := func(i int) string {
		if i < n/2 {
			return "v2"
		}
		return "v1"
	}

	kept := read(old)
	keptNew := read(e.BeginRO())
	check("old snapshot", kept, v1)
	check("new snapshot", keptNew, v2)

	// Appends to every row must not reach the next row or the page;
	// overwrites of a Get's value must not reach the page.
	scribbled := read(old)
	for _, r := range scribbled {
		_ = append(r.k, '!')
		_ = append(r.v, '!')
	}
	check("after appends", scribbled, v1)
	check("old snapshot after appends", read(old), v1)
	for _, r := range scribbled[n:] {
		for i := range r.v {
			r.v[i] = 0xff
		}
	}
	check("old snapshot, reread", read(old), v1)
	check("new snapshot, reread", read(e.BeginRO()), v2)

	// Inserts between the rows split leaves; updates append versions.
	for i := 0; i < n; i += 50 {
		tx := e.Begin()
		for j := i; j < i+50; j++ {
			_ = tx.Put("t", []byte(fmt.Sprintf("k%04d-split", j)), bytes.Repeat([]byte{'s'}, 40))
			_ = tx.Put("t", readKey(j), readVal(j, "v3"))
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	check("old snapshot, kept", kept, v1)
	check("new snapshot, kept", keptNew, v2)
	check("old snapshot after commits", read(old), v1)
}
