package engine

import (
	"bytes"
	"fmt"
	"testing"

	"socrates/internal/btree"
	"socrates/internal/fcb"
	"socrates/internal/page"
	"socrates/internal/wal"
)

// The commit's page set (DESIGN §16.2): a commit builds its pages privately,
// copying each once, and installs them once each before its commit record.

// writeCounts is a MemFile that counts the writes of each page while n is set.
type writeCounts struct {
	*fcb.MemFile
	n map[page.ID]int
}

func (f *writeCounts) Write(pg *page.Page) error {
	if f.n != nil {
		f.n[pg.ID]++
	}
	return f.MemFile.Write(pg)
}

func rowKey(i int) []byte { return []byte(fmt.Sprintf("r%04d", i)) }

func commitKeys(t *testing.T, e *Engine, table string, from, to int, value []byte) {
	t.Helper()
	tx := e.Begin()
	for i := from; i < to; i++ {
		if err := tx.Put(table, rowKey(i), value); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitInstallsEachPageOnce: a 20-row sequential insert — 20 changes to
// the same rightmost leaf, and a split — and an 8-row update — 8 appends to
// one version page and 8 changes to the leaves — each write every page they
// touch exactly once.
func TestCommitInstallsEachPageOnce(t *testing.T) {
	pages := &writeCounts{MemFile: fcb.NewMemFile()}
	e, err := Create(Config{Pages: pages, Log: NewMemPipeline()})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	value := bytes.Repeat([]byte{'v'}, 150)
	commitKeys(t, e, "t", 0, 30, value)

	check := func(what string, minPages int) {
		t.Helper()
		for id, n := range pages.n {
			if n != 1 {
				t.Errorf("%s: page %d written %d times, want once", what, id, n)
			}
		}
		if len(pages.n) < minPages {
			t.Errorf("%s wrote %d pages, want at least %d: %v", what, len(pages.n), minPages, pages.n)
		}
		pages.n = nil
	}
	pages.n = map[page.ID]int{}
	commitKeys(t, e, "t", 30, 50, value)
	check("20-row sequential insert", 3) // the leaf, its new sibling, the root above them (and the catalog)
	pages.n = map[page.ID]int{}
	commitKeys(t, e, "t", 30, 38, []byte("updated"))
	check("8-row update", 2) // the version page and the leaf
	for i := 0; i < 50; i++ {
		want := string(value)
		if i >= 30 && i < 38 {
			want = "updated"
		}
		got, found, err := e.BeginRO().Get("t", rowKey(i))
		if err != nil || !found || string(got) != want {
			t.Fatalf("row %d = %q %v %v", i, got, found, err)
		}
	}
}

// installCheck is a MemFile that, while check is set, runs it after every
// write: in the middle of a commit's install, one page at a time.
type installCheck struct {
	*fcb.MemFile
	check func() error
	fails []string
}

func (f *installCheck) Write(pg *page.Page) error {
	if err := f.MemFile.Write(pg); err != nil {
		return err
	}
	if f.check != nil {
		if err := f.check(); err != nil {
			f.fails = append(f.fails, fmt.Sprintf("after page %d (%v) was installed: %v", pg.ID, pg.Type, err))
		}
	}
	return nil
}

// preCommitReader returns a check that reads table as of a snapshot taken
// now: every key of want (and absent) is Got, and the table is Scanned, with
// no error and exactly the values of want.
func preCommitReader(e *Engine, table string, want map[string]string, absent []string) func() error {
	ro := e.BeginRO()
	return func() error {
		for k, v := range want {
			got, found, err := ro.Get(table, []byte(k))
			if err != nil || !found || string(got) != v {
				return fmt.Errorf("Get(%s) = %.12q %v %v, want %.12q", k, got, found, err, v)
			}
		}
		for _, k := range absent {
			if got, found, err := ro.Get(table, []byte(k)); err != nil || found {
				return fmt.Errorf("Get(%s) = %.12q %v %v, want absent", k, got, found, err)
			}
		}
		n := 0
		var bad error
		err := ro.Scan(table, nil, nil, func(k, v []byte) bool {
			n++
			if want[string(k)] != string(v) {
				bad = fmt.Errorf("Scan row %s = %.12q, want %.12q", k, v, want[string(k)])
			}
			return bad == nil
		})
		switch {
		case err != nil:
			return fmt.Errorf("Scan: %v", err)
		case bad != nil:
			return bad
		case n != len(want):
			return fmt.Errorf("Scan saw %d rows, want %d", n, len(want))
		}
		return nil
	}
}

// TestInstallOrderKeepsEveryStepReadable: a reader at the snapshot before a
// commit reads the table after every page the commit installs — no retry can
// help it here, the install waits for the check — and gets no error and the
// values before the commit. Two commits whose first-touch order would
// publish a page before one it names: an insert that changes a leaf before
// an update in the same leaf appends to the version page (the leaf would
// point into a version slot not yet there), and a split of the root leaf
// (the new root would route to a left half not yet there).
func TestInstallOrderKeepsEveryStepReadable(t *testing.T) {
	pages := &installCheck{MemFile: fcb.NewMemFile()}
	e, err := Create(Config{Pages: pages, Log: NewMemPipeline()})
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{"t", "r"} {
		if err := e.CreateTable(table); err != nil {
			t.Fatal(err)
		}
	}

	// One leaf, and a version page that already holds a version of r0004.
	commitKeys(t, e, "t", 2, 5, []byte("old"))
	commitKeys(t, e, "t", 4, 5, []byte("v1"))
	pages.check = preCommitReader(e, "t",
		map[string]string{"r0002": "old", "r0003": "old", "r0004": "v1"}, []string{"r0001"})
	tx := e.Begin()
	for _, w := range []struct{ key, value string }{{"r0001", "new"}, {"r0004", "v2"}} {
		if err := tx.Put("t", []byte(w.key), []byte(w.value)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	pages.check = nil
	for _, f := range pages.fails {
		t.Errorf("insert before update: %s", f)
	}
	pages.fails = nil

	// A root leaf a few rows short of full, then a commit that splits it.
	value := bytes.Repeat([]byte{'x'}, 500)
	commitKeys(t, e, "r", 0, 14, value)
	root, err := e.tableTree("r")
	if err != nil {
		t.Fatal(err)
	}
	if pg, err := pages.Read(root.Root()); err != nil || pg.Type != page.TypeLeaf {
		t.Fatalf("the root of r before the split: %v, %v; want a leaf", pg, err)
	}
	want := map[string]string{}
	for i := 0; i < 14; i++ {
		want[string(rowKey(i))] = string(value)
	}
	pages.check = preCommitReader(e, "r", want, []string{string(rowKey(14)), string(rowKey(19))})
	commitKeys(t, e, "r", 14, 20, value)
	pages.check = nil
	for _, f := range pages.fails {
		t.Errorf("root split: %s", f)
	}
	if pg, err := pages.Read(root.Root()); err != nil || pg.Type != page.TypeInternal {
		t.Fatalf("the root of r after the commit: %v, %v; want an internal node", pg, err)
	}
}

// sealedLog is a MemLog that also encodes every record when it is appended,
// as a log writer encodes its group: a record changed after its append —
// a page payload it aliases, edited in place — no longer matches its seal.
type sealedLog struct {
	MemPipeline
	recs  []*wal.Record
	seals [][]byte
}

func (l *sealedLog) Append(rec *wal.Record) page.LSN {
	lsn := l.MemPipeline.Append(rec)
	l.recs = append(l.recs, rec)
	l.seals = append(l.seals, seal(rec))
	return lsn
}

func seal(rec *wal.Record) []byte {
	return (&wal.Block{Start: rec.LSN, End: rec.LSN.Next(), Records: []*wal.Record{rec}}).Encode()
}

// FuzzCommitMatchesRedo: random multi-row commits — inserts, updates and
// deletes of rows up to ~1.8 KB on two tables, so leaves split, roots grow
// and version pages roll over — leave every page byte for byte, LSN for LSN,
// what copy-on-write redo of the log from an empty store builds, leave
// every logged record as it was when appended, and log nothing but page
// images, cell puts and commit records: every record is one redo applies
// or the commit that orders them.
func FuzzCommitMatchesRedo(f *testing.F) {
	f.Add([]byte{5, 1, 200, 1, 2, 200, 1, 3, 200, 1, 4, 200, 1, 5, 200, 1})
	// Thirteen rows on one leaf; then one commit whose insert splits it and
	// grows the root, and whose update rewrites a row of the left half, in
	// the image the split logged, with a value of the same size.
	split := []byte{12}
	for k := byte(10); k < 23; k++ {
		split = append(split, k, 70, 1)
	}
	f.Add(append(split, 1, 5, 255, 1, 11, 70, 2))
	f.Add(bytes.Repeat([]byte{23, 7, 255, 3}, 60))
	f.Add(bytes.Repeat([]byte{7, 130, 255, 5, 131, 10, 0, 132, 255, 9}, 40))
	seq := []byte{20}
	for i := 0; i < 120; i++ {
		seq = append(seq, byte(i), 90, 1)
		if i%20 == 19 {
			seq = append(seq, 20)
		}
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, script []byte) {
		log := &sealedLog{MemPipeline: NewMemPipeline()}
		pages := fcb.NewMemFile()
		e, err := Create(Config{Pages: pages, Log: log})
		if err != nil {
			t.Fatal(err)
		}
		for _, table := range []string{"t", "u"} {
			if err := e.CreateTable(table); err != nil {
				t.Fatal(err)
			}
		}
		// A commit is a row count byte, then three bytes a row: key (its
		// top bit picks the table), value size in 7-byte units, and op
		// (0 mod 8 deletes).
		for commits := 0; len(script) > 0 && commits < 64; commits++ {
			n := 1 + int(script[0]%24)
			script = script[1:]
			tx := e.Begin()
			for i := 0; i < n && len(script) >= 3; i++ {
				table := "t"
				if script[0]&0x80 != 0 {
					table = "u"
				}
				key := rowKey(int(script[0] & 0x7f))
				if script[2]%8 == 0 {
					err = tx.Delete(table, key)
				} else {
					value := bytes.Repeat([]byte{script[2]}, 7*int(script[1]))
					err = tx.Put(table, key, value)
				}
				if err != nil {
					t.Fatal(err)
				}
				script = script[3:]
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}

		redone := map[page.ID]*page.Page{}
		for i, rec := range log.recs {
			if !bytes.Equal(seal(rec), log.seals[i]) {
				t.Fatalf("record %d (LSN %d, %v of page %d) changed after it was appended", i, rec.LSN, rec.Kind, rec.Page)
			}
			switch rec.Kind {
			case wal.KindTxnCommit:
				continue
			case wal.KindPageImage, wal.KindCellPut:
			default:
				t.Fatalf("record %d (LSN %d) is %v: nothing reads it", i, rec.LSN, rec.Kind)
			}
			var next *page.Page
			if pg := redone[rec.Page]; pg == nil {
				next, err = btree.NewFormatted(rec)
			} else {
				next, _, err = btree.Apply(pg, rec)
			}
			if err != nil {
				t.Fatalf("redo of LSN %d: %v", rec.LSN, err)
			}
			redone[rec.Page] = next
		}
		n := 0
		pages.Range(func(pg *page.Page) bool {
			n++
			want := redone[pg.ID]
			switch {
			case want == nil:
				t.Errorf("page %d is installed but no record built it", pg.ID)
			case pg.LSN != want.LSN || pg.Type != want.Type || !bytes.Equal(pg.Data, want.Data):
				t.Errorf("page %d: installed LSN %d %v %d bytes, redo built LSN %d %v %d bytes",
					pg.ID, pg.LSN, pg.Type, len(pg.Data), want.LSN, want.Type, len(want.Data))
			}
			return true
		})
		if n != len(redone) {
			t.Errorf("%d pages installed, redo built %d", n, len(redone))
		}
	})
}
