package recovery

import (
	"bytes"
	"errors"
	"testing"

	"socrates/internal/btree"
	"socrates/internal/fcb"
	"socrates/internal/page"
	"socrates/internal/rbpex"
	"socrates/internal/wal"
)

// pendingSet stands in for a compute node's fetches in flight.
type pendingSet map[page.ID]bool

func (p pendingSet) QueueIfPending(rec *wal.Record) bool { return p[rec.Page] }

// cachePager is a page server's pager in small: it reads the cache (a miss
// is an error) and installs into it.
type cachePager struct{ *rbpex.Cache }

func (p cachePager) Read(id page.ID) (*page.Page, error) {
	if pg, ok := p.Get(id); ok {
		return pg, nil
	}
	return nil, fcb.ErrNotFound
}

func (p cachePager) Write(pg *page.Page) error { return p.Put(pg) }

func (cachePager) Allocate(page.Type) (*page.Page, error) {
	return nil, errors.New("redo allocates no pages")
}

// outcome is what the cursor did with one record, as seen from its policy.
type outcome string

const (
	passed   outcome = "passed"   // the policy was not asked (no page op, or cut)
	applied  outcome = "applied"  // redo's version was put
	current  outcome = "current"  // the page already reflected the record
	ignored  outcome = "ignored"  // missing page, not its image
	deferred outcome = "deferred" // answered Elsewhere
	dropped  outcome = "dropped"  // redo failed and Put dropped the record
	failed   outcome = "failed"   // the walk ended with an error
)

// recorder watches a policy's answers.
type recorder struct {
	Pages
	asked   bool
	answer  Answer
	put     bool
	redoErr bool
}

func (r *recorder) Page(rec *wal.Record) (*page.Page, Answer, error) {
	pg, a, err := r.Pages.Page(rec)
	r.asked, r.answer = true, a
	return pg, a, err
}

func (r *recorder) Put(next *page.Page, err error) error {
	r.put, r.redoErr = true, err != nil
	return r.Pages.Put(next, err)
}

func (r *recorder) outcome(err error) outcome {
	switch {
	case err != nil:
		return failed
	case !r.asked:
		return passed
	case r.answer == Elsewhere:
		return deferred
	case r.redoErr:
		return dropped
	case r.put:
		return applied
	case r.answer == Missing:
		return ignored
	}
	return current
}

// TestPolicyTable pins every consumer's rule in one place (DESIGN §21): each
// case runs one record through a fresh cursor under each of the four
// policies and checks what the cursor did with it, the watermark, and the
// visibility it replayed. Every consumer holds pages 1, 4, 6 (corrupt) and
// 20 at LSN 5; page 3 is only in the page server's XStore checkpoint; page 4
// has a fetch in flight at the secondary; the page server owns [0, 10).
func TestPolicyTable(t *testing.T) {
	leaf := func(id page.ID) *page.Page {
		return &page.Page{ID: id, LSN: 5, Type: page.TypeLeaf, Data: btree.EmptyNodePayload()}
	}
	held := []*page.Page{leaf(1), leaf(4), leaf(20),
		{ID: 6, LSN: 5, Type: page.TypeLeaf, Data: []byte{0xFF}}}
	cache := func(t *testing.T) *rbpex.Cache {
		c, err := rbpex.Open(rbpex.Config{MemPages: 16})
		if err != nil {
			t.Fatal(err)
		}
		for _, pg := range held {
			if err := c.Put(pg); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	file := func(t *testing.T) *fcb.MemFile {
		f := fcb.NewMemFile()
		for _, pg := range held {
			if err := f.Write(pg); err != nil {
				t.Fatal(err)
			}
		}
		return f
	}
	policies := []struct {
		name string
		make func(t *testing.T) Pages
	}{
		{"page server", func(t *testing.T) Pages {
			return &Owned{Lo: 0, Hi: 10, Set: btree.NewPageSet(cachePager{cache(t)}),
				Fetch: func(id page.ID) (*page.Page, error) {
					if id == 3 {
						return leaf(3), nil
					}
					return nil, fcb.ErrNotFound
				}}
		}},
		{"secondary", func(t *testing.T) Pages {
			return &Cached{Pending: pendingSet{4: true}, Cache: cache(t)}
		}},
		{"hadr", func(t *testing.T) Pages { return Replica{Pages: file(t)} }},
		{"pitr", func(t *testing.T) Pages { return Restore{Pages: file(t)} }},
	}

	const lsn, stop = page.LSN(10), page.LSN(100)
	cellAt := func(lsn page.LSN, id page.ID) *wal.Record {
		return &wal.Record{LSN: lsn, Kind: wal.KindCellPut, Page: id, PageType: page.TypeLeaf,
			Key: []byte("k"), Value: []byte("v")}
	}
	commit := wal.NewCommit(7, 42)
	commit.LSN = lsn
	for _, c := range []struct {
		name string
		rec  *wal.Record
		want [4]outcome // page server, secondary, hadr, pitr
	}{
		{"resident page", cellAt(lsn, 1),
			[4]outcome{applied, applied, applied, applied}},
		{"resident page, record already reflected", cellAt(5, 1),
			[4]outcome{current, current, current, current}},
		{"missing page, image record", &wal.Record{LSN: lsn, Kind: wal.KindPageImage, Page: 2,
			PageType: page.TypeLeaf, Value: btree.EmptyNodePayload()},
			[4]outcome{applied, applied, applied, applied}},
		// The page server fetches the checkpoint copy; HADR redoes onto a
		// new page with no node in it, and drops the record; PITR makes an
		// empty node.
		{"missing page, cell op", cellAt(lsn, 3),
			[4]outcome{applied, ignored, dropped, applied}},
		{"page not owned", cellAt(lsn, 20),
			[4]outcome{deferred, applied, applied, applied}},
		{"page pending a fetch", cellAt(lsn, 4),
			[4]outcome{applied, deferred, applied, applied}},
		// The error rule: the page server and PITR end the walk, the
		// secondary and HADR drop the record.
		{"redo fails", cellAt(lsn, 6),
			[4]outcome{failed, dropped, dropped, failed}},
		{"commit record", commit,
			[4]outcome{passed, passed, passed, passed}},
		{"not a page record", &wal.Record{LSN: lsn, Kind: wal.KindNoop, Txn: 7},
			[4]outcome{passed, passed, passed, passed}},
		{"at the stop LSN", cellAt(stop, 1),
			[4]outcome{passed, passed, passed, passed}},
	} {
		for i, p := range policies {
			rec := &recorder{Pages: p.make(t)}
			r := NewReplayer(rec, 1, nil)
			err := r.ApplyRecord(c.rec, stop)
			if got := rec.outcome(err); got != c.want[i] {
				t.Errorf("%s, %s: %s (err %v), want %s", c.name, p.name, got, err, c.want[i])
			}
			wantApplied := c.rec.LSN.Next()
			if err != nil || c.rec.LSN == stop {
				wantApplied = 1
			}
			if r.applied != wantApplied {
				t.Errorf("%s, %s: watermark %d, want %d", c.name, p.name, r.applied, wantApplied)
			}
			wantVisible := uint64(0)
			if c.rec == commit {
				wantVisible = 42
			}
			if r.Visible() != wantVisible {
				t.Errorf("%s, %s: visible %d, want %d", c.name, p.name, r.Visible(), wantVisible)
			}
		}
	}
}

// cellRecs returns n cell puts for page id from LSN from on, over three
// keys: values that grow, each key put again over its last value.
func cellRecs(id page.ID, from page.LSN, n int) []*wal.Record {
	recs := make([]*wal.Record, n)
	for i := range recs {
		recs[i] = &wal.Record{LSN: from + page.LSN(i), Kind: wal.KindCellPut, Page: id,
			PageType: page.TypeLeaf, Key: []byte{'k', byte(i % 3)}, Value: bytes.Repeat([]byte{'v'}, 10*i)}
	}
	return recs
}

// copyOnWrite is the reference: every record through btree.Apply.
func copyOnWrite(t *testing.T, pg *page.Page, recs []*wal.Record) *page.Page {
	t.Helper()
	for _, rec := range recs {
		var err error
		if pg, _, err = btree.Apply(pg, rec); err != nil {
			t.Fatal(err)
		}
	}
	return pg
}

func samePage(a, b *page.Page) bool {
	return a.ID == b.ID && a.LSN == b.LSN && a.Type == b.Type && bytes.Equal(a.Data, b.Data)
}

// TestRedoCopiesTheFetchedPageOnce: a fetch's queued redo (§4.5) copies the
// page it got — whose bytes alias the GetPage response's image — on the
// first record that applies and edits that copy after; the result is what
// copy-on-write redo gives, and the fetched page and its image are as they
// were.
func TestRedoCopiesTheFetchedPageOnce(t *testing.T) {
	img, err := (&page.Page{ID: 7, LSN: 10, Type: page.TypeLeaf, Data: btree.EmptyNodePayload()}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	fetched, err := page.Decode(img)
	if err != nil {
		t.Fatal(err)
	}
	wantImg, wantPage := bytes.Clone(img), fetched.Clone()
	// The first record is one the page already reflects: the copy waits for
	// the first that applies.
	recs := append([]*wal.Record{{LSN: 9, Kind: wal.KindCellPut, Page: 7, Key: []byte("old")}},
		cellRecs(7, 11, 12)...)
	got, err := Redo(fetched, recs)
	if err != nil {
		t.Fatal(err)
	}
	if want := copyOnWrite(t, fetched, recs); !samePage(got, want) {
		t.Fatalf("in-place redo gave LSN %d, %d bytes; copy-on-write LSN %d, %d bytes",
			got.LSN, len(got.Data), want.LSN, len(want.Data))
	}
	if !bytes.Equal(img, wantImg) || !bytes.Equal(fetched.Image(), wantImg) || !samePage(fetched, wantPage) {
		t.Fatal("redo wrote into the fetched page or its image")
	}
	if got.Image() != nil {
		t.Fatal("the redone version kept the fetched page's image")
	}
}

// TestOwnedEditsTheVersionItBuilt: within a pull a page server copies a
// cached page on its first record that applies and answers Private for the
// version redo built — the one the pull's page set owns — which later
// records edit in place; Install publishes it, which ends that ownership.
func TestOwnedEditsTheVersionItBuilt(t *testing.T) {
	cached := &page.Page{ID: 1, LSN: 5, Type: page.TypeLeaf, Data: btree.EmptyNodePayload()}
	c, err := rbpex.Open(rbpex.Config{MemPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(cached); err != nil {
		t.Fatal(err)
	}
	want := cached.Clone()
	owned := &Owned{Lo: 0, Hi: 10, Set: btree.NewPageSet(cachePager{c})}
	rec := &recorder{Pages: owned}
	r := NewReplayer(rec, 1, nil)
	// The first record is one the cached version already reflects, as after
	// a restart: the set holds that version, which is still not redo's.
	recs := append([]*wal.Record{{LSN: 5, Kind: wal.KindCellPut, Page: 1, Key: []byte("old")}},
		cellRecs(1, 6, 8)...)
	for i, rc := range recs {
		if err := r.ApplyRecord(rc, 0); err != nil {
			t.Fatal(err)
		}
		wantAnswer := Private
		if i <= 1 {
			wantAnswer = Resident
		}
		if rec.answer != wantAnswer {
			t.Fatalf("record %d answered %d, want %d", i, rec.answer, wantAnswer)
		}
	}
	built, err := owned.Set.Read(1)
	if err != nil || !owned.Set.Owns(built) || !samePage(built, copyOnWrite(t, cached, recs)) {
		t.Fatal("the pull's version is not the set's own, or not what copy-on-write redo gives")
	}
	redone := len(recs) - 1
	if owned.Redone != redone {
		t.Fatalf("redone %d, want %d", owned.Redone, redone)
	}
	if got, _ := c.Get(1); got != cached || !samePage(cached, want) {
		t.Fatal("redo changed the cached version")
	}
	// Install publishes the version; the next pull copies it again.
	if err := owned.Set.Install(); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Get(1); got != built {
		t.Fatal("Install did not publish the pull's version")
	}
	if err := r.ApplyRecord(cellRecs(1, 20, 1)[0], 0); err != nil || rec.answer != Resident || owned.Redone != redone+1 {
		t.Fatalf("after Install: answer %d, redone %d, err %v", rec.answer, owned.Redone, err)
	}
}
