package recovery

import (
	"bytes"
	"slices"
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

// outcome is what the cursor did with one record, as seen from its policy.
type outcome string

const (
	passed   outcome = "passed"   // the policy was not asked (no page op, or cut)
	applied  outcome = "applied"  // redo staged the page's next version (answered resident)
	created  outcome = "created"  // the image record made the page (answered missing)
	current  outcome = "current"  // the page already reflected the record (answered resident)
	ignored  outcome = "ignored"  // answered missing, and not an image record
	deferred outcome = "deferred" // answered elsewhere
	dropped  outcome = "dropped"  // redo failed and Failed dropped the record
	failed   outcome = "failed"   // the walk ended with an error
)

// recorder watches a policy: its answer, the redo it failed, and what its
// pager was handed to publish.
type recorder struct {
	pages
	asked     bool
	answer    answer
	redoErr   bool
	published []*page.Page
}

func (r *recorder) Page(rec *wal.Record, set *btree.PageSet) (*page.Page, answer, error) {
	pg, a, err := r.pages.Page(rec, set)
	r.asked, r.answer = true, a
	return pg, a, err
}

func (r *recorder) Failed(err error) error {
	r.redoErr = true
	return r.pages.Failed(err)
}

func (r *recorder) Write(pg *page.Page) error {
	r.published = append(r.published, pg)
	return r.pages.Write(pg)
}

// outcome reads what the cursor did with rec off the recorder and the set.
func (r *recorder) outcome(err error, set *btree.PageSet, rec *wal.Record) outcome {
	staged := false
	if pg, err := set.Read(rec.Page); err == nil && set.Owned(pg.ID) == pg && pg.LSN == rec.LSN {
		staged = true
	}
	switch {
	case err != nil:
		return failed
	case !r.asked:
		return passed
	case r.answer == elsewhere:
		return deferred
	case r.answer == missing && staged:
		return created
	case r.answer == missing:
		return ignored
	case r.redoErr:
		return dropped
	case staged:
		return applied
	}
	return current
}

// TestPolicyTable pins every consumer's rule in one place (DESIGN §21): each
// case runs one record through a fresh cursor under each of the four
// policies and checks the policy's answer, what the cursor did with the
// record, the watermark, and the visibility it replayed. No pager sees a
// version before the cursor's set is installed; then it sees the one redo
// built. Every consumer holds pages 1, 4, 6 (corrupt), 7 and 20 at LSN 5,
// but for the secondary, which lacks page 4; page 3 is only in the page
// server's XStore checkpoint; pages 4 and 7 have a fetch in flight at the
// secondary; the page server owns [0, 10).
func TestPolicyTable(t *testing.T) {
	leaf := func(id page.ID) *page.Page {
		return &page.Page{ID: id, LSN: 5, Type: page.TypeLeaf, Data: btree.EmptyNodePayload()}
	}
	held := []*page.Page{leaf(1), leaf(4), leaf(7), leaf(20),
		{ID: 6, LSN: 5, Type: page.TypeLeaf, Data: []byte{0xFF}}}
	cache := func(t *testing.T, lacks page.ID) *rbpex.Cache {
		c, err := rbpex.Open(rbpex.Config{MemPages: 16})
		if err != nil {
			t.Fatal(err)
		}
		for _, pg := range held {
			if pg.ID == lacks {
				continue
			}
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
		make func(t *testing.T) pages
	}{
		{"page server", func(t *testing.T) pages {
			return &Owned{PageFile: cachePager{cache(t, 0)}, Lo: 0, Hi: 10,
				Fetch: func(id page.ID) (*page.Page, error) {
					if id == 3 {
						return leaf(3), nil
					}
					return nil, fcb.ErrNotFound
				}}
		}},
		{"secondary", func(t *testing.T) pages {
			return &Cached{Pending: pendingSet{4: true, 7: true}, Cache: cache(t, 4)}
		}},
		{"hadr", func(t *testing.T) pages { return Replica{file(t)} }},
		{"pitr", func(t *testing.T) pages { return Restore{file(t)} }},
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
		// HADR makes every page it lacks and redoes the image onto it.
		{"missing page, image record", &wal.Record{LSN: lsn, Kind: wal.KindPageImage, Page: 2,
			PageType: page.TypeLeaf, Value: btree.EmptyNodePayload()},
			[4]outcome{created, created, applied, created}},
		// The page server fetches the checkpoint copy; HADR redoes onto a
		// new page with no node in it, and drops the record; PITR makes an
		// empty node.
		{"missing page, cell op", cellAt(lsn, 3),
			[4]outcome{applied, ignored, dropped, applied}},
		{"page not owned", cellAt(lsn, 20),
			[4]outcome{deferred, applied, applied, applied}},
		// The secondary queues a record behind a fetch only for a page it
		// does not hold: one it holds takes the record.
		{"cached page with a fetch in flight", cellAt(lsn, 7),
			[4]outcome{applied, applied, applied, applied}},
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
			rec := &recorder{pages: p.make(t)}
			r := NewReplayer(rec, 1)
			err := r.ApplyRecord(c.rec, stop)
			got := rec.outcome(err, r.PageSet(), c.rec)
			if got != c.want[i] {
				t.Errorf("%s, %s: %s (err %v), want %s", c.name, p.name, got, err, c.want[i])
			}
			if len(rec.published) != 0 {
				t.Errorf("%s, %s: the pager saw a version before the install", c.name, p.name)
			}
			if err := r.PageSet().Install(); err != nil {
				t.Fatalf("%s, %s: install: %v", c.name, p.name, err)
			}
			if made := got == applied || got == created; made && !slices.ContainsFunc(rec.published,
				func(pg *page.Page) bool { return pg.ID == c.rec.Page && pg.LSN == c.rec.LSN }) {
				t.Errorf("%s, %s: the install did not publish redo's version", c.name, p.name)
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
// cached page on its first record that applies, into the cursor's set, and
// later records edit that version in place; Install publishes it, which ends
// the set's ownership, and the next pull copies it again.
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
	r := NewReplayer(&Owned{PageFile: cachePager{c}, Lo: 0, Hi: 10}, 1)
	set := r.PageSet()
	// The first record is one the cached version already reflects, as after
	// a restart: the set holds that version, which is still not redo's.
	recs := append([]*wal.Record{{LSN: 5, Kind: wal.KindCellPut, Page: 1, Key: []byte("old")}},
		cellRecs(1, 6, 8)...)
	var first *page.Page // the version the first record that applies built
	for i, rc := range recs {
		if err := r.ApplyRecord(rc, 0); err != nil {
			t.Fatal(err)
		}
		pg, err := set.Read(1)
		switch {
		case err != nil:
			t.Fatal(err)
		case i == 0 && (pg != cached || set.Owned(pg.ID) == pg):
			t.Fatal("the reflected record left the set other than holding the cached version, unowned")
		case i == 1:
			first = pg
		}
		if i >= 1 && (pg != first || set.Owned(pg.ID) != pg) {
			t.Fatalf("record %d: the set's version is not the one the first record built, or not the set's own", i)
		}
	}
	if !samePage(first, copyOnWrite(t, cached, recs)) {
		t.Fatal("the pull's version is not what copy-on-write redo gives")
	}
	redone := len(recs) - 1
	if r.Redone() != redone {
		t.Fatalf("redone %d, want %d", r.Redone(), redone)
	}
	if got, _ := c.Get(1); got != cached || !samePage(cached, want) {
		t.Fatal("redo changed the cached version")
	}
	// Install publishes the version; the next pull copies it again.
	if err := set.Install(); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Get(1); got != first {
		t.Fatal("Install did not publish the pull's version")
	}
	built := first.Clone()
	if err := r.ApplyRecord(cellRecs(1, 20, 1)[0], 0); err != nil || r.Redone() != redone+1 {
		t.Fatalf("after Install: redone %d, err %v", r.Redone(), err)
	}
	if pg, _ := set.Read(1); pg == first || set.Owned(pg.ID) != pg || !samePage(first, built) {
		t.Fatal("the next pull edited the installed version, or did not copy it into the set")
	}
}
