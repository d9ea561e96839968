package recovery

import (
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
			return &Owned{Lo: 0, Hi: 10, Cache: cache(t), Batch: map[page.ID]*page.Page{},
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
		{"not a page record", &wal.Record{LSN: lsn, Kind: wal.KindTxnBegin, Txn: 7},
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
			if r.Applied() != wantApplied {
				t.Errorf("%s, %s: watermark %d, want %d", c.name, p.name, r.Applied(), wantApplied)
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
