package recovery

import (
	"bytes"
	"math/rand"
	"testing"

	"socrates/internal/btree"
	"socrates/internal/fcb"
	"socrates/internal/page"
	"socrates/internal/rbpex"
	"socrates/internal/wal"
)

// publisher is a policy whose pager checks each version it is handed to
// publish, and keeps it with a copy: no published version may change after,
// as a reader may hold it.
type publisher struct {
	pages
	t         *testing.T
	check     func(*page.Page)
	published []*page.Page
	want      []*page.Page
}

func (p *publisher) Write(pg *page.Page) error {
	p.check(pg)
	p.hold(pg)
	return p.pages.Write(pg)
}

func (p *publisher) hold(pg *page.Page) {
	p.published = append(p.published, pg)
	p.want = append(p.want, pg.Clone())
}

func (p *publisher) unchanged() {
	p.t.Helper()
	for i, pg := range p.published {
		if !samePage(pg, p.want[i]) {
			p.t.Fatalf("page %d's published version at LSN %d changed", p.want[i].ID, p.want[i].LSN)
		}
	}
}

// FuzzPullMatchesRedo runs a random record program through the cursor under
// each of the four policies (DESIGN §21.2), split into pulls and each pull
// into blocks, and installs the cursor's set at the consumer's publish
// point: after each pull for a page server, a secondary and a restore, after
// each block for an HADR replica. A pull may carry a poison record, one for
// a corrupt page, whose redo fails: a page server or a restore drops the
// pull unpublished and pulls it again without the poison, a secondary or a
// replica drops the record. Every version a pager is handed to publish must
// be what copy-on-write redo (btree.Apply) of the same records gives at its
// LSN, and no published version — a page held at the start, a fetched
// checkpoint copy, a version an earlier install published — may change
// after. At the end every page is copy-on-write redo's last version; a
// secondary ignores a page it does not cache until its image record (§4.5).
//
// prog is read three bytes a record: the page (1–7, an image record when
// the page does not exist yet or the byte is 240 or more), the key and the
// value's length. Every consumer starts with pages 1–3 and with page 9,
// which is corrupt; pages 4 and 5 are in the page server's checkpoint, held
// by the replica and the restore, and not by the secondary; 6 and 7 are
// nowhere.
func FuzzPullMatchesRedo(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 10, 0, 2, 40, 1, 1, 20, 3, 1, 5, 0, 1, 80, 5, 2, 0})
	f.Add(int64(2), []byte{5, 0, 0, 6, 1, 30, 5, 3, 12, 6, 3, 0, 245, 1, 1, 5, 4, 60})
	f.Add(int64(3), []byte{2, 0, 150, 2, 1, 150, 2, 0, 3, 241, 0, 0, 2, 2, 9, 3, 1, 40, 4, 4, 4})
	f.Fuzz(func(t *testing.T, seed int64, prog []byte) {
		leaf := func(id page.ID) *page.Page {
			return &page.Page{ID: id, LSN: 1, Type: page.TypeLeaf, Data: btree.EmptyNodePayload()}
		}
		// The program, and every version copy-on-write redo builds of it.
		history := map[page.ID][]*page.Page{}
		for id := page.ID(1); id <= 5; id++ {
			history[id] = []*page.Page{leaf(id)}
		}
		imaged := map[page.ID]bool{}
		var recs []*wal.Record
		for lsn := page.LSN(2); len(prog) >= 3; lsn++ {
			id, key, n := page.ID(1+prog[0]%7), prog[1]%8, int(prog[2])
			rec := &wal.Record{LSN: lsn, Kind: wal.KindCellPut, Page: id, PageType: page.TypeLeaf,
				Key: []byte{'k', key}, Value: bytes.Repeat([]byte{key}, n)}
			if history[id] == nil || prog[0] >= 240 {
				rec.Kind, rec.Key, rec.Value = wal.KindPageImage, nil, btree.EmptyNodePayload()
				imaged[id] = true
			}
			prog = prog[3:]
			recs = append(recs, rec)
			var next *page.Page
			var err error
			if h := history[id]; h == nil {
				next, err = btree.NewFormatted(rec)
			} else {
				next, _, err = btree.Apply(h[len(h)-1], rec)
			}
			if err != nil {
				t.Fatalf("reference redo at LSN %d: %v", lsn, err)
			}
			history[id] = append(history[id], next)
		}
		atLSN := func(pg *page.Page) bool {
			for _, v := range history[pg.ID] {
				if v.LSN == pg.LSN {
					return samePage(pg, v)
				}
			}
			return false
		}
		corrupt := func() *page.Page { return &page.Page{ID: 9, LSN: 1, Type: page.TypeLeaf, Data: []byte{0xFF}} }

		for _, c := range []struct {
			name     string
			make     func(p *publisher) (pages, func(page.ID) (*page.Page, bool))
			ends     bool // a failed redo ends the pull
			perBlock bool // installs after each block
		}{
			{"page server", func(p *publisher) (pages, func(page.ID) (*page.Page, bool)) {
				cache := heldCache(t, p, leaf, 1, 2, 3)
				p.hold(corrupt())
				_ = cache.Put(p.published[len(p.published)-1])
				store := map[page.ID]*page.Page{4: leaf(4), 5: leaf(5)}
				for _, pg := range store {
					p.hold(pg)
				}
				return &Owned{PageFile: cachePager{cache}, Lo: 0, Hi: 10,
						Fetch: func(id page.ID) (*page.Page, error) { return store[id], nil }},
					func(id page.ID) (*page.Page, bool) {
						if pg, ok := cache.Get(id); ok {
							return pg, true
						}
						pg, ok := store[id]
						return pg, ok
					}
			}, true, false},
			{"secondary", func(p *publisher) (pages, func(page.ID) (*page.Page, bool)) {
				cache := heldCache(t, p, leaf, 1, 2, 3)
				p.hold(corrupt())
				_ = cache.Put(p.published[len(p.published)-1])
				return &Cached{Pending: pendingSet{}, Cache: cache}, cache.Get
			}, false, false},
			{"hadr", func(p *publisher) (pages, func(page.ID) (*page.Page, bool)) {
				file := heldFile(p, leaf(1), leaf(2), leaf(3), leaf(4), leaf(5), corrupt())
				return Replica{file}, fileGet(file)
			}, false, true},
			{"pitr", func(p *publisher) (pages, func(page.ID) (*page.Page, bool)) {
				file := heldFile(p, leaf(1), leaf(2), leaf(3), leaf(4), leaf(5), corrupt())
				return Restore{file}, fileGet(file)
			}, true, false},
		} {
			r := rand.New(rand.NewSource(seed))
			p := &publisher{t: t, check: func(pg *page.Page) {
				if !atLSN(pg) {
					t.Fatalf("%s: published page %d at LSN %d, %d bytes; copy-on-write redo has no such version",
						c.name, pg.ID, pg.LSN, len(pg.Data))
				}
			}}
			var final func(page.ID) (*page.Page, bool)
			p.pages, final = c.make(p)
			replay := NewReplayer(p, 1)
			apply := func(blocks [][]*wal.Record) error {
				for _, b := range blocks {
					for _, rec := range b {
						if err := replay.ApplyRecord(rec, 0); err != nil {
							return err
						}
					}
					if c.perBlock {
						if err := replay.PageSet().Install(); err != nil {
							t.Fatal(err)
						}
					}
				}
				return replay.PageSet().Install()
			}
			for rest := recs; len(rest) > 0; {
				pull := rest[:min(len(rest), 1+r.Intn(8))]
				rest = rest[len(pull):]
				if r.Intn(4) == 0 {
					poison := &wal.Record{LSN: 1 << 40, Kind: wal.KindCellPut, Page: 9,
						PageType: page.TypeLeaf, Key: []byte("x")}
					at := r.Intn(len(pull) + 1)
					bad := append(append(append([]*wal.Record{}, pull[:at]...), poison), pull[at:]...)
					err := apply(split(r, bad))
					if c.ends != (err != nil) {
						t.Fatalf("%s: a pull with a record for a corrupt page: %v", c.name, err)
					}
					if err == nil {
						p.unchanged()
						continue // the poison was dropped, the rest installed
					}
					replay.PageSet().Drop() // as ApplyBlocks does on a failure: nothing the pull staged is published
				}
				if err := apply(split(r, pull)); err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
				p.unchanged()
			}

			for id := page.ID(1); id <= 7; id++ {
				got, ok := final(id)
				h := history[id]
				switch {
				case h == nil && ok:
					t.Fatalf("%s: page %d exists; no record made it", c.name, id)
				case h == nil:
				case c.name == "secondary" && id > 3 && !imaged[id]:
					if ok {
						t.Fatalf("%s: page %d is cached; it was never cached and had no image record", c.name, id)
					}
				case !ok:
					t.Fatalf("%s: page %d is missing", c.name, id)
				case !samePage(got, h[len(h)-1]):
					t.Fatalf("%s: page %d: LSN %d, %d bytes; copy-on-write redo gives LSN %d, %d bytes",
						c.name, id, got.LSN, len(got.Data), h[len(h)-1].LSN, len(h[len(h)-1].Data))
				}
			}
		}
	})
}

// split cuts a pull into one to three blocks.
func split(r *rand.Rand, pull []*wal.Record) [][]*wal.Record {
	var blocks [][]*wal.Record
	for len(pull) > 0 {
		n := 1 + r.Intn(len(pull))
		if len(blocks) == 2 {
			n = len(pull)
		}
		blocks, pull = append(blocks, pull[:n]), pull[n:]
	}
	return blocks
}

// heldCache is a cache holding leaf(id) for each id, each held by p as
// published.
func heldCache(t *testing.T, p *publisher, leaf func(page.ID) *page.Page, ids ...page.ID) *rbpex.Cache {
	c, err := rbpex.Open(rbpex.Config{MemPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		pg := leaf(id)
		p.hold(pg)
		if err := c.Put(pg); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// heldFile is a page file holding pages, each held by p as published.
func heldFile(p *publisher, pages ...*page.Page) *fcb.MemFile {
	f := fcb.NewMemFile()
	for _, pg := range pages {
		p.hold(pg)
		_ = f.Write(pg)
	}
	return f
}

func fileGet(f *fcb.MemFile) func(page.ID) (*page.Page, bool) {
	return func(id page.ID) (*page.Page, bool) {
		pg, err := f.Read(id)
		return pg, err == nil
	}
}
