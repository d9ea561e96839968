package recovery

import (
	"bytes"
	"math/rand"
	"testing"

	"socrates/internal/btree"
	"socrates/internal/page"
	"socrates/internal/rbpex"
	"socrates/internal/wal"
)

// FuzzPullMatchesRedo runs a random record program through the cursor under
// a page server's policy, split over several pulls, each installed after it
// applies (DESIGN §16.2). A pull may hit a redo failure — a record for a
// corrupt page — which drops it; it is then pulled again without that
// record. Every page must end as copy-on-write redo (btree.Apply) of the
// same records leaves it, and no published version — a cached page, a
// fetched checkpoint copy, a version an earlier pull installed — may change
// after it was published: a reader may hold it.
//
// prog is read three bytes a record: the page (1–7, an image record when
// the page does not exist yet or the byte is 240 or more), the key and the
// value's length. Pages 1–3 start cached, 4 and 5 in the checkpoint, 6 and
// 7 nowhere; page 9 is cached and corrupt.
func FuzzPullMatchesRedo(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 10, 0, 2, 40, 1, 1, 20, 3, 1, 5, 0, 1, 80, 5, 2, 0})
	f.Add(int64(2), []byte{5, 0, 0, 6, 1, 30, 5, 3, 12, 6, 3, 0, 245, 1, 1, 5, 4, 60})
	f.Add(int64(3), []byte{2, 0, 150, 2, 1, 150, 2, 0, 3, 241, 0, 0, 2, 2, 9, 3, 1, 40, 4, 4, 4})
	f.Fuzz(func(t *testing.T, seed int64, prog []byte) {
		r := rand.New(rand.NewSource(seed))
		leaf := func(id page.ID) *page.Page {
			return &page.Page{ID: id, LSN: 1, Type: page.TypeLeaf, Data: btree.EmptyNodePayload()}
		}
		c, err := rbpex.Open(rbpex.Config{MemPages: 64})
		if err != nil {
			t.Fatal(err)
		}
		ref := map[page.ID]*page.Page{} // copy-on-write redo's version of each page
		var published []*page.Page      // every version a reader may hold
		for id := page.ID(1); id <= 3; id++ {
			ref[id] = leaf(id)
			published = append(published, ref[id])
			if err := c.Put(ref[id]); err != nil {
				t.Fatal(err)
			}
		}
		store := map[page.ID]*page.Page{4: leaf(4), 5: leaf(5)}
		for id, pg := range store {
			ref[id] = pg
			published = append(published, pg)
		}
		corrupt := &page.Page{ID: 9, LSN: 1, Type: page.TypeLeaf, Data: []byte{0xFF}}
		if err := c.Put(corrupt); err != nil {
			t.Fatal(err)
		}
		published = append(published, corrupt)
		want := make([]*page.Page, len(published))
		for i, pg := range published {
			want[i] = pg.Clone()
		}

		// The program, and the reference redo of it.
		var recs []*wal.Record
		for lsn := page.LSN(2); len(prog) >= 3; lsn++ {
			id, key, n := page.ID(1+prog[0]%7), prog[1]%8, int(prog[2])
			rec := &wal.Record{LSN: lsn, Kind: wal.KindCellPut, Page: id, PageType: page.TypeLeaf,
				Key: []byte{'k', key}, Value: bytes.Repeat([]byte{key}, n)}
			if ref[id] == nil || prog[0] >= 240 {
				rec.Kind, rec.Key, rec.Value = wal.KindPageImage, nil, btree.EmptyNodePayload()
			}
			prog = prog[3:]
			recs = append(recs, rec)
			if ref[id] == nil {
				ref[id], err = btree.NewFormatted(rec)
			} else {
				ref[id], _, err = btree.Apply(ref[id], rec)
			}
			if err != nil {
				t.Fatalf("reference redo at LSN %d: %v", lsn, err)
			}
		}

		owned := &Owned{Lo: 0, Hi: 10, Set: btree.NewPageSet(cachePager{c}),
			Fetch: func(id page.ID) (*page.Page, error) { return store[id], nil }}
		replay := NewReplayer(owned, 1, nil)
		for len(recs) > 0 {
			pull := recs[:min(len(recs), 1+r.Intn(8))]
			recs = recs[len(pull):]
			if r.Intn(4) == 0 {
				poison := &wal.Record{LSN: 1 << 40, Kind: wal.KindCellPut, Page: corrupt.ID,
					PageType: page.TypeLeaf, Key: []byte("x")}
				at := r.Intn(len(pull) + 1)
				bad := append(append(append([]*wal.Record{}, pull[:at]...), poison), pull[at:]...)
				if err := replay.ApplyBlock(&wal.Block{Records: bad}, 0); err == nil {
					t.Fatal("a pull with a record for a corrupt page applied")
				}
			}
			owned.Set.Drop() // what a failed pull left, unpublished
			if err := replay.ApplyBlock(&wal.Block{Records: pull}, 0); err != nil {
				t.Fatal(err)
			}
			for _, rec := range pull {
				if pg, err := owned.Set.Read(rec.Page); err == nil && owned.Set.Owns(pg) {
					published = append(published, pg)
					want = append(want, pg.Clone())
				}
			}
			if err := owned.Set.Install(); err != nil {
				t.Fatal(err)
			}
			for i, pg := range published {
				if !samePage(pg, want[i]) {
					t.Fatalf("page %d's published version at LSN %d changed", want[i].ID, want[i].LSN)
				}
			}
		}

		for id := page.ID(1); id <= 7; id++ {
			got, ok := c.Get(id)
			switch {
			case ref[id] == nil && ok:
				t.Fatalf("page %d is cached; no record made it", id)
			case ref[id] == nil:
			case id >= 4 && id <= 5 && !ok:
				if got = store[id]; !samePage(got, ref[id]) {
					t.Fatalf("page %d, never pulled, is not its checkpoint copy", id)
				}
			case !ok:
				t.Fatalf("page %d is not cached", id)
			case !samePage(got, ref[id]):
				t.Fatalf("page %d: LSN %d, %d bytes; copy-on-write redo gives LSN %d, %d bytes",
					id, got.LSN, len(got.Data), ref[id].LSN, len(ref[id].Data))
			}
		}
	})
}
