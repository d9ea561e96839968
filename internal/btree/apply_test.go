package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"socrates/internal/page"
	"socrates/internal/wal"
)

// redoKey is the fuzz programs' key k of 16; the page starts with the even
// ones, so puts both replace and insert.
func redoKey(k byte) []byte { return []byte{'k', k % 16} }

// redoProgram decodes a fuzz program into page-1 records, three bytes each:
// the operation, the key (redoKey) and the value
// size (x3 bytes, so values grow and shrink; 255 is half a page). A
// stale record reuses an LSN the page already reflects; a wrong-page and a
// non-page record are redo errors.
func redoProgram(r *rand.Rand, prog []byte) []*wal.Record {
	var recs []*wal.Record
	lsn := page.LSN(1)
	for ; len(prog) >= 3; prog = prog[3:] {
		op, k, size := prog[0]%10, prog[1], int(prog[2])*3
		if prog[2] == 255 {
			size = page.MaxData / 2 // a second one overflows
		}
		lsn = lsn.Next()
		rec := &wal.Record{LSN: lsn, Kind: wal.KindCellPut, Page: 1, PageType: page.TypeLeaf,
			Key: redoKey(k), Value: bytes.Repeat([]byte{op ^ k}, size)}
		switch op {
		case 6:
			img, err := randomNode(r, false).encode()
			if err != nil {
				panic(err)
			}
			rec.Kind, rec.Value, rec.Key = wal.KindPageImage, img, nil
		case 7:
			rec.LSN = lsn.Prev()
		case 8:
			rec.Page = 2
		case 9:
			rec.Kind = wal.KindTxnCommit
		}
		recs = append(recs, rec)
	}
	return recs
}

// checkRedoInPlace replays recs onto a shared page two ways: copy-on-write
// (Apply, every record) and as redo does for a version it owns (Apply for
// the first record that applies, Edit in place after). With slack, the
// owned payload is moved to a buffer with that much spare capacity, as one
// Edit grew has: then an edit that overflows the page still fits it. Every step must give
// the same applied flag, error, payload, LSN and type; a failed edit must
// leave the owned page as it was; and the shared page must never change.
func checkRedoInPlace(t *testing.T, base *page.Page, recs []*wal.Record, slack int) {
	t.Helper()
	want := base.Clone()
	cow, own, owned := base, base, false
	for i, rec := range recs {
		next, cowApplied, cowErr := Apply(cow, rec)
		var applied bool
		var err error
		before := own.Clone()
		if owned {
			applied, err = Edit(own, rec)
		} else {
			if own, owned, err = Apply(own, rec); owned && slack > 0 {
				own.Data = append(make([]byte, 0, len(own.Data)+slack), own.Data...)
			}
			applied = owned
		}
		if applied != cowApplied || fmt.Sprint(err) != fmt.Sprint(cowErr) {
			t.Fatalf("record %d (%v): in place applied %v err %v, copy-on-write %v %v",
				i, rec.Kind, applied, err, cowApplied, cowErr)
		}
		if err != nil && (own.LSN != before.LSN || own.Type != before.Type || !bytes.Equal(own.Data, before.Data)) {
			t.Fatalf("record %d (%v): a failed edit changed the page", i, rec.Kind)
		}
		cow = next
		if own.LSN != cow.LSN || own.Type != cow.Type || !bytes.Equal(own.Data, cow.Data) {
			t.Fatalf("record %d (%v): in place LSN %d type %v, copy-on-write LSN %d type %v; payloads equal: %v",
				i, rec.Kind, own.LSN, own.Type, cow.LSN, cow.Type, bytes.Equal(own.Data, cow.Data))
		}
	}
	if base.LSN != want.LSN || !bytes.Equal(base.Data, want.Data) {
		t.Fatal("redo changed the shared page it started from")
	}
}

// FuzzRedoInPlace holds in-place redo (Edit, the page server's and a fetch's
// redo onto a version they own) to copy-on-write redo (Apply) over random
// runs of puts: growing and shrinking values, inserts and replacements,
// overflows, page images, stale records and rejected records.
func FuzzRedoInPlace(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 10, 1, 1, 40, 2, 1, 2, 3, 1, 80})                                                  // one cell grows, shrinks, grows
	f.Add(int64(2), []byte{0, 2, 5, 4, 3, 0, 5, 2, 0, 4, 2, 0})                                                     // empty values on absent and present keys
	f.Add(int64(3), []byte{0, 1, 30, 0, 3, 255, 0, 5, 254, 0, 7, 254, 0, 9, 254, 0, 11, 254, 0, 0, 254, 0, 13, 10}) // an overflow on the owned page
	f.Add(int64(4), []byte{6, 0, 0, 0, 5, 20, 6, 0, 0, 0, 6, 9})                                                    // page images before and after cells
	f.Add(int64(5), []byte{4, 9, 0, 4, 2, 0, 0, 1, 3, 7, 1, 3, 8, 1, 1, 9, 1, 1})                                   // a first record that inserts an empty value, then edits, stale and rejected records
	f.Fuzz(func(t *testing.T, seed int64, prog []byte) {
		r := rand.New(rand.NewSource(seed))
		n := randomNode(r, false)
		for k := byte(0); k < 16; k += 2 {
			n.put(redoKey(k), []byte{k})
		}
		data, err := n.encode()
		if err != nil {
			t.Fatal(err)
		}
		base := &page.Page{ID: 1, LSN: 1, Type: page.TypeLeaf, Data: data}
		recs := redoProgram(r, prog)
		for _, slack := range []int{0, page.Size / 2, page.Size} {
			checkRedoInPlace(t, base, recs, slack)
		}
	})
}

// TestEditRefusesAnImage: a page with an image shares its bytes with
// whoever holds the image, so Edit must not write it.
func TestEditRefusesAnImage(t *testing.T) {
	data, err := (&node{}).encode()
	if err != nil {
		t.Fatal(err)
	}
	img, err := (&page.Page{ID: 1, LSN: 1, Type: page.TypeLeaf, Data: data}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	pg, err := page.Decode(img)
	if err != nil {
		t.Fatal(err)
	}
	rec := &wal.Record{LSN: 2, Kind: wal.KindCellPut, Page: 1, Key: []byte("k"), Value: []byte("v")}
	if applied, err := Edit(pg, rec); err == nil || applied || pg.LSN != 1 {
		t.Fatalf("Edit on a decoded page: applied %v err %v LSN %d", applied, err, pg.LSN)
	}
}
