package fcb

import (
	"bytes"
	"errors"
	"testing"

	"socrates/internal/btree"
	"socrates/internal/page"
	"socrates/internal/simdisk"
	"socrates/internal/wal"
)

func TestMemFileRoundTrip(t *testing.T) {
	f := NewMemFile()
	pg := &page.Page{ID: 5, LSN: 9, Type: page.TypeLeaf, Data: []byte("rows")}
	if err := f.Write(pg); err != nil {
		t.Fatal(err)
	}
	got, err := f.Read(5)
	if err != nil {
		t.Fatal(err)
	}
	if got.LSN != 9 || !bytes.Equal(got.Data, pg.Data) {
		t.Fatalf("got %+v", got)
	}
	if _, err := f.Read(6); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if f.Len() != 1 {
		t.Fatalf("len = %d", f.Len())
	}
}

// TestCachePagesImmutable is the ownership rule (DESIGN §16) at the FCB
// layer: a page held from Read keeps its bytes and LSN while redo installs
// newer versions of the same ID, on the in-memory and the disk-backed file.
func TestCachePagesImmutable(t *testing.T) {
	disk, err := OpenDisk(simdisk.New(simdisk.Instant))
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]PageFile{"mem": NewMemFile(), "disk": disk} {
		first := &page.Page{ID: 7, LSN: 1, Type: page.TypeLeaf, Data: btree.EmptyNodePayload()}
		if err := f.Write(first); err != nil {
			t.Fatal(err)
		}
		held, err := f.Read(7)
		if err != nil {
			t.Fatal(err)
		}
		if name == "mem" && held != first {
			t.Fatal("MemFile.Read did not return the stored page")
		}
		want := held.Clone()
		for i := 0; i < 50; i++ {
			cur, err := f.Read(7)
			if err != nil {
				t.Fatal(err)
			}
			rec := &wal.Record{LSN: cur.LSN.Next(), Kind: wal.KindCellPut, Page: 7,
				Key: []byte{byte('a' + i%20)}, Value: []byte{byte(i)}}
			next, applied, err := btree.Apply(cur, rec)
			if err != nil || !applied {
				t.Fatalf("%s: redo %d: %v %v", name, i, applied, err)
			}
			if err := f.Write(next); err != nil {
				t.Fatal(err)
			}
		}
		if held.LSN != want.LSN || !bytes.Equal(held.Data, want.Data) {
			t.Fatalf("%s: held page changed under redo: lsn %d -> %d", name, want.LSN, held.LSN)
		}
		if cur, _ := f.Read(7); cur.LSN != 51 {
			t.Fatalf("%s: current version at lsn %d, want 51", name, cur.LSN)
		}
	}
}

func TestMemFileRange(t *testing.T) {
	f := NewMemFile()
	for i := 1; i <= 4; i++ {
		_ = f.Write(&page.Page{ID: page.ID(i), Type: page.TypeLeaf})
	}
	seen := 0
	f.Range(func(*page.Page) bool { seen++; return seen < 3 })
	if seen != 3 {
		t.Fatalf("range visited %d", seen)
	}
}

func TestDiskFileRoundTripAndRecovery(t *testing.T) {
	dev := simdisk.New(simdisk.Instant)
	f, err := OpenDisk(dev)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i += 2 { // sparse writes leave holes
		pg := &page.Page{ID: page.ID(i), LSN: page.LSN(i), Type: page.TypeLeaf,
			Data: []byte{byte(i)}}
		if err := f.Write(pg); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Read(1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("hole read err = %v", err)
	}

	// Reopen: recovery must index exactly the written pages.
	re, err := OpenDisk(dev)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 4 {
		t.Fatalf("recovered %d pages, want 4", re.Len())
	}
	pg, err := re.Read(6)
	if err != nil || pg.Data[0] != 6 {
		t.Fatalf("read 6: %+v %v", pg, err)
	}
	if _, err := re.Read(3); !errors.Is(err, ErrNotFound) {
		t.Fatalf("hole after recovery: %v", err)
	}
}

func TestDiskFileOverwrite(t *testing.T) {
	dev := simdisk.New(simdisk.Instant)
	f, _ := OpenDisk(dev)
	_ = f.Write(&page.Page{ID: 1, LSN: 1, Type: page.TypeLeaf, Data: []byte("old")})
	_ = f.Write(&page.Page{ID: 1, LSN: 2, Type: page.TypeLeaf, Data: []byte("new")})
	pg, err := f.Read(1)
	if err != nil || string(pg.Data) != "new" || pg.LSN != 2 {
		t.Fatalf("got %+v %v", pg, err)
	}
}
