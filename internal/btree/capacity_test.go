package btree

import (
	"encoding/binary"
	"testing"

	"socrates/internal/page"
	"socrates/internal/wal"
)

// rowShapes are the key and value sizes the benchmark's tables keep in their
// trees: a row's value is its newest version, a 21-byte header and the row.
// The counts and sizes were measured on the node format that carried no slot
// array (klen u16 | key | vlen u32 | value per cell); a cell still costs
// CellOverhead bytes beyond its key and value, so they must not move.
var rowShapes = []struct {
	name                         string
	klen, vlen                   int
	leafCells, leafBytes         int // the root leaf just before it first splits
	internalCells, internalBytes int // the internal root just before it splits
}{
	{"cdb-fixed", 8, 21 + 64, 82, 8124, 371, 8160},
	{"cdb-lean", 8, 21 + 96, 62, 8128, 371, 8160},
	{"cdb-fat", 8, 21 + 512, 14, 7664, 371, 8160},
	{"sql-t", 9, 21 + 73, 74, 8072, 354, 8139},
}

// shapeKey is the i-th key of a shape: big-endian, so ascending i is
// ascending key order, as the benchmark loads its tables.
func shapeKey(klen, i int) []byte {
	k := make([]byte, klen)
	binary.BigEndian.PutUint64(k[klen-8:], uint64(i))
	return k
}

// TestFullNodesHoldTheSameCells loads each row shape in key order through
// Tree.Put and records the fullest root leaf and internal root before they
// split. The payload of a page-image record is the node's payload, so the
// records keep their length too.
func TestFullNodesHoldTheSameCells(t *testing.T) {
	for _, s := range rowShapes {
		t.Run(s.name, func(t *testing.T) {
			pager := &sharedPager{pages: map[page.ID]*page.Page{}}
			tree, err := Create(pager, &discardLog{}, 1)
			if err != nil {
				t.Fatal(err)
			}
			value := make([]byte, s.vlen)
			var leafCells, leafBytes, internalCells, internalBytes int
			for i := 0; ; i++ {
				if err := tree.Put(1, shapeKey(s.klen, i), value); err != nil {
					t.Fatal(err)
				}
				root := pager.pages[tree.Root()]
				n, err := CellCount(root)
				if err != nil {
					t.Fatal(err)
				}
				if root.Type == page.TypeLeaf {
					leafCells, leafBytes = n, len(root.Data)
					continue
				}
				if n < internalCells { // the internal root split
					break
				}
				internalCells, internalBytes = n, len(root.Data)
			}
			if leafCells != s.leafCells || leafBytes != s.leafBytes {
				t.Errorf("full leaf: %d cells in %d bytes, want %d in %d", leafCells, leafBytes, s.leafCells, s.leafBytes)
			}
			if internalCells != s.internalCells || internalBytes != s.internalBytes {
				t.Errorf("full internal node: %d cells in %d bytes, want %d in %d", internalCells, internalBytes, s.internalCells, s.internalBytes)
			}
		})
	}
}

// TestPageImageRecordLength pins the logged size of one node's image: the
// record carries the payload as its value.
func TestPageImageRecordLength(t *testing.T) {
	n := &node{lo: []byte("b"), hi: []byte("m")}
	for i := 0; i < 40; i++ {
		n.put(shapeKey(9, i), make([]byte, 94))
	}
	data := mustEncode(t, n)
	rec := &wal.Record{Kind: wal.KindPageImage, Page: 7, PageType: page.TypeLeaf, Value: data}
	blk := &wal.Block{Records: []*wal.Record{rec}}
	if got, want := len(data), 4368; got != want {
		t.Errorf("payload of %d bytes, want %d", got, want)
	}
	if got, want := blk.EncodedSize(), 4436; got != want {
		t.Errorf("image record's block of %d bytes, want %d", got, want)
	}
}
