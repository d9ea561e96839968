package btree

import "socrates/internal/page"

// The helpers below expose the node codec to other packages that store
// cell-structured data in pages (the version store keeps version entries as
// cells keyed by slot number, so its pages replicate through the very same
// redo path as B-tree pages).

// LookupCell returns the value stored under key in the page's cell area. The
// value aliases the page, capacity-capped, and must not be modified; pages
// are immutable (DESIGN §16), so it stays valid for as long as it is held.
//
//socrates:hotpath once per older row version a read walks past; TestVisibleChainAllocs (versionstore)
func LookupCell(pg *page.Page, key []byte) ([]byte, bool, error) {
	v, err := parseView(pg.Data)
	if err != nil {
		return nil, false, err
	}
	val, found, err := v.find(key)
	if err != nil || !found {
		return nil, false, err
	}
	return val[:len(val):len(val)], true, nil
}

// CellCount reports how many cells the page holds.
func CellCount(pg *page.Page) (int, error) {
	v, err := parseView(pg.Data)
	return v.count, err
}

// PayloadSize reports the encoded size of the page's cell area, used to
// decide when an append-structured page is full.
func PayloadSize(pg *page.Page) (int, error) {
	_, err := parseView(pg.Data)
	return len(pg.Data), err
}

// EmptyNodePayload returns the encoding of an empty, unbounded node — the
// initial payload for a freshly formatted cell-structured page.
func EmptyNodePayload() []byte {
	return make([]byte, 6) // loLen 0 | hiLen 0 | count 0
}

// CellOverhead is the per-cell encoding overhead beyond key and value bytes:
// the cell's two lengths and its slot.
const CellOverhead = cellHeader + slotSize

const (
	cellHeader = 4 // klen u16 | vlen u16
	slotSize   = 2 // a slot is the u16 offset of its cell
)

// RangeCells calls fn for each cell in key order until fn returns false.
// The slices passed to fn alias the page and must not be modified.
func RangeCells(pg *page.Page, fn func(key, value []byte) bool) error {
	v, err := parseView(pg.Data)
	if err != nil {
		return err
	}
	for it := v.iter(); ; {
		k, val, ok, err := it.next()
		if err != nil || !ok || !fn(k, val) {
			return err
		}
	}
}
