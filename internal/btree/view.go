package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"socrates/internal/page"
)

// errOverflow reports an edit whose result no longer fits a page. Tree.Put
// answers it with a split; redo reports it (the primary never logs a cell
// op that overflows).
var errOverflow = errors.New("btree: node exceeds page capacity")

// view reads a node where it lies: in the encoded page payload (layout in
// node.encode). Parsing touches only the header, the fences and the place of
// the slot array; a search is a binary search over the slots and iteration
// walks the cells in place. Neither allocates, so every slice a view hands
// out aliases the payload — which is immutable, like the page it belongs to.
// Edits (put) build the new payload in one allocation as prefix + cell +
// suffix, or — for a payload redo owns (Edit) — make the same edit in place.
//
// Slots and cells are bounds-checked as they are read: a truncated or
// corrupt payload yields errCorrupt, never a panic.
type view struct {
	data   []byte // the whole payload
	lo, hi []byte // fence keys: node covers [lo, hi); empty hi = +infinity
	count  int    // number of cells
	first  int    // offset of the first cell; the u16 count sits just before it
	slots  int    // offset of the slot array, which ends the payload and the cells
}

// corrupt builds the errCorrupt for a payload defect. Outlined so the walks
// below stay allocation-free on their hot (error-free) paths.
func corrupt(what string) error { return fmt.Errorf("%w: %s", errCorrupt, what) }

// parseView reads the header and fences of a node payload and places its
// slot array.
//
//socrates:hotpath once per page visited by Get/Put/Scan/Apply; TestTreeGetAllocs
func parseView(data []byte) (view, error) {
	if len(data) < 2 {
		return view{}, corrupt("short payload")
	}
	pos := 2
	loLen := int(binary.LittleEndian.Uint16(data))
	if len(data) < pos+loLen+2 {
		return view{}, corrupt("truncated lo fence")
	}
	v := view{data: data, lo: data[pos : pos+loLen]}
	pos += loLen
	hiLen := int(binary.LittleEndian.Uint16(data[pos:]))
	pos += 2
	if len(data) < pos+hiLen+2 {
		return view{}, corrupt("truncated hi fence")
	}
	v.hi = data[pos : pos+hiLen]
	pos += hiLen
	v.count = int(binary.LittleEndian.Uint16(data[pos:]))
	v.first = pos + 2
	v.slots = len(data) - slotSize*v.count
	if v.slots < v.first {
		return view{}, corrupt("slot array overlaps the header")
	}
	return v, nil
}

// covers reports whether key falls inside the node's fence interval.
// An empty lo fence means -infinity.
func (v *view) covers(key []byte) bool {
	if len(v.lo) > 0 && bytes.Compare(key, v.lo) < 0 {
		return false
	}
	return len(v.hi) == 0 || bytes.Compare(key, v.hi) < 0
}

// slot returns the offset of cell i (0 <= i < count), which must lie in the
// cell area.
//
//socrates:hotpath every probe of a search and every cell of a walk; TestTreeGetAllocs, TestTreeScanAllocs
func (v *view) slot(i int) (int, error) {
	off := int(binary.LittleEndian.Uint16(v.data[v.slots+slotSize*i:]))
	if off < v.first || off >= v.slots {
		return 0, corrupt("slot outside the cell area")
	}
	return off, nil
}

// cellAt decodes the cell starting at off and returns the offset just past
// it. Key and value are capacity-capped, so an append to either copies and
// never writes into the payload.
//
//socrates:hotpath every probe of a search and every cell walked; TestTreeGetAllocs, TestTreeScanAllocs
func (v *view) cellAt(off int) (key, value []byte, next int, err error) {
	d := v.data[:v.slots]
	if len(d) < off+2 {
		return nil, nil, 0, corrupt("truncated cell")
	}
	klen := int(binary.LittleEndian.Uint16(d[off:]))
	off += 2
	if len(d) < off+klen+2 {
		return nil, nil, 0, corrupt("truncated cell key")
	}
	key = d[off : off+klen : off+klen]
	off += klen
	vlen := int(binary.LittleEndian.Uint16(d[off:]))
	off += 2
	if vlen > len(d)-off {
		return nil, nil, 0, corrupt("truncated cell value")
	}
	return key, d[off : off+vlen : off+vlen], off + vlen, nil
}

// end checks that the walk that consumed every cell stopped exactly at the
// slot array.
func (v *view) end(off int) error {
	if off != v.slots {
		return corrupt("cells do not end at the slot array")
	}
	return nil
}

// search binary-searches the slots for key. It returns the index of the
// first cell whose key is >= key and that cell's offset — count and the end
// of the cells when there is none — and whether that cell holds key.
//
//socrates:hotpath every in-node search; TestTreeGetAllocs, TestTreeScanAllocs
func (v *view) search(key []byte) (i, off int, found bool, err error) {
	lo, hi := 0, v.count
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		moff, err := v.slot(mid)
		if err != nil {
			return 0, 0, false, err
		}
		k, _, _, err := v.cellAt(moff)
		if err != nil {
			return 0, 0, false, err
		}
		switch c := bytes.Compare(k, key); {
		case c < 0:
			lo = mid + 1
		case c > 0:
			hi = mid
		default:
			return mid, moff, true, nil
		}
	}
	if lo == v.count {
		return lo, v.slots, false, nil
	}
	off, err = v.slot(lo)
	return lo, off, false, err
}

// floor returns the index and offset of the last cell whose key is <= key;
// i is -1 when every key is above it.
//
//socrates:hotpath the routing step of every descent; TestTreeGetAllocs, TestTreeScanAllocs
func (v *view) floor(key []byte) (i, off int, err error) {
	i, off, found, err := v.search(key)
	if err != nil || found {
		return i, off, err
	}
	if i == 0 {
		return -1, 0, nil
	}
	off, err = v.slot(i - 1)
	return i - 1, off, err
}

// find returns the value stored under key.
//
//socrates:hotpath the leaf search of every point read; TestTreeGetAllocs
func (v *view) find(key []byte) (value []byte, found bool, err error) {
	_, off, found, err := v.search(key)
	if err != nil || !found {
		return nil, false, err
	}
	_, value, _, err = v.cellAt(off)
	return value, err == nil, err
}

// childFor returns the child page an internal node routes key to: the last
// cell whose key <= key. The first cell's key is the node's lo fence, or
// empty (covers -inf).
//
//socrates:hotpath one per internal level of every traversal; TestTreeGetAllocs
func (v *view) childFor(key []byte) (page.ID, error) {
	i, off, err := v.floor(key)
	if err != nil {
		return page.InvalidID, err
	}
	if i < 0 {
		return page.InvalidID, corrupt("key below first separator")
	}
	_, child, _, err := v.cellAt(off)
	if err != nil {
		return page.InvalidID, err
	}
	return decodeChild(child)
}

// cellIter steps through a node's cells in key order. Each cell's slot must
// point where the walk stands, so a walk over every cell checks the whole
// slot array against the cells.
type cellIter struct {
	v   *view
	off int // offset of cell i
	i   int
}

func (v *view) iter() cellIter { return cellIter{v: v, off: v.first} }

// iterAt starts a walk at cell i, which lies at off (as search reports it).
func (v *view) iterAt(i, off int) cellIter { return cellIter{v: v, off: off, i: i} }

// next returns the next cell; ok is false once the cells are exhausted.
//
//socrates:hotpath once per cell of every scan; TestTreeScanAllocs
func (it *cellIter) next() (key, value []byte, ok bool, err error) {
	if it.i == it.v.count {
		return nil, nil, false, it.v.end(it.off)
	}
	if off, err := it.v.slot(it.i); err != nil || off != it.off {
		if err == nil {
			err = corrupt("slot out of place")
		}
		return nil, nil, false, err
	}
	key, value, next, err := it.v.cellAt(it.off)
	if err != nil {
		return nil, nil, false, err
	}
	it.off = next
	it.i++
	return key, value, true, nil
}

// appendCell appends the encoding of one cell.
func appendCell(buf, key, value []byte) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(key)))
	buf = append(buf, key...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(value)))
	return append(buf, value...)
}

// put returns the payload with key→value upserted, or errOverflow — before
// anything is written — when that payload would not fit a page. In place
// (own) it edits v's payload, which the caller must own (Edit).
func (v *view) put(key, value []byte, own bool) ([]byte, error) {
	i, start, found, err := v.search(key)
	if err != nil {
		return nil, err
	}
	end := start
	if found {
		if _, _, end, err = v.cellAt(start); err != nil {
			return nil, err
		}
	}
	n := cellHeader + len(key) + len(value)
	grow := n - (end - start)
	if !found {
		grow += slotSize
	}
	if len(v.data)+grow > page.MaxData {
		return nil, errOverflow
	}
	buf := v.splice(i, start, end, n, !found, own)
	appendCell(buf[start:start], key, value)
	return buf, nil
}

// splice returns the payload with the bytes [start, end) of cell i replaced
// by a gap of n bytes for the caller to fill, and the slot array to match:
// the slots of later cells shifted by the change in size and, to insert, a
// new slot i at start with the count raised. Copy-on-write it is a new
// buffer of exactly the new size, prefix and the rest copied in; in place
// (own) it is v's own buffer with the rest moved by copy, grown append-style
// — so a page that keeps growing reallocates rarely — only when it lacks
// capacity.
func (v *view) splice(i, start, end, n int, insert, own bool) []byte {
	delta := n - (end - start) // the cells' change in size
	// Past end, two runs of bytes move: the later cells with the slots that
	// keep their values (those of the cells before i, and of cell i when it
	// is replaced) move by delta; the later slots move by grow.
	keep, grow := i+1, delta
	if insert {
		keep, grow = i, delta+slotSize
	}
	size := len(v.data) + grow
	var buf []byte
	switch {
	case !own:
		buf = make([]byte, size)
		copy(buf, v.data[:start])
	case cap(v.data) < size:
		buf = slices.Grow(v.data, size-len(v.data))[:size]
	default:
		buf = v.data[:size]
	}
	mid := v.slots + slotSize*keep
	low, high := v.data[end:mid], v.data[mid:]
	if delta < 0 { // both move left (or high by one to the right): low first
		copy(buf[end+delta:], low)
		copy(buf[mid+grow:], high)
	} else {
		copy(buf[mid+grow:], high)
		copy(buf[end+delta:], low)
	}
	slots := v.slots + delta
	if insert {
		binary.LittleEndian.PutUint16(buf[v.first-2:], uint16(v.count+1))
		binary.LittleEndian.PutUint16(buf[slots+slotSize*i:], uint16(start))
	}
	if delta != 0 {
		for p := slots + slotSize*(i+1); p < size; p += slotSize {
			binary.LittleEndian.PutUint16(buf[p:], binary.LittleEndian.Uint16(buf[p:])+uint16(delta))
		}
	}
	return buf
}
