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
// node.encode). Parsing touches only the header and the fences; searches and
// iteration walk the cells in place and allocate nothing, so every slice a
// view hands out aliases the payload — which is immutable, like the page it
// belongs to. Edits (put, remove) build the new payload in one allocation as
// prefix + cell + suffix, or — for a payload redo owns (Edit) — make the
// same edit in place.
//
// Cells are bounds-checked as they are walked: a truncated or corrupt
// payload yields errCorrupt, never a panic.
type view struct {
	data   []byte // the whole payload
	lo, hi []byte // fence keys: node covers [lo, hi); empty hi = +infinity
	count  int    // number of cells
	first  int    // offset of the first cell; the u16 count sits just before it
}

// corrupt builds the errCorrupt for a payload defect. Outlined so the walks
// below stay allocation-free on their hot (error-free) paths.
func corrupt(what string) error { return fmt.Errorf("%w: %s", errCorrupt, what) }

// parseView reads the header and fences of a node payload.
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

// cellAt decodes the cell starting at off and returns the offset just past
// it. Key and value are capacity-capped, so an append to either copies and
// never writes into the payload.
//
//socrates:hotpath once per cell walked; TestTreeGetAllocs, TestTreeScanAllocs
func (v *view) cellAt(off int) (key, value []byte, next int, err error) {
	d := v.data
	if len(d) < off+2 {
		return nil, nil, 0, corrupt("truncated cell")
	}
	klen := int(binary.LittleEndian.Uint16(d[off:]))
	off += 2
	if len(d) < off+klen+4 {
		return nil, nil, 0, corrupt("truncated cell key")
	}
	key = d[off : off+klen : off+klen]
	off += klen
	vlen := int(binary.LittleEndian.Uint32(d[off:]))
	off += 4
	if vlen > len(d)-off {
		return nil, nil, 0, corrupt("truncated cell value")
	}
	return key, d[off : off+vlen : off+vlen], off + vlen, nil
}

// end checks that the walk that consumed every cell stopped exactly at the
// end of the payload.
func (v *view) end(off int) error {
	if off != len(v.data) {
		return corrupt("trailing bytes")
	}
	return nil
}

// find walks to key. When present it returns the value and the cell's
// extent [start, end); otherwise start == end is the offset where the key's
// cell belongs.
//
//socrates:hotpath the leaf search of every point read and cell edit; TestTreeGetAllocs
func (v *view) find(key []byte) (value []byte, start, end int, found bool, err error) {
	off := v.first
	for i := 0; i < v.count; i++ {
		k, val, next, err := v.cellAt(off)
		if err != nil {
			return nil, 0, 0, false, err
		}
		if c := bytes.Compare(k, key); c == 0 {
			return val, off, next, true, nil
		} else if c > 0 {
			return nil, off, off, false, nil
		}
		off = next
	}
	return nil, off, off, false, v.end(off)
}

// childFor returns the child page an internal node routes key to: the last
// cell whose key <= key. The first cell of an internal node always has an
// empty key (covers -inf).
//
//socrates:hotpath one per internal level of every traversal; TestTreeGetAllocs
func (v *view) childFor(key []byte) (page.ID, error) {
	if v.count == 0 {
		return page.InvalidID, corrupt("empty internal node")
	}
	var child []byte
	off, i := v.first, 0
	for ; i < v.count; i++ {
		k, val, next, err := v.cellAt(off)
		if err != nil {
			return page.InvalidID, err
		}
		if bytes.Compare(k, key) > 0 {
			break
		}
		child, off = val, next
	}
	if i == 0 {
		return page.InvalidID, corrupt("key below first separator")
	}
	return decodeChild(child)
}

// cellIter steps through a node's cells in key order.
type cellIter struct {
	v   *view
	off int
	i   int
}

func (v *view) iter() cellIter { return cellIter{v: v, off: v.first} }

// next returns the next cell; ok is false once the cells are exhausted.
//
//socrates:hotpath once per cell of every scan; TestTreeScanAllocs
func (it *cellIter) next() (key, value []byte, ok bool, err error) {
	if it.i == it.v.count {
		return nil, nil, false, it.v.end(it.off)
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
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(value)))
	return append(buf, value...)
}

// put returns the payload with key→value upserted, or errOverflow — before
// anything is written — when that payload would not fit a page. In place
// (own) it edits v's payload, which the caller must own (Edit).
func (v *view) put(key, value []byte, own bool) ([]byte, error) {
	_, start, end, found, err := v.find(key)
	if err != nil {
		return nil, err
	}
	cell := CellOverhead + len(key) + len(value)
	if len(v.data)-(end-start)+cell > page.MaxData {
		return nil, errOverflow
	}
	buf := v.splice(start, end, cell, own)
	appendCell(buf[start:start], key, value)
	if !found {
		binary.LittleEndian.PutUint16(buf[v.first-2:], uint16(v.count+1))
	}
	return buf, nil
}

// splice returns the payload with its bytes [start, end) replaced by a gap
// of n bytes for the caller to fill. Copy-on-write it is a new buffer of
// exactly the new size, prefix and suffix copied in; in place (own) it is
// v's own buffer with the suffix moved by copy, grown append-style — so a
// page that keeps growing reallocates rarely — only when it lacks capacity.
func (v *view) splice(start, end, n int, own bool) []byte {
	size := len(v.data) - (end - start) + n
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
	copy(buf[start+n:], v.data[end:])
	return buf
}
