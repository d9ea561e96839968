// Package btree implements the page-oriented B-tree that stores every table
// (and the version store) in the Socrates reproduction. All mutations are
// physiologically logged: row-level changes emit cell-put records and
// structural changes (formats, splits) emit whole-page images, all through
// a wal.Logger. Apply is the single redo entry point — page
// servers, secondaries, and restart recovery all converge page state by
// replaying the same records the primary emitted.
//
// Every node carries fence keys (the half-open key interval it covers).
// Traversals validate fences on each parent→child step; a violation means
// the reader mixed pages from different points in log time — exactly the
// B-tree race of §4.5 — and surfaces as ErrInconsistent so the caller can
// wait for log apply to catch up and retry.
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"socrates/internal/page"
)

// ErrInconsistent reports a traversal that observed pages from different
// points in log time (fence-key violation). Retry after log apply advances.
var ErrInconsistent = errors.New("btree: inconsistent traversal, retry after log apply")

// errCorrupt reports an undecodable node payload.
var errCorrupt = errors.New("btree: corrupt node")

// cell is one key→value entry in a node. In leaves the value is the row
// payload; in internal nodes it is the 8-byte child page ID.
type cell struct {
	key   []byte
	value []byte
}

// node is the decoded form of a B-tree page payload. Reads, cell edits and
// redo work on the encoded payload through a view; a node is materialized
// only where a page is rebuilt from its cells (splits, the new root) — and
// by tests, which use this codec as the oracle for the view.
type node struct {
	lo, hi []byte // fence keys: node covers [lo, hi); empty hi = +infinity
	cells  []cell // sorted by key
}

// encodedSize reports the payload size encode will produce.
func (n *node) encodedSize() int {
	size := 2 + len(n.lo) + 2 + len(n.hi) + 2
	for _, c := range n.cells {
		size += CellOverhead + len(c.key) + len(c.value)
	}
	return size
}

// encode serializes the node as a page payload.
//
// Layout: loLen u16 | lo | hiLen u16 | hi | count u16 | cell*count | slot*count
// cell:   klen u16 | key | vlen u16 | value
// slot:   u16 offset of cell i in the payload
//
// The cells lie in key order, so their slots ascend; a payload is at most
// page.MaxData bytes, so every offset and length fits a u16.
func (n *node) encode() ([]byte, error) {
	size := n.encodedSize()
	if size > page.MaxData {
		return nil, fmt.Errorf("btree: node of %d bytes exceeds page capacity", size)
	}
	buf := make([]byte, 0, size)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(n.lo)))
	buf = append(buf, n.lo...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(n.hi)))
	buf = append(buf, n.hi...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(n.cells)))
	off := len(buf)
	for _, c := range n.cells {
		buf = appendCell(buf, c.key, c.value)
	}
	for _, c := range n.cells {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(off))
		off += cellHeader + len(c.key) + len(c.value)
	}
	return buf, nil
}

// decodeNode parses a page payload into a node.
func decodeNode(data []byte) (*node, error) {
	n := &node{}
	if len(data) < 2 {
		return nil, fmt.Errorf("%w: short payload", errCorrupt)
	}
	pos := 0
	loLen := int(binary.LittleEndian.Uint16(data[pos : pos+2]))
	pos += 2
	if len(data) < pos+loLen+2 {
		return nil, fmt.Errorf("%w: truncated lo fence", errCorrupt)
	}
	if loLen > 0 {
		n.lo = append([]byte(nil), data[pos:pos+loLen]...)
	}
	pos += loLen
	hiLen := int(binary.LittleEndian.Uint16(data[pos : pos+2]))
	pos += 2
	if len(data) < pos+hiLen+2 {
		return nil, fmt.Errorf("%w: truncated hi fence", errCorrupt)
	}
	if hiLen > 0 {
		n.hi = append([]byte(nil), data[pos:pos+hiLen]...)
	}
	pos += hiLen
	count := int(binary.LittleEndian.Uint16(data[pos : pos+2]))
	pos += 2
	slots := len(data) - slotSize*count
	if slots < pos {
		return nil, fmt.Errorf("%w: slot array overlaps the header", errCorrupt)
	}
	cells := data[:slots]
	n.cells = make([]cell, 0, count)
	for i := 0; i < count; i++ {
		if off := int(binary.LittleEndian.Uint16(data[slots+slotSize*i:])); off != pos {
			return nil, fmt.Errorf("%w: slot %d points at %d, cell at %d", errCorrupt, i, off, pos)
		}
		if len(cells) < pos+2 {
			return nil, fmt.Errorf("%w: truncated cell %d", errCorrupt, i)
		}
		klen := int(binary.LittleEndian.Uint16(cells[pos : pos+2]))
		pos += 2
		if len(cells) < pos+klen+2 {
			return nil, fmt.Errorf("%w: truncated cell key %d", errCorrupt, i)
		}
		key := append([]byte(nil), cells[pos:pos+klen]...)
		pos += klen
		vlen := int(binary.LittleEndian.Uint16(cells[pos : pos+2]))
		pos += 2
		if len(cells) < pos+vlen {
			return nil, fmt.Errorf("%w: truncated cell value %d", errCorrupt, i)
		}
		var val []byte
		if vlen > 0 {
			val = append([]byte(nil), cells[pos:pos+vlen]...)
		}
		pos += vlen
		n.cells = append(n.cells, cell{key: key, value: val})
	}
	if pos != slots {
		return nil, fmt.Errorf("%w: %d bytes between the cells and the slot array", errCorrupt, slots-pos)
	}
	return n, nil
}

// find locates key: (index, true) if present, else (insertion index, false).
func (n *node) find(key []byte) (int, bool) {
	i := sort.Search(len(n.cells), func(i int) bool {
		return bytes.Compare(n.cells[i].key, key) >= 0
	})
	if i < len(n.cells) && bytes.Equal(n.cells[i].key, key) {
		return i, true
	}
	return i, false
}

// put upserts key→value, keeping cells sorted.
func (n *node) put(key, value []byte) {
	i, found := n.find(key)
	if found {
		n.cells[i].value = value
		return
	}
	n.cells = append(n.cells, cell{})
	copy(n.cells[i+1:], n.cells[i:])
	n.cells[i] = cell{key: key, value: value}
}

func encodeChild(id page.ID) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(id))
	return b
}

func decodeChild(v []byte) (page.ID, error) {
	if len(v) != 8 {
		return page.InvalidID, fmt.Errorf("%w: child pointer of %d bytes", errCorrupt, len(v))
	}
	return page.ID(binary.LittleEndian.Uint64(v)), nil
}
