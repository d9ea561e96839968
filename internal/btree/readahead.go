package btree

import (
	"bytes"
	"sync"

	"socrates/internal/page"
)

// Read-ahead: the two places a tree knows which pages it is about to read and
// says so to a pager that can fetch them side by side (Prefetcher). A range
// scan knows the in-range children of the internal node it stands on; Warm
// knows the paths of a batch of keys. The tree starts no goroutines — the
// parallelism lives behind Prefetch — and over a pager without Prefetch none
// of this runs.

// childIter steps through the children of an internal node whose key ranges
// intersect [lo, hi), in key order from the one a search for lo finds:
// exactly the pages a scan of [lo, hi) reads below the node. A scan runs two
// of them over the same cells, the one it descends through and one up to
// ReadAhead children further on that it hints from. It is a plain value;
// copying it forks the walk.
type childIter struct {
	it     cellIter
	lo, hi []byte
	k, c   []byte // the cell under the cursor; its child covers [k, the following key)
	ok     bool   // there is a cell under the cursor
	pastHi bool   // the walk ended at a child that starts at or beyond hi
}

// children starts a walk over the in-range children of an internal node, at
// the child that covers lo.
func (v *view) children(lo, hi []byte) (childIter, error) {
	ci := childIter{it: v.iter(), lo: lo, hi: hi}
	if lo != nil {
		i, off, err := v.floor(lo)
		if err != nil {
			return ci, err
		}
		if i > 0 {
			ci.it = v.iterAt(i, off)
		}
	}
	var err error
	ci.k, ci.c, ci.ok, err = ci.it.next()
	return ci, err
}

// next returns the next in-range child and the keys [from, to) the node
// routes to it, which the child's fences must equal; ok is false once there
// is none.
//
//socrates:hotpath once per child of every internal node a scan crosses, twice with read-ahead; TestTreeScanAllocs
func (ci *childIter) next() (id page.ID, from, to []byte, ok bool, err error) {
	if !ci.ok {
		return page.InvalidID, nil, nil, false, nil
	}
	k, c := ci.k, ci.c
	if ci.k, ci.c, ci.ok, err = ci.it.next(); err != nil {
		ci.ok = false
		return page.InvalidID, nil, nil, false, err
	}
	// The child under k covers [k, upper): upper is the following cell's
	// key, or the node's own hi fence for the last cell.
	upper := ci.it.v.hi
	if ci.ok {
		upper = ci.k
	}
	if ci.hi != nil && len(k) > 0 && bytes.Compare(k, ci.hi) >= 0 {
		ci.ok, ci.pastHi = false, true
		return page.InvalidID, nil, nil, false, nil
	}
	if len(k) == 0 { // the first cell's child starts where the node does
		k = ci.it.v.lo
	}
	id, err = decodeChild(c)
	return id, k, upper, err == nil, err
}

// windowPool holds the buffers hints are handed over in. An argument to an
// interface method escapes, so a window declared in scanChildren would cost
// every internal node of every scan one allocation; pooled, a scan over a
// hinting pager allocates what one over a plain pager does.
var windowPool = sync.Pool{New: func() any { return new([ReadAhead]page.ID) }}

// scanChildren scans the in-range children of an internal node in order,
// and reports like scanRec whether the scan goes on after them. With a
// hinting pager, children i+1 … i+ReadAhead have been hinted, once each,
// before child i is read.
//
//socrates:hotpath once per internal node of every range scan; TestTreeScanAllocs
func (t *Tree) scanChildren(v *view, lo, hi []byte, fn func(k, v []byte) bool) (bool, error) {
	cur, err := v.children(lo, hi)
	if err != nil {
		return false, err
	}
	if t.hint == nil {
		return t.descend(&cur, nil, nil, fn)
	}
	// The hinting walk runs ahead of the reading one. Its errors end the
	// hints and nothing else: the reading walk meets the same cell later.
	ahead := cur
	_, _, _, _, _ = ahead.next() // the scan reads its first child itself
	win := windowPool.Get().(*[ReadAhead]page.ID)
	t.hintFrom(&ahead, win[:])
	cont, err := t.descend(&cur, &ahead, win, fn)
	windowPool.Put(win)
	return cont, err
}

// descend reads the children cur yields, hinting one more child from ahead
// for every child it finishes.
//
//socrates:hotpath the loop of scanChildren; TestTreeScanAllocs
func (t *Tree) descend(cur, ahead *childIter, win *[ReadAhead]page.ID, fn func(k, v []byte) bool) (bool, error) {
	for {
		id, from, to, ok, err := cur.next()
		if err != nil {
			return false, err
		}
		if !ok {
			return !cur.pastHi, nil
		}
		cont, err := t.scanRec(id, from, to, cur.lo, cur.hi, fn)
		if err != nil || !cont {
			return false, err
		}
		if ahead != nil {
			t.hintFrom(ahead, win[:1])
		}
	}
}

// hintFrom hints the next len(buf) children of the walk, or as many as it
// still has.
func (t *Tree) hintFrom(ahead *childIter, buf []page.ID) {
	n := 0
	for n < len(buf) {
		id, _, _, ok, _ := ahead.next()
		if !ok {
			break
		}
		buf[n] = id
		n++
	}
	if n > 0 {
		t.hint.Prefetch(buf[:n])
	}
}

// Warm reads the pages a batch of point operations on keys is about to read
// — every node on the paths from the root to the keys' leaves — level by
// level: hint a level's nodes, then read them, so the misses of a level are
// in flight together instead of one after another. Keys in key order visit
// each node once. It is advisory: the pages land in the pager's cache, the
// result says only whether the walk got through (it races splits like any
// read, ErrInconsistent), and the operations that follow descend for
// themselves. Over a pager without Prefetch there is nothing to overlap and
// Warm does nothing.
func (t *Tree) Warm(keys [][]byte) error {
	if t.hint == nil || len(keys) == 0 {
		return nil
	}
	if len(keys) == 1 {
		// One path has nothing to overlap; walking it still moves its
		// misses to now, which is what a caller about to take a latch wants.
		_, _, err := t.leafFor(keys[0])
		return err
	}
	// A level of the walk is its pages in key order, each with the run of
	// keys whose paths cross it.
	type stop struct {
		id       page.ID
		from, to int // keys[from:to]
	}
	level := []stop{{t.root, 0, len(keys)}}
	var ids [ReadAhead]page.ID
	for len(level) > 0 {
		var below []stop
		for len(level) > 0 {
			batch := level[:min(len(level), ReadAhead)]
			level = level[len(batch):]
			if len(batch) > 1 {
				for i, n := range batch {
					ids[i] = n.id
				}
				t.hint.Prefetch(ids[:len(batch)])
			}
			for _, n := range batch {
				pg, err := t.pager.Read(n.id)
				if err != nil {
					return err
				}
				v, err := parseView(pg.Data)
				if err != nil {
					return err
				}
				for i := n.from; i < n.to; i++ {
					if !v.covers(keys[i]) {
						return errNotCovered(n.id)
					}
					if pg.Type != page.TypeInternal {
						continue
					}
					child, err := v.childFor(keys[i])
					if err != nil {
						return err
					}
					if last := len(below) - 1; last >= 0 && below[last].id == child {
						below[last].to = i + 1
					} else {
						below = append(below, stop{child, i, i + 1})
					}
				}
			}
		}
		level = below
	}
	return nil
}
