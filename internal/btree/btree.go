package btree

import (
	"bytes"
	"errors"
	"fmt"

	"socrates/internal/page"
	"socrates/internal/wal"
)

// maxCell bounds a single key+value entry so that a split always succeeds.
const maxCell = 2048

// errTooLarge reports a key+value pair exceeding maxCell.
var errTooLarge = errors.New("btree: entry exceeds MaxCell")

// Pager is the tree's view of page storage plus allocation. On the primary
// it is backed by the buffer pool and space manager; log apply and replicas
// never call Allocate (allocation arrives as page-image records).
type Pager interface {
	Read(id page.ID) (*page.Page, error)
	Write(pg *page.Page) error
	// Allocate returns a fresh, empty page of the given type with a
	// never-used ID. The caller formats and logs it.
	Allocate(t page.Type) (*page.Page, error)
}

// Prefetcher is the read-ahead side of a Pager, implemented by pagers whose
// Read may block on remote storage. Prefetch advises that the caller is about
// to Read ids. It is a hint and nothing else: it never blocks, may be
// repeated, may be dropped, and reports nothing — the Read that follows
// returns the same page with or without it, only sooner. A tree over a pager
// without it reads one page at a time, as before.
type Prefetcher interface {
	Prefetch(ids []page.ID)
}

// ReadAhead is how many pages ahead of its position a range scan hints, and
// how many pages Warm hints at once: the one read-ahead constant. A bounded
// scan hints only pages it goes on to read, so the window bounds just what an
// early-terminated or unbounded scan can waste. Measured insensitive between
// 4 and 32 (DESIGN §17), hence a constant and not a setting.
const ReadAhead = 16

// Tree is a B-tree rooted at a fixed page. The root page ID never changes
// (root splits rewrite the root in place), so catalogs can reference it.
//
// All mutating methods must be externally serialized (the engine's commit
// path holds a single writer lock); reads may run concurrently with log
// apply on replicas and report ErrInconsistent when they race a split.
// Opened over a writer's PageSet, a tree's changes stay in the set until
// its writer installs them, and it sees them itself.
type Tree struct {
	pager Pager
	hint  Prefetcher // pager's read-ahead side; nil when it has none
	set   *PageSet   // the pager, when it is a writer's page set; else nil
	log   wal.Logger
	root  page.ID
}

// Create allocates and formats an empty tree, returning it. The format is
// logged (as a page image) under the given txn.
func Create(pager Pager, log wal.Logger, txn uint64) (*Tree, error) {
	pg, err := pager.Allocate(page.TypeLeaf)
	if err != nil {
		return nil, err
	}
	t := Open(pager, log, pg.ID)
	if err := t.writeImage(txn, pg.ID, page.TypeLeaf, EmptyNodePayload()); err != nil {
		return nil, err
	}
	return t, nil
}

// Open attaches to an existing tree rooted at root.
func Open(pager Pager, log wal.Logger, root page.ID) *Tree {
	hint, _ := pager.(Prefetcher)
	set, _ := pager.(*PageSet)
	return &Tree{pager: pager, hint: hint, set: set, log: log, root: root}
}

// Root reports the root page ID.
func (t *Tree) Root() page.ID { return t.root }

// writeImage logs a whole-page image and installs it. The record aliases
// the payload, so a page set it goes to does not own it (PageSet.Write).
func (t *Tree) writeImage(txn uint64, id page.ID, ty page.Type, data []byte) error {
	lsn := t.log.Append(&wal.Record{
		Txn: txn, Kind: wal.KindPageImage, Page: id, PageType: ty, Value: data,
	})
	return t.pager.Write(&page.Page{ID: id, LSN: lsn, Type: ty, Data: data})
}

// writeNode encodes a decoded node and logs and installs it as a page image.
func (t *Tree) writeNode(txn uint64, id page.ID, ty page.Type, n *node) error {
	data, err := n.encode()
	if err != nil {
		return err
	}
	return t.writeImage(txn, id, ty, data)
}

// writeCell logs rec, a cell edit of pg, and makes data — the payload that
// already reflects it — the page's next version. Pages are immutable once
// read or written (DESIGN §16), so that is a new page around data, a fresh
// payload nobody shares, for the pager — or for the writer's page set, which
// then owns it. The one exception is a version the set owns (own): data is
// pg's own buffer, edited in place, and pg takes the LSN.
func (t *Tree) writeCell(pg *page.Page, own bool, data []byte, rec *wal.Record) error {
	lsn := t.log.Append(rec)
	if own {
		pg.Data, pg.LSN = data, lsn
		return nil
	}
	next := &page.Page{ID: pg.ID, LSN: lsn, Type: pg.Type, Data: data}
	if t.set != nil {
		t.set.Stage(next, true)
		return nil
	}
	return t.pager.Write(next)
}

// errNotCovered is the fence violation of a point traversal. Outlined so
// Get's hot path carries no formatting.
func errNotCovered(id page.ID) error {
	return fmt.Errorf("%w: page %d does not cover key", ErrInconsistent, id)
}

// leafFor descends from the root to the leaf covering key, validating
// fences on the way, and returns the leaf with its view.
//
//socrates:hotpath the descent of every Get; TestTreeGetAllocs
func (t *Tree) leafFor(key []byte) (*page.Page, view, error) {
	id := t.root
	for {
		pg, err := t.pager.Read(id)
		if err != nil {
			return nil, view{}, err
		}
		v, err := parseView(pg.Data)
		if err != nil {
			return nil, view{}, err
		}
		if !v.covers(key) {
			return nil, view{}, errNotCovered(id)
		}
		if pg.Type != page.TypeInternal {
			return pg, v, nil
		}
		if id, err = v.childFor(key); err != nil {
			return nil, view{}, err
		}
	}
}

// Get returns the value stored under key. The value is the caller's own
// copy — the one allocation a lookup makes.
//
//socrates:hotpath every point read and every commit-time validation; TestTreeGetAllocs
func (t *Tree) Get(key []byte) ([]byte, bool, error) {
	_, v, err := t.leafFor(key)
	if err != nil {
		return nil, false, err
	}
	val, found, err := v.find(key)
	if err != nil || !found {
		return nil, false, err
	}
	return bytes.Clone(val), true, nil
}

// splitResult propagates a child split up the insertion path.
type splitResult struct {
	key   []byte  // separator: first key of the right sibling
	right page.ID // the new right sibling
}

// Put upserts key→value.
func (t *Tree) Put(txn uint64, key, value []byte) error {
	if len(key)+len(value) > maxCell {
		return fmt.Errorf("%w: %d bytes", errTooLarge, len(key)+len(value))
	}
	if len(key) == 0 {
		return errors.New("btree: empty key")
	}
	split, err := t.putRec(txn, t.root, key, value)
	if err != nil {
		return err
	}
	if split != nil {
		return t.growRoot(txn, split)
	}
	return nil
}

func (t *Tree) putRec(txn uint64, id page.ID, key, value []byte) (*splitResult, error) {
	pg, err := t.pager.Read(id)
	if err != nil {
		return nil, err
	}
	v, err := parseView(pg.Data)
	if err != nil {
		return nil, err
	}
	if pg.Type == page.TypeInternal {
		child, err := v.childFor(key)
		if err != nil {
			return nil, err
		}
		split, err := t.putRec(txn, child, key, value)
		if err != nil || split == nil {
			return nil, err
		}
		// Install the separator for the new right sibling.
		key, value = split.key, encodeChild(split.right)
	}
	own := t.set.Owned(pg.ID) == pg
	data, err := v.put(key, value, own)
	if err == nil {
		return nil, t.writeCell(pg, own, data, &wal.Record{
			Txn: txn, Kind: wal.KindCellPut, Page: pg.ID, PageType: pg.Type,
			Key: key, Value: value,
		})
	}
	if !errors.Is(err, errOverflow) {
		return nil, err
	}
	return t.splitNode(txn, pg, key, value)
}

// splitNode splits a node that key→value overflows into the original page
// (left half) and a fresh right sibling, logging page images for both. This
// is the one path that still materializes the node: both halves are encoded
// afresh anyway.
func (t *Tree) splitNode(txn uint64, pg *page.Page, key, value []byte) (*splitResult, error) {
	n, err := decodeNode(pg.Data)
	if err != nil {
		return nil, err
	}
	n.put(key, value)
	mid := splitPoint(n)
	sep := n.cells[mid].key

	right := &node{lo: sep, hi: n.hi, cells: n.cells[mid:]}
	left := &node{lo: n.lo, hi: sep, cells: n.cells[:mid]}
	rpg, err := t.pager.Allocate(pg.Type)
	if err != nil {
		return nil, err
	}
	// Order matters for replicas applying a prefix: the right sibling must
	// exist before the (rewritten) left half stops covering its keys.
	if err := t.writeNode(txn, rpg.ID, pg.Type, right); err != nil {
		return nil, err
	}
	if err := t.writeNode(txn, pg.ID, pg.Type, left); err != nil {
		return nil, err
	}
	return &splitResult{key: sep, right: rpg.ID}, nil
}

// splitPoint picks the cell index where the byte sizes of the halves are
// closest to balanced, always leaving both halves nonempty.
func splitPoint(n *node) int {
	total := 0
	sizes := make([]int, len(n.cells))
	for i, c := range n.cells {
		sizes[i] = CellOverhead + len(c.key) + len(c.value)
		total += sizes[i]
	}
	acc := 0
	for i, s := range sizes {
		acc += s
		if acc >= total/2 && i+1 < len(n.cells) {
			return i + 1
		}
	}
	return len(n.cells) / 2
}

// growRoot handles a root split: the root page ID stays stable, so the old
// root's (left-half) contents move to a fresh page and the root becomes an
// internal node routing to both halves.
func (t *Tree) growRoot(txn uint64, split *splitResult) error {
	rootPg, err := t.pager.Read(t.root)
	if err != nil {
		return err
	}
	leftPg, err := t.pager.Allocate(rootPg.Type)
	if err != nil {
		return err
	}
	// The left half keeps its payload byte for byte; only its page changes.
	if err := t.writeImage(txn, leftPg.ID, rootPg.Type, rootPg.Data); err != nil {
		return err
	}
	newRoot := &node{
		cells: []cell{
			{key: nil, value: encodeChild(leftPg.ID)},
			{key: split.key, value: encodeChild(split.right)},
		},
	}
	return t.writeNode(txn, t.root, page.TypeInternal, newRoot)
}

// Scan streams entries with lo <= key < hi (nil hi = unbounded) in key
// order until fn returns false. The slices passed to fn alias the page and
// must not be modified; copy what outlives the call.
//
// Over a pager with Prefetch the scan reads ahead: at every internal node it
// keeps the next ReadAhead in-range children hinted while it reads the
// current one (readahead.go).
func (t *Tree) Scan(lo, hi []byte, fn func(key, value []byte) bool) error {
	_, err := t.scanRec(t.root, nil, nil, lo, hi, fn)
	return err
}

// errScanFence is the fence violation of a range traversal, outlined like
// errNotCovered.
func errScanFence(id page.ID) error {
	return fmt.Errorf("%w: page %d fence violation in scan", ErrInconsistent, id)
}

// scanRec scans the subtree under id, to which its parent routes the keys
// [from, to) (the root: all of them), and reports whether the scan goes on
// after it: false once fn declined a row or a key at or beyond hi was seen.
//
//socrates:hotpath once per page of every range scan; TestTreeScanAllocs
func (t *Tree) scanRec(id page.ID, from, to, lo, hi []byte, fn func(k, v []byte) bool) (bool, error) {
	pg, err := t.pager.Read(id)
	if err != nil {
		return false, err
	}
	v, err := parseView(pg.Data)
	if err != nil {
		return false, err
	}
	// Fence validation: the node must cover exactly what its parent routes
	// to it. A node split after its parent was read covers less, and the
	// scan would skip the keys it gave away; a node read from before a split
	// its parent already shows covers more, and those keys would come twice.
	if !bytes.Equal(v.lo, from) || !bytes.Equal(v.hi, to) {
		return false, errScanFence(id)
	}
	if pg.Type == page.TypeInternal {
		return t.scanChildren(&v, lo, hi, fn)
	}
	it := v.iter()
	if lo != nil {
		i, off, _, err := v.search(lo)
		if err != nil {
			return false, err
		}
		it = v.iterAt(i, off)
	}
	for {
		k, val, ok, err := it.next()
		if err != nil || !ok {
			return err == nil, err
		}
		if hi != nil && bytes.Compare(k, hi) >= 0 {
			return false, nil
		}
		if !fn(k, val) {
			return false, nil
		}
	}
}
