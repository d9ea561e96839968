// Package versionstore implements the shared, persistent version store
// (§3.1): the row-version chains that let every node — primary,
// secondaries, and point-in-time readers — run Snapshot Isolation over
// pages fetched "from different points in time".
//
// In HADR, versions lived in node-local temporary storage. Socrates cannot
// do that: compute nodes share pages through the storage tier, so versions
// must be shared too. Here, version entries are appended into pages of
// type page.TypeVersion, encoded as ordinary cells keyed by slot number.
// Because they are plain page mutations, they flow through the log and the
// page servers exactly like B-tree pages: a secondary resolves a version
// pointer by fetching the version page via GetPage@LSN like any other page.
//
// A version entry holds the row payload as of a commit timestamp plus a
// pointer to the previous (older) version, forming a chain from newest to
// oldest. The newest version of a row lives in the B-tree leaf itself (in
// the same encoding); the chain hangs off it.
package versionstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"socrates/internal/btree"
	"socrates/internal/page"
	"socrates/internal/wal"
)

// errTruncated reports a read below the truncation watermark: the snapshot
// is too old and the versions it needs may have been reclaimed.
var errTruncated = errors.New("versionstore: version truncated below watermark")

// errNotFound reports a dangling version pointer.
var errNotFound = errors.New("versionstore: version not found")

// Ptr locates one version entry: (version page, slot). The zero Ptr is nil.
type Ptr struct {
	Page page.ID
	slot uint32
}

// isNil reports whether the pointer is the nil pointer.
func (p Ptr) isNil() bool { return p.Page == page.InvalidID }

// Version is one row version: the payload as of CommitTS, with Prev
// pointing at the next-older version. A tombstone records a deletion.
// This same encoding is used for the newest version inside B-tree leaves.
type Version struct {
	CommitTS  uint64
	Prev      Ptr
	Tombstone bool
	Payload   []byte
}

// Encode serializes the version.
//
// Layout: flags u8 | commitTS u64 | prevPage u64 | prevSlot u32 | payload
func (v *Version) Encode() []byte {
	buf := make([]byte, 0, 21+len(v.Payload))
	var flags byte
	if v.Tombstone {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint64(buf, v.CommitTS)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(v.Prev.Page))
	buf = binary.LittleEndian.AppendUint32(buf, v.Prev.slot)
	return append(buf, v.Payload...)
}

// Decode parses a version produced by Encode. The version comes back by value
// and its Payload aliases buf, capacity-capped: a version decoded from a page
// cell shares the page's bytes, which nothing edits (DESIGN §16), so a caller
// copies the payload only when it hands it out or keeps it.
//
//socrates:hotpath every row a read or a scan resolves; TestVisibleChainAllocs
func Decode(buf []byte) (Version, error) {
	if len(buf) < 21 {
		return Version{}, fmt.Errorf("versionstore: version blob of %d bytes", len(buf))
	}
	v := Version{
		Tombstone: buf[0]&1 != 0,
		CommitTS:  binary.LittleEndian.Uint64(buf[1:9]),
		Prev: Ptr{
			Page: page.ID(binary.LittleEndian.Uint64(buf[9:17])),
			slot: binary.LittleEndian.Uint32(buf[17:21]),
		},
	}
	if len(buf) > 21 {
		v.Payload = buf[21:len(buf):len(buf)]
	}
	return v, nil
}

// slotKey is the cell key of a version slot, by value so a lookup keeps it on
// the stack.
func slotKey(slot uint32) [4]byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], slot)
	return b
}

// Store is one database's version store. The primary appends; every node
// reads. Reads go through the same Pager as B-tree pages, so on replicas
// they transparently trigger GetPage@LSN fetches.
type Store struct {
	pager btree.Pager
	log   wal.Logger

	mu        sync.Mutex
	cur       page.ID // current append page; InvalidID before first append
	curSlots  uint32
	curSize   int
	watermark uint64
}

// New creates a store handle. cur is the current append page recorded in
// the catalog (InvalidID for a fresh database); its fill state is recovered
// from the page itself.
func New(pager btree.Pager, log wal.Logger, cur page.ID) (*Store, error) {
	s := &Store{pager: pager, log: log, cur: cur}
	if cur != page.InvalidID {
		pg, err := pager.Read(cur)
		if err != nil {
			return nil, fmt.Errorf("versionstore: recovering append page: %w", err)
		}
		count, err := btree.CellCount(pg)
		if err != nil {
			return nil, err
		}
		size, err := btree.PayloadSize(pg)
		if err != nil {
			return nil, err
		}
		s.curSlots = uint32(count)
		s.curSize = size
	}
	return s, nil
}

// Append adds a version entry into w, the commit's page set (primary only;
// caller holds the engine's single-writer lock), and returns its pointer.
// The entry is published when w is installed.
func (s *Store) Append(w *btree.PageSet, txn uint64, v *Version) (Ptr, error) {
	enc := v.Encode()
	s.mu.Lock()
	defer s.mu.Unlock()
	need := btree.CellOverhead + 4 + len(enc)
	if s.cur == page.InvalidID || s.curSize+need > page.MaxData {
		if err := s.newPageLocked(w, txn); err != nil {
			return Ptr{}, err
		}
	}
	slot := s.curSlots
	key := slotKey(slot)
	rec := &wal.Record{
		Txn: txn, Kind: wal.KindCellPut, Page: s.cur,
		PageType: page.TypeVersion, Key: key[:], Value: enc,
	}
	s.log.Append(rec)
	pg, err := w.Read(s.cur)
	if err != nil {
		return Ptr{}, err
	}
	if err := w.Apply(pg, rec); err != nil {
		return Ptr{}, err
	}
	s.curSlots++
	s.curSize += need
	return Ptr{Page: s.cur, slot: slot}, nil
}

// newPageLocked allocates and formats a fresh version page in w.
func (s *Store) newPageLocked(w *btree.PageSet, txn uint64) error {
	pg, err := w.Allocate(page.TypeVersion)
	if err != nil {
		return err
	}
	rec := &wal.Record{
		Txn: txn, Kind: wal.KindPageImage, Page: pg.ID,
		PageType: page.TypeVersion, Value: btree.EmptyNodePayload(),
	}
	s.log.Append(rec)
	if err := w.Apply(pg, rec); err != nil {
		return err
	}
	s.cur = pg.ID
	s.curSlots = 0
	s.curSize = len(rec.Value)
	return nil
}

// get fetches one version entry. Its Payload aliases the version page
// (see Decode).
//
//socrates:hotpath once per older version a read walks past; TestVisibleChainAllocs
func (s *Store) get(ptr Ptr) (Version, error) {
	if ptr.isNil() {
		return Version{}, fmt.Errorf("%w: nil pointer", errNotFound)
	}
	pg, err := s.pager.Read(ptr.Page)
	if err != nil {
		return Version{}, err
	}
	key := slotKey(ptr.slot)
	val, found, err := btree.LookupCell(pg, key[:])
	if err != nil {
		return Version{}, err
	}
	if !found {
		return Version{}, fmt.Errorf("%w: page %d slot %d", errNotFound, ptr.Page, ptr.slot)
	}
	return Decode(val)
}

// Visible walks the chain starting at head (the newest version, typically
// decoded from a B-tree leaf row) and returns the version visible at
// snapshot ts; ok is false if the row did not exist at ts or was deleted by
// then. A version found down the chain aliases its version page (see Decode).
//
//socrates:hotpath every row a read or a scan resolves; TestVisibleChainAllocs
func (s *Store) Visible(head Version, ts uint64) (v Version, ok bool, err error) {
	v = head
	for {
		if v.CommitTS <= ts {
			if v.Tombstone {
				return Version{}, false, nil
			}
			return v, true, nil
		}
		if v.Prev.isNil() {
			return Version{}, false, nil // row did not exist at ts
		}
		if wm := s.readWatermark(); ts < wm {
			return Version{}, false, fmt.Errorf("%w: snapshot %d below watermark %d", errTruncated, ts, wm)
		}
		if v, err = s.get(v.Prev); err != nil {
			return Version{}, false, err
		}
	}
}

// SetWatermark advances the truncation watermark: snapshots older than ts
// may no longer resolve versions. The physical pages are reclaimed lazily.
func (s *Store) SetWatermark(ts uint64) {
	s.mu.Lock()
	if ts > s.watermark {
		s.watermark = ts
	}
	s.mu.Unlock()
}

// readWatermark reports the truncation watermark.
func (s *Store) readWatermark() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.watermark
}
