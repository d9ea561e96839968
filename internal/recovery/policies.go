package recovery

import (
	"errors"
	"fmt"

	"socrates/internal/btree"
	"socrates/internal/fcb"
	"socrates/internal/page"
	"socrates/internal/rbpex"
	"socrates/internal/wal"
)

// The four consumers' policies: DESIGN §21 tabulates them, TestPolicyTable
// pins them.

// Owned is a page server's policy (§4.6): only [Lo, Hi) is redone. A page is
// looked up in the cursor's set, where Page stages every version it reads,
// then the covering cache (PageFile, where a miss is an error and Write
// installs), then fetched from its XStore checkpoint (seeding), unless an
// image record creates it. The set coalesces a pull's versions — else a
// write burst outruns the apply loop and GetPage@LSN waits pile up behind
// the lag — so a page is copied once per pull. Any error ends the pull.
type Owned struct {
	fcb.PageFile
	Lo, Hi page.ID
	Fetch  func(page.ID) (*page.Page, error) // a page's checkpoint copy, seeded into the cache
}

// Page answers for a page server.
//
//socrates:hotpath runs once per page record of a page server's feed; TestApplyFeedAllocs
func (o *Owned) Page(rec *wal.Record, set *btree.PageSet) (*page.Page, answer, error) {
	if rec.Page < o.Lo || rec.Page >= o.Hi {
		return nil, elsewhere, nil
	}
	pg, err := set.Read(rec.Page) // a version staged unowned, else the cache's
	switch {
	case err != nil && rec.Kind == wal.KindPageImage:
		return nil, missing, nil // a freshly allocated page
	case err != nil:
		if pg, err = o.Fetch(rec.Page); err != nil {
			return nil, missing, fmt.Errorf("pageserver: page %d needed for redo: %w", rec.Page, err)
		}
	}
	// Staged, unowned, even if redo leaves it: after a restart the cache can
	// hold versions newer than the resume LSN, and the install marks them dirty.
	set.Stage(pg, false)
	return pg, resident, nil
}

// Failed ends the pull.
func (*Owned) Failed(err error) error { return err }

// Cached is a compute secondary's policy (§4.5): records for a page being
// fetched and not cached are queued behind the fetch, and "log records that
// involve pages that are not cached are simply ignored". A cached or
// read-ahead parked page (DESIGN §20.1) is redone in the cursor's set and
// installed where it is. Any failure drops the record.
type Cached struct {
	Pending interface{ QueueIfPending(*wal.Record) bool }
	Cache   *rbpex.Cache
}

// Page answers for a secondary. A page it holds takes the record, fetch or
// no fetch; only a page it does not hold, which no reader finds in the
// cache either, has its records queued behind its fetch (DESIGN §21.3).
//
//socrates:hotpath runs once per page record of a secondary's feed; TestSecondaryApplyAllocs
func (c *Cached) Page(rec *wal.Record, _ *btree.PageSet) (*page.Page, answer, error) {
	pg, err := c.Read(rec.Page)
	switch {
	case err == nil:
	case c.Pending.QueueIfPending(rec):
		return nil, elsewhere, nil
	case !c.Cache.Contains(rec.Page):
		return nil, missing, nil
	default: // its fetch installed it, and ended, between the two looks
		if pg, err = c.Read(rec.Page); err != nil {
			return nil, missing, nil
		}
	}
	return pg, resident, nil
}

// Read returns the cached version, parked or not: log apply is not the
// reader a parked page waits for.
func (c *Cached) Read(id page.ID) (*page.Page, error) {
	pg, ok := c.Cache.Parked(id)
	if !ok {
		pg, ok = c.Cache.Get(id)
	}
	if !ok {
		return nil, fcb.ErrNotFound
	}
	return pg, nil
}

// Write installs a version of the pull where the page is, never moving it
// backwards: a fetch may have installed a newer image meanwhile.
//
//socrates:hotpath runs once per page a secondary's pull installs; TestSecondaryApplyAllocs
func (c *Cached) Write(pg *page.Page) error {
	put := c.Cache.PutFetched
	if _, parked := c.Cache.Parked(pg.ID); parked {
		put = c.Cache.PutHinted
	}
	_, _ = put(pg) // the error rule drops a version the cache cannot take (DESIGN §21 lists it as a finding)
	return nil
}

// Failed drops the record.
func (*Cached) Failed(error) error { return nil }

// Replica is an HADR replica's policy (§2): every node holds every page, so
// a missing one is made new. An unreadable page or a failed redo drops the
// record.
type Replica struct{ fcb.PageFile }

// Page answers for an HADR replica.
func (p Replica) Page(rec *wal.Record, _ *btree.PageSet) (*page.Page, answer, error) {
	pg, err := p.Read(rec.Page)
	switch {
	case errors.Is(err, fcb.ErrNotFound):
		return page.New(rec.Page, rec.PageType), resident, nil
	case err != nil:
		return nil, elsewhere, nil
	}
	return pg, resident, nil
}

// Failed drops the record.
func (Replica) Failed(error) error { return nil }

// Restore is point-in-time restore's policy (§4.7) over the restored
// checkpoint. A range can begin at a cell operation for a page whose image
// lies before it: an empty node is made to redo onto. Any error ends it.
type Restore struct{ fcb.PageFile }

// Page answers for a restore.
func (p Restore) Page(rec *wal.Record, _ *btree.PageSet) (*page.Page, answer, error) {
	pg, err := p.Read(rec.Page)
	switch {
	case errors.Is(err, fcb.ErrNotFound) && rec.Kind == wal.KindPageImage:
		return nil, missing, nil
	case errors.Is(err, fcb.ErrNotFound):
		pg = &page.Page{ID: rec.Page, Type: rec.PageType, Data: btree.EmptyNodePayload()}
	case err != nil:
		return nil, missing, err
	}
	return pg, resident, nil
}

// Failed ends the restore.
func (Restore) Failed(err error) error { return err }
