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
// looked up in the pull's page set, then the covering cache (the set's
// pager), then fetched from its XStore checkpoint (seeding), unless an image
// record creates it. The set coalesces a pull's versions — else a write burst
// outruns the apply loop and GetPage@LSN waits pile up behind the lag — and
// only the apply loop sees it before its install, so a version the set owns
// is answered Private and edited in place: a page is copied once per pull.
// Any error ends the pull.
type Owned struct {
	Lo, Hi page.ID
	Set    *btree.PageSet                    // the pull's versions; its pager reads the covering cache, an error being a miss
	Fetch  func(page.ID) (*page.Page, error) // a page's checkpoint copy, seeded into the cache
	Redone int                               // records redone into Set, a running count
}

// Page answers for a page server.
//
//socrates:hotpath runs once per page record of a page server's feed; TestApplyFeedAllocs
func (o *Owned) Page(rec *wal.Record) (*page.Page, Answer, error) {
	if rec.Page < o.Lo || rec.Page >= o.Hi {
		return nil, Elsewhere, nil
	}
	pg, err := o.Set.Read(rec.Page)
	switch {
	case err == nil && o.Set.Owns(pg):
		return pg, Private, nil
	case err != nil && rec.Kind == wal.KindPageImage:
		return nil, Missing, nil // a freshly allocated page
	case err != nil:
		if pg, err = o.Fetch(rec.Page); err != nil {
			return nil, Missing, fmt.Errorf("pageserver: page %d needed for redo: %w", rec.Page, err)
		}
	}
	// Staged, unowned, even if redo leaves it: after a restart the cache can
	// hold versions newer than the resume LSN, and the install marks them dirty.
	o.Set.Stage(pg, false)
	return pg, Resident, nil
}

// Put stages redo's version in the set, which owns it.
func (o *Owned) Put(next *page.Page, err error) error {
	if err == nil {
		o.Set.Stage(next, true)
		o.Redone++
	}
	return err
}

// Cached is a compute secondary's policy (§4.5): records for a page being
// fetched are queued behind the fetch, and "log records that involve pages
// that are not cached are simply ignored". A cached or read-ahead parked
// page (DESIGN §20.1) is redone where it is. Any failure drops the record.
type Cached struct {
	Pending interface{ QueueIfPending(*wal.Record) bool }
	Cache   *rbpex.Cache
	parked  bool // the page Page last answered for is parked
}

// Page answers for a secondary.
//
//socrates:hotpath runs once per page record of a secondary's feed; TestSecondaryApplyAllocs
func (c *Cached) Page(rec *wal.Record) (*page.Page, Answer, error) {
	if c.Pending.QueueIfPending(rec) {
		return nil, Elsewhere, nil
	}
	pg, ok := c.Cache.Parked(rec.Page)
	if c.parked = ok; !ok {
		pg, ok = c.Cache.Get(rec.Page)
	}
	if !ok {
		return nil, Missing, nil
	}
	return pg, Resident, nil
}

// Put installs redo's version where the page was (log apply is not the
// reader a parked page waits for).
//
//socrates:hotpath runs once per record a secondary applies; TestSecondaryApplyAllocs
func (c *Cached) Put(next *page.Page, err error) error {
	if err == nil && c.parked {
		//socrates:ignore-err a secondary's error rule drops a record it cannot install (DESIGN §21 lists the rule as a finding)
		_, _ = c.Cache.PutHinted(next)
	} else if err == nil {
		//socrates:ignore-err the secondary's error rule, as above
		_ = c.Cache.Put(next)
	}
	return nil
}

// Replica is an HADR replica's policy (§2): every node holds every page, so
// a missing one is made new. An unreadable page or a failed redo drops the
// record.
type Replica struct{ Pages fcb.PageFile }

// Page answers for an HADR replica.
func (p Replica) Page(rec *wal.Record) (*page.Page, Answer, error) {
	pg, err := p.Pages.Read(rec.Page)
	switch {
	case errors.Is(err, fcb.ErrNotFound):
		return page.New(rec.Page, rec.PageType), Resident, nil
	case err != nil:
		return nil, Elsewhere, nil
	}
	return pg, Resident, nil
}

// Put writes redo's version to the replica's copy.
func (p Replica) Put(next *page.Page, err error) error {
	if err == nil {
		//socrates:ignore-err a replica's page file is a bufferedFile, whose Write is an in-memory install that cannot fail; disk write-back errors are retried by its flusher
		_ = p.Pages.Write(next)
	}
	return nil
}

// Restore is point-in-time restore's policy (§4.7) over the restored
// checkpoint. A range can begin at a cell operation for a page whose image
// lies before it: an empty node is made to redo onto. Any error ends it.
type Restore struct{ Pages fcb.PageFile }

// Page answers for a restore.
func (p Restore) Page(rec *wal.Record) (*page.Page, Answer, error) {
	pg, err := p.Pages.Read(rec.Page)
	switch {
	case errors.Is(err, fcb.ErrNotFound) && rec.Kind == wal.KindPageImage:
		return nil, Missing, nil
	case errors.Is(err, fcb.ErrNotFound):
		pg = &page.Page{ID: rec.Page, Type: rec.PageType, Data: btree.EmptyNodePayload()}
	case err != nil:
		return nil, Missing, err
	}
	return pg, Resident, nil
}

// Put writes redo's version to the restored image.
func (p Restore) Put(next *page.Page, err error) error {
	if err != nil {
		return err
	}
	return p.Pages.Write(next)
}
