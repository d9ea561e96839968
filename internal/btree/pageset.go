package btree

import (
	"socrates/internal/page"
	"socrates/internal/wal"
)

// PageSet holds the page versions one writer builds until it installs them:
// a commit's pages, or what the redo cursor builds from a pull (DESIGN
// §16.2). Nobody but the writer sees them — the pager underneath holds the
// published versions, and readers read those — until Install hands each page
// to the pager, once.
// The first change to a page copies it, as writing a new version does; every
// later change edits that copy in place, as Edit does for redo's own versions.
//
// A PageSet is its writer's Pager: a Tree opened over it reads its own
// writes, and a page it does not hold is read from the pager. Its writer is
// serialized (the engine's commit latch, a consumer's apply loop); a
// PageSet is not safe for concurrent use.
type PageSet struct {
	pager  Pager
	index  map[page.ID]int // page → its entry in staged
	staged []stagedPage    // in the order the pages were first written
}

type stagedPage struct {
	pg    *page.Page // nil for a page allocated and not yet written
	own   bool       // the payload is the set's alone: changes go in place
	fresh bool       // allocated through the set: installs first
}

// NewPageSet returns an empty set over pager, which serves the pages the set
// does not hold, allocates, and takes what Install publishes.
func NewPageSet(pager Pager) *PageSet {
	return &PageSet{pager: pager, index: make(map[page.ID]int)}
}

// Read returns the set's version of the page, else the pager's.
func (s *PageSet) Read(id page.ID) (*page.Page, error) {
	if i, ok := s.index[id]; ok && s.staged[i].pg != nil {
		return s.staged[i].pg, nil
	}
	return s.pager.Read(id)
}

// Write stages pg as its page's next version. The writer may still share
// pg's payload — a page image it logged aliases it until the log encodes the
// record — so the set does not own it, and the page's next change copies.
func (s *PageSet) Write(pg *page.Page) error {
	s.Stage(pg, false)
	return nil
}

// Allocate takes a fresh page from the pager. Install publishes it before
// any page that can name it.
func (s *PageSet) Allocate(t page.Type) (*page.Page, error) {
	pg, err := s.pager.Allocate(t)
	if err != nil {
		return nil, err
	}
	s.entry(pg.ID).fresh = true
	return pg, nil
}

// Apply redoes rec, a record the writer has logged, onto pg, the version of
// rec's page that Read or Allocate returned: in place when the set owns pg,
// else onto a copy (Apply) that the set then owns. The result is byte for
// byte what redo of the same record builds.
func (s *PageSet) Apply(pg *page.Page, rec *wal.Record) error {
	if s.Owned(pg.ID) == pg {
		_, err := Edit(pg, rec)
		return err
	}
	next, applied, err := Apply(pg, rec)
	if applied {
		s.Stage(next, true)
	}
	return err
}

// Owned returns the set's current version of the page if its payload is the
// set's alone, else nil. A nil set owns nothing.
func (s *PageSet) Owned(id page.ID) *page.Page {
	if s == nil {
		return nil
	}
	if i, ok := s.index[id]; ok && s.staged[i].own {
		return s.staged[i].pg
	}
	return nil
}

// Stage makes pg its page's next version; own says whether its payload is
// the set's alone.
func (s *PageSet) Stage(pg *page.Page, own bool) {
	e := s.entry(pg.ID)
	e.pg, e.own = pg, own
}

func (s *PageSet) entry(id page.ID) *stagedPage {
	i, ok := s.index[id]
	if !ok {
		i = len(s.staged)
		s.index[id] = i
		s.staged = append(s.staged, stagedPage{})
	}
	return &s.staged[i]
}

// Install writes every staged page to the pager, once each, at its last
// change's LSN, and empties the set. Pages the set allocated go first, then
// version-store pages, then the rest: no installed page then names a page or
// a version slot that is not there yet, and a reader meeting old and new
// pages of one tree fails a fence check and retries. An error leaves the
// set empty and the pages it had not yet written unpublished.
func (s *PageSet) Install() error {
	defer s.Drop()
	for pass := 0; pass < 3; pass++ {
		for _, e := range s.staged {
			if e.pg == nil || e.pass() != pass {
				continue
			}
			if err := s.pager.Write(e.pg); err != nil {
				return err
			}
		}
	}
	return nil
}

// pass is the Install pass that publishes the page.
func (e *stagedPage) pass() int {
	switch {
	case e.fresh:
		return 0
	case e.pg.Type == page.TypeVersion:
		return 1
	}
	return 2
}

// Drop discards the staged versions unpublished.
func (s *PageSet) Drop() {
	clear(s.index)
	clear(s.staged)
	s.staged = s.staged[:0]
}
