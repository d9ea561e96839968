package btree

import (
	"bytes"
	"fmt"

	"socrates/internal/page"
	"socrates/internal/wal"
)

// Apply performs redo of one page-mutation record against the page. It is
// the single convergence point for secondaries, page servers, and restart
// recovery.
//
// Pages are immutable (DESIGN §16): pg is never modified. When the record
// applies, Apply returns a fresh page around the new payload — two
// allocations per record — and readers still holding pg keep a whole,
// consistent older version.
//
// Redo is idempotent: records at or below the page's LSN are skipped (pg
// itself comes back, applied false), so a consumer may safely replay
// overlapping log ranges.
func Apply(pg *page.Page, rec *wal.Record) (next *page.Page, applied bool, err error) {
	if !rec.IsPageOp() {
		return pg, false, fmt.Errorf("btree: record %v is not a page op", rec.Kind)
	}
	if rec.Page != pg.ID {
		return pg, false, fmt.Errorf("btree: record for page %d applied to page %d", rec.Page, pg.ID)
	}
	if rec.LSN.AtMost(pg.LSN) {
		return pg, false, nil // already reflected
	}
	if rec.Kind == wal.KindPageImage {
		next, err := NewFormatted(rec)
		return next, err == nil, err
	}
	v, err := parseView(pg.Data)
	if err != nil {
		return pg, false, fmt.Errorf("btree: redo %v on page %d: %w", rec.Kind, pg.ID, err)
	}
	var data []byte
	if rec.Kind == wal.KindCellPut {
		data, err = v.put(rec.Key, rec.Value)
	} else {
		data, _, err = v.remove(rec.Key)
	}
	if err != nil {
		return pg, false, fmt.Errorf("btree: redo %v on page %d: %w", rec.Kind, pg.ID, err)
	}
	return &page.Page{ID: pg.ID, LSN: rec.LSN, Type: pg.Type, Data: data}, true, nil
}

// NewFormatted builds a page directly from a page-image record — used when
// a consumer applies a record for a page it has never seen (e.g. a page
// server materializing a freshly allocated page).
func NewFormatted(rec *wal.Record) (*page.Page, error) {
	if rec.Kind != wal.KindPageImage {
		return nil, fmt.Errorf("btree: cannot materialize page from %v record", rec.Kind)
	}
	return &page.Page{
		ID:   rec.Page,
		LSN:  rec.LSN,
		Type: rec.PageType,
		Data: bytes.Clone(rec.Value),
	}, nil
}
