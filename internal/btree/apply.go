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
// applies, Apply returns a fresh page around a new payload — two
// allocations per record, the payload never shared with pg's — and readers
// still holding pg keep a whole, consistent older version. What Apply
// returns is its caller's alone until the caller publishes it, so redo that
// keeps it private may go on with Edit.
//
// Redo is idempotent: records at or below the page's LSN are skipped (pg
// itself comes back, applied false), so a consumer may safely replay
// overlapping log ranges.
func Apply(pg *page.Page, rec *wal.Record) (next *page.Page, applied bool, err error) {
	data, applied, err := redo(pg, rec, false)
	if !applied {
		return pg, false, err
	}
	next = &page.Page{ID: pg.ID, LSN: rec.LSN, Type: pg.Type, Data: data}
	if rec.Kind == wal.KindPageImage {
		next.Type = rec.PageType
	}
	return next, true, nil
}

// Edit is Apply in place, for a page nobody else can see: a version Apply
// or NewFormatted returned that its caller has not yet published (a page
// server's batch during a pull, a fetched page's queued redo). pg's payload
// is edited in its own buffer, which grows only when it lacks room — no
// allocation while it has it — and pg takes the record's LSN. The result is
// byte for byte Apply's. A failed edit leaves pg unchanged. Never hand it a
// published page, or one with an image: its readers would see it change.
func Edit(pg *page.Page, rec *wal.Record) (applied bool, err error) {
	if pg.Image() != nil {
		return false, fmt.Errorf("btree: in-place redo on page %d, which has an image", pg.ID)
	}
	data, applied, err := redo(pg, rec, true)
	if applied {
		pg.Data, pg.LSN = data, rec.LSN
		if rec.Kind == wal.KindPageImage {
			pg.Type = rec.PageType
		}
	}
	return applied, err
}

// redo returns the payload rec leaves on pg: a new one, or in place (own)
// pg's own buffer edited.
func redo(pg *page.Page, rec *wal.Record, own bool) ([]byte, bool, error) {
	if !rec.IsPageOp() {
		return nil, false, fmt.Errorf("btree: record %v is not a page op", rec.Kind)
	}
	if rec.Page != pg.ID {
		return nil, false, fmt.Errorf("btree: record for page %d applied to page %d", rec.Page, pg.ID)
	}
	if rec.LSN.AtMost(pg.LSN) {
		return nil, false, nil // already reflected
	}
	if rec.Kind == wal.KindPageImage {
		if own {
			return append(pg.Data[:0], rec.Value...), true, nil
		}
		return bytes.Clone(rec.Value), true, nil
	}
	v, err := parseView(pg.Data)
	if err != nil {
		return nil, false, fmt.Errorf("btree: redo %v on page %d: %w", rec.Kind, pg.ID, err)
	}
	data, err := v.put(rec.Key, rec.Value, own)
	if err != nil {
		return nil, false, fmt.Errorf("btree: redo %v on page %d: %w", rec.Kind, pg.ID, err)
	}
	return data, true, nil
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
