package versionstore

import (
	"socrates/internal/btree"
	"socrates/internal/page"
	"socrates/internal/wal"
)

// applyRecord lets tests replay redo through the same path replicas use.
func applyRecord(pg *page.Page, rec *wal.Record) (*page.Page, bool, error) {
	return btree.Apply(pg, rec)
}
