// Package recovery implements the log-replay half of the ADR-style recovery
// story (§3.2): because uncommitted changes never reach data pages
// (commit-time apply), restart recovery is analysis + redo only — there is
// no undo phase, and the replay cost is bounded by the log range replayed,
// never by the oldest active transaction or the database size.
//
// The Replayer is the single redo cursor used by every offline consumer of
// the log: point-in-time restore (snapshot + log range → consistent image)
// and scratch replicas in tests. Online consumers (page servers,
// secondaries) use the same btree.Apply redo under their own policies.
package recovery

import (
	"context"
	"errors"
	"fmt"

	"socrates/internal/btree"
	"socrates/internal/fcb"
	"socrates/internal/page"
	"socrates/internal/wal"
)

// Replayer applies a log stream to a page file in LSN order, materializing
// missing pages from their image records and tracking the visibility
// watermark (highest replayed commit timestamp).
type Replayer struct {
	pages   fcb.PageFile
	applied page.LSN
	visible uint64
	records int64
}

// NewReplayer builds a replayer over the page file. Pages already present
// are respected: redo is idempotent, so overlapping ranges are safe.
func NewReplayer(pages fcb.PageFile) *Replayer {
	return &Replayer{pages: pages}
}

// Applied reports the LSN after the last applied record.
func (r *Replayer) Applied() page.LSN { return r.applied }

// Visible reports the highest commit timestamp replayed — the snapshot a
// restored engine should publish.
func (r *Replayer) Visible() uint64 { return r.visible }

// Records reports how many records were applied (replay cost accounting).
func (r *Replayer) Records() int64 { return r.records }

// ApplyRecord applies one record. Records at or beyond stopLSN (nonzero)
// are skipped — the point-in-time cut.
func (r *Replayer) ApplyRecord(rec *wal.Record, stopLSN page.LSN) error {
	if stopLSN != 0 && rec.LSN.AtLeast(stopLSN) {
		return nil
	}
	switch {
	case rec.Kind == wal.KindTxnCommit:
		if ts := rec.CommitTS(); ts > r.visible {
			r.visible = ts
		}
	case rec.IsPageOp():
		pg, err := r.pages.Read(rec.Page)
		if errors.Is(err, fcb.ErrNotFound) {
			pg = page.New(rec.Page, rec.PageType)
			if rec.Kind != wal.KindPageImage {
				// Replaying a partial range can start at a cell op for a
				// page whose image lies before the range; materialize an
				// empty node to redo onto.
				pg.Data = btree.EmptyNodePayload()
			}
		} else if err != nil {
			return err
		}
		next, applied, err := btree.Apply(pg, rec)
		if err != nil {
			return fmt.Errorf("recovery: redo at LSN %d: %w", rec.LSN, err)
		}
		if applied {
			r.records++
			if err := r.pages.Write(next); err != nil {
				return err
			}
		}
	}
	if rec.LSN.AtLeast(r.applied) {
		r.applied = rec.LSN.Next()
	}
	return nil
}

// ApplyBlocks decodes a concatenation of encoded blocks (as returned by an
// XLOG pull) and applies every record below stopLSN.
func (r *Replayer) ApplyBlocks(payload []byte, stopLSN page.LSN) error {
	for len(payload) > 0 {
		b, n, err := wal.DecodeBlock(payload)
		if err != nil {
			return fmt.Errorf("recovery: decoding block: %w", err)
		}
		payload = payload[n:]
		for _, rec := range b.Records {
			if err := r.ApplyRecord(rec, stopLSN); err != nil {
				return err
			}
		}
	}
	return nil
}

// Puller abstracts a log source serving [from, …) as encoded blocks; the
// XLOG service's Pull method satisfies it.
type Puller interface {
	Pull(ctx context.Context, from page.LSN, partition int32, maxBytes int) ([]byte, page.LSN, error)
}

// ReplayRange pulls and applies the log range [from, stopLSN) (stopLSN 0 =
// everything available) from the source. Returns the LSN reached. The
// context bounds the pulls and carries the restore workflow's trace.
func (r *Replayer) ReplayRange(ctx context.Context, src Puller, from, stopLSN page.LSN) (page.LSN, error) {
	cursor := from
	for stopLSN == 0 || cursor.Before(stopLSN) {
		if err := ctx.Err(); err != nil {
			return cursor, err
		}
		payload, next, err := src.Pull(ctx, cursor, -1, 1<<20)
		if err != nil {
			return cursor, err
		}
		if next == cursor {
			break // caught up with the available log
		}
		if err := r.ApplyBlocks(payload, stopLSN); err != nil {
			return cursor, err
		}
		cursor = next
	}
	return cursor, nil
}
