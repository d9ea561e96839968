// Package recovery is the one redo cursor (DESIGN §21). Page servers,
// compute secondaries, HADR replicas and point-in-time restore all apply the
// log through a Replayer: it decodes blocks in LSN order, dispatches each
// record, cuts at a stop LSN, redoes page operations (a missing page's image
// record makes it), hands commit timestamps to a block hook and keeps the
// applied watermark. Each consumer supplies where a record's page is, as a
// Pages policy. Follow tails the log as it is written; Walk reads a finished
// range. Redo is all there is (§3.2): uncommitted changes never reach data
// pages, so replay costs the log range, never the database size.
package recovery

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"socrates/internal/btree"
	"socrates/internal/page"
	"socrates/internal/rbio"
	"socrates/internal/wal"
)

// Answer is a policy's answer for one page record.
type Answer uint8

const (
	Resident  Answer = iota // the page is here: redo the record onto the version returned
	Missing                 // the page is not here: its image record creates it, any other record is ignored
	Elsewhere               // not the cursor's to apply: not this consumer's page, or queued behind a fetch
	Private                 // the version returned is one redo built and nobody else sees yet: redo edits it in place
)

// Pages is one consumer's redo policy: the one place redo asks for pages.
type Pages interface {
	// Page answers for a page record. An error ends the walk.
	Page(rec *wal.Record) (*page.Page, Answer, error)
	// Put takes redo's next version, or its error and a nil page; never a
	// record the page already reflects. A version redo built is private
	// until the policy publishes it; after an in-place edit of a Private
	// answer it is the same pointer. An error Put returns ends the walk,
	// nil after a redo error drops the record: the consumer's error rule.
	Put(next *page.Page, err error) error
}

// BlockHook is called before a block's first record (done false) and after
// its last (done true), with the highest commit timestamp replayed so far.
type BlockHook func(b *wal.Block, done bool, visible uint64)

// Replayer is the redo cursor, driven by one goroutine.
type Replayer struct {
	pages   Pages
	block   BlockHook
	applied page.LSN
	visible uint64
}

// NewReplayer builds a cursor over a policy, its watermark at from; block
// may be nil. Redo is idempotent: overlapping ranges are safe.
func NewReplayer(pages Pages, from page.LSN, block BlockHook) *Replayer {
	if block == nil {
		block = func(*wal.Block, bool, uint64) {}
	}
	return &Replayer{pages: pages, block: block, applied: from}
}

// Visible reports the highest commit timestamp replayed.
func (r *Replayer) Visible() uint64 { return r.visible }

// ApplyRecord applies one record. One at or after stop (nonzero) is cut: the
// point-in-time cut applies nothing and leaves the watermark.
//
//socrates:hotpath runs once per record of every consumer's feed; TestApplyFeedAllocs (page server), TestSecondaryApplyAllocs (secondary)
func (r *Replayer) ApplyRecord(rec *wal.Record, stop page.LSN) error {
	if stop != 0 && rec.LSN.AtLeast(stop) {
		return nil
	}
	switch {
	case rec.Kind == wal.KindTxnCommit:
		r.visible = max(r.visible, rec.CommitTS())
	case rec.IsPageOp():
		if err := r.redo(rec); err != nil {
			return err
		}
	}
	if rec.LSN.AtLeast(r.applied) {
		r.applied = rec.LSN.Next()
	}
	return nil
}

// redo asks the policy for a page operation's page and redoes it there.
func (r *Replayer) redo(rec *wal.Record) error {
	pg, answer, err := r.pages.Page(rec)
	if err != nil || answer == Elsewhere || (answer == Missing && rec.Kind != wal.KindPageImage) {
		return err
	}
	next, applied := pg, true
	switch answer {
	case Missing:
		next, err = btree.NewFormatted(rec)
	case Private:
		applied, err = btree.Edit(pg, rec)
	default:
		next, applied, err = btree.Apply(pg, rec)
	}
	if err != nil {
		return r.pages.Put(nil, fmt.Errorf("recovery: redo at LSN %d: %w", rec.LSN, err))
	}
	if !applied {
		return nil // the page already reflects the record
	}
	return r.pages.Put(next, nil)
}

// ApplyBlock applies one decoded block's records below stop, between the
// two calls of the block hook.
func (r *Replayer) ApplyBlock(b *wal.Block, stop page.LSN) error {
	r.block(b, false, r.visible)
	for _, rec := range b.Records {
		if err := r.ApplyRecord(rec, stop); err != nil {
			return err
		}
	}
	r.block(b, true, r.visible)
	return nil
}

// ApplyBlocks decodes a pull's answer and applies its records below stop.
// They alias payload (DESIGN §16.8), which nobody may write again.
func (r *Replayer) ApplyBlocks(payload []byte, stop page.LSN) error {
	for len(payload) > 0 {
		b, n, err := wal.DecodeBlock(payload)
		if err != nil {
			return fmt.Errorf("recovery: decoding block: %w", err)
		}
		payload = payload[n:]
		if err := r.ApplyBlock(b, stop); err != nil {
			return err
		}
	}
	return nil
}

// Redo applies a queue of records to one page in order: a compute node's
// fetch and the redo queued meanwhile (§4.5). It returns the last version.
// The first record that applies copies pg (its bytes may alias a GetPage
// response's image); that copy is private until the caller installs it, so
// every later record edits it in place.
func Redo(pg *page.Page, recs []*wal.Record) (*page.Page, error) {
	own := false
	for _, rec := range recs {
		var err error
		if own {
			_, err = btree.Edit(pg, rec)
		} else {
			pg, own, err = btree.Apply(pg, rec)
		}
		if err != nil {
			return nil, err
		}
	}
	return pg, nil
}

// Puller is a log source serving [from, …) as encoded blocks; the XLOG
// service's Pull method satisfies it.
type Puller interface {
	Pull(ctx context.Context, from page.LSN, partition int32, maxBytes int) ([]byte, page.LSN, error)
}

// ReplayRange is the bounded range walk of a restore: it pulls the log from
// the watermark to stop (0: all src has), checking ctx between pulls, and
// applies each block in LSN order. It returns the LSN reached; an error
// ends it too.
func (r *Replayer) ReplayRange(ctx context.Context, src Puller, stop page.LSN) (page.LSN, error) {
	from := r.applied
	for stop == 0 || from.Before(stop) {
		if err := ctx.Err(); err != nil {
			return from, err
		}
		payload, next, err := src.Pull(ctx, from, -1, PullBytes)
		if err != nil || next == from {
			return from, err // failed, or caught up with the available log
		}
		if err := r.ApplyBlocks(payload, stop); err != nil {
			return from, err
		}
		from = next
	}
	return from, nil
}

const (
	PullBytes = 256 << 10 // a secondary's and a range walk's pull; a page server has its own
	// pullTimeout bounds one pull: a stalled XLOG costs a timed-out round,
	// not a wedged consumer. XLOG answers an idle long poll well before it.
	pullTimeout = 10 * time.Second
	// pullRetry spaces failed pulls, so an outage does not spin a core. An
	// empty answer is pulled again at once: XLOG answers only once the log
	// passes the pull, or at its own cap.
	pullRetry = 500 * time.Microsecond
)

// retryWait, when a test stores one, stands in for the failed-pull back-off.
var retryWait atomic.Pointer[func(context.Context)]

// Follow is the online loop of a page server (partition: its own) or a
// secondary (-1: the whole stream). It pulls until ctx ends and backs off
// after a failed pull.
func (r *Replayer) Follow(ctx context.Context, xlog *rbio.Client, partition int32, maxBytes int, apply func(from, next page.LSN, payload []byte) error) {
	for ctx.Err() == nil {
		if err := r.Pull(ctx, xlog, partition, maxBytes, apply); err != nil {
			backOff(ctx)
		}
	}
}

// Pull is one round of Follow, a long poll at XLOG from the watermark. apply
// takes a nonempty answer: it applies the payload (ApplyBlocks) and
// publishes the consumer's watermarks. The watermark then moves to the
// answer's end, past blocks XLOG filtered out; after a failure it stays.
//
//socrates:hotpath the online loop's pull; TestApplyFeedAllocs (a pull under a cancelled context)
func (r *Replayer) Pull(ctx context.Context, xlog *rbio.Client, partition int32, maxBytes int, apply func(from, next page.LSN, payload []byte) error) error {
	from := r.applied
	ctx, cancel := context.WithTimeout(ctx, pullTimeout)
	defer cancel()
	resp, err := xlog.Call(ctx, &rbio.Request{Type: rbio.MsgPullBlocks, LSN: from,
		Partition: partition, MaxBytes: int32(maxBytes)})
	if err == nil {
		err = resp.Err()
	}
	if err != nil || resp.LSN == from {
		return err
	}
	if err := apply(from, resp.LSN, resp.Payload); err != nil {
		r.applied = from
		return err
	}
	r.applied = page.MaxLSN(r.applied, resp.LSN)
	return nil
}

// backOff waits out pullRetry after a failed pull, or until ctx ends.
func backOff(ctx context.Context) {
	if wait := retryWait.Load(); wait != nil {
		(*wait)(ctx)
		return
	}
	retry := time.NewTimer(pullRetry)
	defer retry.Stop()
	//socrates:wait-ok failed-pull back-off in the online loop; nobody waits on it
	select {
	case <-ctx.Done():
	case <-retry.C:
	}
}
