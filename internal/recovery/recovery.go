// Package recovery is the one redo cursor (DESIGN §21). Page servers,
// compute secondaries, HADR replicas and point-in-time restore all apply the
// log through a Replayer: it decodes blocks in LSN order, dispatches each
// record, cuts at a stop LSN, redoes page operations into its page set (a
// missing page's image record makes it), raises the visible commit
// timestamp and keeps the applied watermark. Each consumer supplies where a
// record's page is, as a pages policy, and installs the set at its publish
// point. Follow tails the log as it is written; ReplayRange reads a finished
// range. Redo is all there is (§3.2): uncommitted changes never reach data
// pages, so replay costs the log range, never the database size.
package recovery

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"socrates/internal/btree"
	"socrates/internal/fcb"
	"socrates/internal/page"
	"socrates/internal/rbio"
	"socrates/internal/wal"
)

// answer is a policy's answer for one page record.
type answer uint8

const (
	resident  answer = iota // the page is here: redo the record onto the version returned, in the cursor's set
	missing                 // the page is not here: its image record creates it, any other record is ignored
	elsewhere               // not the cursor's to apply: not this consumer's page, or queued behind a fetch
)

// pages is one consumer's redo policy: the one place redo asks for pages.
// Its Read and Write are the pager of the cursor's page set: the version the
// consumer has published (fcb.ErrNotFound if none), and its install.
type pages interface {
	fcb.PageFile
	// Page answers for a record whose page the cursor's set does not own
	// (the set may hold the policy's own staging). An error ends the walk.
	Page(rec *wal.Record, set *btree.PageSet) (*page.Page, answer, error)
	// Failed is the error rule for a failed redo: err ends the walk, nil
	// drops the record.
	Failed(err error) error
}

// Replayer is the redo cursor, driven by one goroutine. The versions redo
// builds stay in its page set, each page copied on its first record and
// edited in place after, until the consumer installs the set.
type Replayer struct {
	pages   pages
	set     *btree.PageSet
	applied page.LSN
	visible uint64
	redone  int
}

// NewReplayer builds a cursor over a policy, its watermark at from. Redo is
// idempotent: overlapping ranges are safe.
func NewReplayer(pages pages, from page.LSN) *Replayer {
	return &Replayer{pages: pages, set: btree.NewPageSet(pager{pages}), applied: from}
}

// pager is the set's: redo allocates nothing, an image record makes a page.
type pager struct{ pages }

func (pager) Allocate(page.Type) (*page.Page, error) {
	return nil, errors.New("recovery: redo allocates no pages")
}

// PageSet is the cursor's set: the versions redo built and nobody else sees
// until Install publishes them through the policy.
func (r *Replayer) PageSet() *btree.PageSet { return r.set }

// Redone counts the records redone into the set, a running count.
func (r *Replayer) Redone() int { return r.redone }

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

// redo redoes a page operation in the set: onto the set's own version of the
// page if it has one — a page staged this pull takes all of the pull's
// records, fetch or no fetch (DESIGN §21.3) — else onto the one the policy
// answers with.
func (r *Replayer) redo(rec *wal.Record) error {
	pg, answer, err := r.set.Owned(rec.Page), resident, error(nil)
	if pg == nil {
		pg, answer, err = r.pages.Page(rec, r.set)
	}
	if err != nil || answer == elsewhere || (answer == missing && rec.Kind != wal.KindPageImage) {
		return err
	}
	switch {
	case answer == missing:
		if pg, err = btree.NewFormatted(rec); err == nil {
			r.set.Stage(pg, true)
		}
	case rec.LSN.AtMost(pg.LSN):
		return nil // the page already reflects the record
	default:
		err = r.set.Apply(pg, rec)
	}
	if err != nil {
		return r.pages.Failed(fmt.Errorf("recovery: redo at LSN %d: %w", rec.LSN, err))
	}
	r.redone++
	return nil
}

// ApplyBlocks decodes a pull's answer and applies its records below stop.
// They alias payload (DESIGN §16.8), which nobody may write again. A failure
// drops what the set staged, unpublished: the pull is pulled again.
func (r *Replayer) ApplyBlocks(payload []byte, stop page.LSN) error {
	for len(payload) > 0 {
		b, n, err := wal.DecodeBlock(payload)
		if err != nil {
			r.set.Drop()
			return fmt.Errorf("recovery: decoding block: %w", err)
		}
		for _, rec := range b.Records {
			if err := r.ApplyRecord(rec, stop); err != nil {
				r.set.Drop()
				return err
			}
		}
		payload = payload[n:]
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

// puller is a log source serving [from, …) as encoded blocks; the XLOG
// service's Pull method satisfies it.
type puller interface {
	Pull(ctx context.Context, from page.LSN, partition int32, maxBytes int) ([]byte, page.LSN, error)
}

// ReplayRange is the bounded range walk of a restore: it pulls the log from
// the watermark to stop (0: all src has), checking ctx between pulls,
// applies each block in LSN order and installs the set after each pull. It
// returns the LSN reached, short of stop when src ran out first; an error
// ends it too.
func (r *Replayer) ReplayRange(ctx context.Context, src puller, stop page.LSN) (page.LSN, error) {
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
		if err := r.set.Install(); err != nil {
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
// takes a nonempty answer: it applies the payload (ApplyBlocks), installs
// the set and publishes the consumer's watermarks. The watermark then moves
// to the answer's end, past blocks XLOG filtered out; after a failure it
// stays.
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
