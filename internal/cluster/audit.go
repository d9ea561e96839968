package cluster

import (
	"context"
	"slices"

	"socrates/internal/page"
	"socrates/internal/recovery"
	"socrates/internal/wal"
)

// AuditEvent is one committed transaction observed in the log. The paper's
// future-work section (§8) proposes "making use of the log for other
// services such as audit and security"; because XLOG already serves the
// hardened log to any consumer, an audit tail is a pull loop away.
type AuditEvent struct {
	// CommitLSN is the commit record's position.
	CommitLSN page.LSN
	// Txn is the transaction ID.
	Txn uint64
	// CommitTS is the commit timestamp (snapshot ordering).
	CommitTS uint64
	// Writes counts the page mutations the transaction carried.
	Writes int
	// Tables is unavailable at the log layer (physiological records carry
	// page IDs); Pages lists the distinct pages touched, in log order.
	Pages []page.ID
}

// AuditTail reads committed-transaction events from the hardened log
// starting at fromLSN, returning at most max events and the LSN to resume
// from. It consumes the same dissemination path as secondaries and page
// servers, through the redo cursor's range walk (recovery.Walk), with zero
// impact on the primary.
func (c *Cluster) AuditTail(fromLSN page.LSN, max int) ([]AuditEvent, page.LSN, error) {
	if fromLSN == 0 {
		fromLSN = 1
	}
	// XLOG serves what it has promoted, and the primary's harden reports
	// are asynchronous: promote to the landing zone's durable end first, so
	// a commit acknowledged before the call is in the tail (as addSecondary
	// does for a new secondary's start).
	c.XLOG.ReportHardened(context.Background(), c.LZ.HardenedEnd())
	if max <= 0 {
		max = 1000
	}
	var events []AuditEvent
	var cur *AuditEvent
	next, err := recovery.Walk(context.Background(), c.XLOG, fromLSN, 0, func(b *wal.Block) (bool, error) {
		if len(events) >= max {
			return false, nil // budget reached: resume at this (unprocessed) block
		}
		for _, rec := range b.Records {
			switch {
			case rec.Kind == wal.KindTxnBegin:
				cur = &AuditEvent{Txn: rec.Txn}
			case rec.IsPageOp() && cur != nil:
				cur.Writes++
				if !slices.Contains(cur.Pages, rec.Page) {
					cur.Pages = append(cur.Pages, rec.Page)
				}
			case rec.Kind == wal.KindTxnCommit:
				ev := AuditEvent{Txn: rec.Txn, CommitLSN: rec.LSN, CommitTS: rec.CommitTS()}
				if cur != nil && cur.Txn == rec.Txn {
					ev.Writes, ev.Pages = cur.Writes, cur.Pages
				}
				events = append(events, ev)
				cur = nil
			}
		}
		return true, nil
	})
	if err != nil {
		return nil, fromLSN, err
	}
	return events, next, nil
}
