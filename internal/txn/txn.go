// Package txn provides the transaction-management primitives under the
// engine: the commit-timestamp clock that drives Snapshot Isolation and the
// row lock table that gives writers first-writer-wins conflict semantics.
//
// The clock separates allocation from publication: a commit timestamp is
// allocated when the transaction starts applying its writes, but becomes
// visible to new snapshots only after the commit record hardens in the
// landing zone. Readers therefore never observe effects that could still be
// lost in a crash — the invariant that lets Socrates skip undo entirely
// (the ADR property, §3.2).
package txn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrWriteConflict reports a first-writer-wins conflict: another active
// transaction already holds the row lock.
var ErrWriteConflict = errors.New("txn: write-write conflict")

// Clock issues snapshot and commit timestamps.
type Clock struct {
	mu      sync.Mutex
	next    uint64 // last allocated commit timestamp
	visible uint64 // highest published (hardened) commit timestamp
}

// NewClock returns a clock at timestamp zero.
func NewClock() *Clock { return &Clock{} }

// Snapshot returns the timestamp a new snapshot reads at: everything
// published so far.
func (c *Clock) Snapshot() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.visible
}

// AllocateCommit reserves the next commit timestamp. Callers must hold the
// engine's commit lock, so allocation order equals log order.
func (c *Clock) AllocateCommit() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.next++
	return c.next
}

// Publish makes ts visible to new snapshots (called after the commit record
// hardened). Publication never regresses.
func (c *Clock) Publish(ts uint64) {
	c.mu.Lock()
	if ts > c.visible {
		c.visible = ts
	}
	if ts > c.next {
		c.next = ts
	}
	c.mu.Unlock()
}

// Visible reports the published watermark.
func (c *Clock) Visible() uint64 { return c.Snapshot() }

// LockTable is a row lock table with immediate (no-wait) conflict
// detection. Keys are opaque strings (table‖row key).
type LockTable struct {
	mu    sync.Mutex
	locks map[string]uint64 // key → holding txn ID
}

// NewLockTable returns an empty lock table.
func NewLockTable() *LockTable {
	return &LockTable{locks: make(map[string]uint64)}
}

// Acquire takes the lock for txnID. Re-acquiring a lock the transaction
// already holds succeeds; a lock held by another transaction fails with
// ErrWriteConflict immediately (first-writer-wins).
func (lt *LockTable) Acquire(key string, txnID uint64) error {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	holder, held := lt.locks[key]
	if held && holder != txnID {
		return fmt.Errorf("%w: key held by txn %d", ErrWriteConflict, holder)
	}
	lt.locks[key] = txnID
	return nil
}

// ReleaseAll drops every given lock held by txnID.
func (lt *LockTable) ReleaseAll(keys []string, txnID uint64) {
	lt.mu.Lock()
	for _, k := range keys {
		if lt.locks[k] == txnID {
			delete(lt.locks, k)
		}
	}
	lt.mu.Unlock()
}

// IDSource allocates transaction IDs.
type IDSource struct{ next atomic.Uint64 }

// Next returns a fresh nonzero transaction ID.
func (s *IDSource) Next() uint64 { return s.next.Add(1) }
