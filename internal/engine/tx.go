package engine

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"

	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/txn"
	"socrates/internal/versionstore"
	"socrates/internal/wal"
)

// Tx is one transaction under Snapshot Isolation. Reads see the database as
// of the snapshot timestamp; writes buffer in the transaction (taking row
// locks eagerly, first-writer-wins) and apply to pages only at commit — so
// aborts are free and recovery needs no undo (§3.2).
type Tx struct {
	e        *Engine
	ctx      context.Context // bounds commit waits; carries the span identity
	id       uint64
	snapshot uint64
	readOnly bool
	done     bool

	// commitLSN is the LSN of the commit record, set during Commit the
	// moment the record is appended — before the harden wait. It therefore
	// survives ambiguous commits (ctx expired mid-wait), letting callers
	// (the chaos oracle in particular) know exactly which log position to
	// probe for the outcome. Zero until then and for empty write sets.
	commitLSN page.LSN

	writes   []writeOp
	writeIdx map[string]int // lock key → index of the latest write
	lockKeys []string
}

type writeOp struct {
	table  string
	key    []byte
	value  []byte
	delete bool
}

func lockKey(table string, key []byte) string {
	return table + "\x00" + string(key)
}

// Begin starts a read-write transaction at the current snapshot.
func (e *Engine) Begin() *Tx {
	return e.BeginContext(context.Background())
}

// BeginContext starts a read-write transaction bound to ctx: commit waits
// honor ctx's deadline, and the commit record is attributed to ctx's span
// (so the landing-zone write joins the request's trace).
func (e *Engine) BeginContext(ctx context.Context) *Tx {
	return &Tx{
		e:        e,
		ctx:      ctx,
		id:       e.ids.Next(),
		snapshot: e.clock.Snapshot(),
		writeIdx: make(map[string]int),
	}
}

// BeginRO starts a read-only transaction at the current snapshot.
func (e *Engine) BeginRO() *Tx {
	tx := e.Begin()
	tx.readOnly = true
	return tx
}

// BeginROContext starts a read-only transaction bound to ctx.
func (e *Engine) BeginROContext(ctx context.Context) *Tx {
	tx := e.BeginContext(ctx)
	tx.readOnly = true
	return tx
}

// CommitLSN reports the LSN of this transaction's commit record: zero
// before Commit, after Abort, or when the write set was empty or rejected
// before reaching the log. Non-zero even when Commit returned an
// ambiguous-outcome error, so the caller can probe the log for the verdict.
func (tx *Tx) CommitLSN() page.LSN { return tx.commitLSN }

// Get returns the value of key in table visible to this transaction,
// including its own uncommitted writes.
func (tx *Tx) Get(table string, key []byte) ([]byte, bool, error) {
	if tx.done {
		return nil, false, errTxDone
	}
	if i, ok := tx.writeIdx[lockKey(table, key)]; ok {
		op := tx.writes[i]
		if op.delete {
			return nil, false, nil
		}
		return append([]byte(nil), op.value...), true, nil
	}
	tx.e.charge(cpuGet)
	return tx.e.readVisible(table, key, tx.snapshot)
}

// readVisible resolves a row at a snapshot through the version chain. The
// value is the caller's own: when the row's head is visible it is the head's
// payload inside Tree.Get's copy of the cell, and only a version found down
// the chain, which aliases its version page, is copied.
//
//socrates:hotpath every point read; TestReadVisibleAllocs
func (e *Engine) readVisible(table string, key []byte, snapshot uint64) ([]byte, bool, error) {
	tree, err := e.tableTree(table)
	if err != nil {
		return nil, false, err
	}
	var payload []byte
	var found bool
	err = e.withReadRetry(func() error {
		payload, found = nil, false
		raw, ok, err := tree.Get(key)
		if err != nil || !ok {
			return err
		}
		head, err := versionstore.Decode(raw)
		if err != nil {
			return err
		}
		v, ok, err := e.vs.Visible(head, snapshot)
		if err != nil || !ok {
			return err
		}
		payload, found = v.Payload, true
		if v.CommitTS != head.CommitTS { // commit timestamps fall strictly down a chain
			payload = bytes.Clone(v.Payload)
		}
		return nil
	})
	return payload, found, err
}

// Put buffers an upsert of key→value, taking the row lock immediately.
func (tx *Tx) Put(table string, key, value []byte) error {
	return tx.write(writeOp{table: table, key: append([]byte(nil), key...),
		value: append([]byte(nil), value...)})
}

// Delete buffers a deletion of key, taking the row lock immediately.
func (tx *Tx) Delete(table string, key []byte) error {
	return tx.write(writeOp{table: table, key: append([]byte(nil), key...), delete: true})
}

func (tx *Tx) write(op writeOp) error {
	if tx.done {
		return errTxDone
	}
	if tx.readOnly {
		return ErrReadOnly
	}
	if tx.e.cfg.ReadOnly {
		return ErrReadOnly
	}
	if _, err := tx.e.tableTree(op.table); err != nil {
		return err
	}
	lk := lockKey(op.table, op.key)
	if _, held := tx.writeIdx[lk]; !held {
		if err := tx.e.locks.Acquire(lk, tx.id); err != nil {
			return err
		}
		tx.lockKeys = append(tx.lockKeys, lk)
	}
	tx.e.charge(cpuPut)
	if i, ok := tx.writeIdx[lk]; ok {
		tx.writes[i] = op
		return nil
	}
	tx.writes = append(tx.writes, op)
	tx.writeIdx[lk] = len(tx.writes) - 1
	return nil
}

// Scan streams rows of table with lo <= key < hi (nil hi = unbounded) at
// the transaction's snapshot, overlaid with its own writes, in key order,
// until fn returns false. The key and value passed to fn are read-only
// views, valid during the call: a committed row aliases its page, an own
// write the transaction's buffer. Copy what outlives the call.
func (tx *Tx) Scan(table string, lo, hi []byte, fn func(key, value []byte) bool) error {
	if tx.done {
		return errTxDone
	}
	stopped := false
	emit := func(k, v []byte) bool {
		tx.e.charge(cpuScanRow)
		stopped = !fn(k, v)
		return !stopped
	}
	// The committed rows and own come in key order: each own write goes out
	// ahead of the committed rows above it, and replaces (or, for a delete,
	// removes) the committed row of its key. A retry of the committed scan
	// resumes after the last row it handed out, so own is a cursor that
	// never steps back.
	own := tx.writesInRange(table, lo, hi)
	err := tx.e.scanVisible(table, lo, hi, tx.snapshot, func(k, v []byte) bool {
		for len(own) > 0 {
			c := bytes.Compare(own[0].key, k)
			if c > 0 {
				break
			}
			op := own[0]
			own = own[1:]
			if c == 0 {
				return op.delete || emit(op.key, op.value)
			}
			if !op.delete && !emit(op.key, op.value) {
				return false
			}
		}
		return emit(k, v)
	})
	if err != nil || stopped {
		return err
	}
	for _, op := range own {
		if !op.delete && !emit(op.key, op.value) {
			break
		}
	}
	return nil
}

// writesInRange returns the transaction's latest writes to table with
// lo <= key < hi (nil hi = unbounded), in key order.
func (tx *Tx) writesInRange(table string, lo, hi []byte) []writeOp {
	if len(tx.writes) == 0 {
		return nil
	}
	var ops []writeOp
	for _, i := range sortedWriteIndexes(tx) {
		op := tx.writes[i]
		if op.table == table && (lo == nil || bytes.Compare(op.key, lo) >= 0) &&
			(hi == nil || bytes.Compare(op.key, hi) < 0) {
			ops = append(ops, op)
		}
	}
	return ops
}

// scanVisible hands fn each committed row visible at the snapshot, in key
// order, while the walk stands on its cell, until fn returns false. Key and
// value alias their pages, which nothing edits (DESIGN §16). A mid-scan
// inconsistency (racing log apply) retries strictly after the last key
// handed out: the snapshot is fixed, so the rows past it are the ones a
// restart would produce, and no row reaches fn twice.
//
//socrates:hotpath every range scan; TestScanVisibleAllocs
func (e *Engine) scanVisible(table string, lo, hi []byte, snapshot uint64, fn func(key, value []byte) bool) error {
	tree, err := e.tableTree(table)
	if err != nil {
		return err
	}
	var last []byte
	return e.withReadRetry(func() error {
		from := lo
		if last != nil {
			from = append(last[:len(last):len(last)], 0) // the least key above last
		}
		var inner error
		err := tree.Scan(from, hi, func(k, raw []byte) bool {
			head, err := versionstore.Decode(raw)
			if err != nil {
				inner = err
				return false
			}
			v, ok, err := e.vs.Visible(head, snapshot)
			if err != nil {
				inner = err
				return false
			}
			if !ok {
				return true
			}
			last = k
			return fn(k, v.Payload)
		})
		if inner != nil {
			return inner
		}
		return err
	})
}

// Commit applies the write set to pages, logs it as one group ending in the
// commit record, waits for the log to harden, and publishes the commit
// timestamp. On nil return the transaction is durable and visible.
//
// Ambiguity on cancellation: once the commit record is appended there is
// no undo — if ctx expires during the harden wait, Commit returns an
// error but the record is already in the log pipeline and may (and
// usually will) still harden and replicate. The error then means
// "outcome unknown", exactly like a client losing its connection mid
// COMMIT: the caller must re-read to learn the outcome. Commit detaches
// a background publisher for this case so that if the record does
// harden, the timestamp becomes visible on the primary without waiting
// for a later unrelated commit to publish a higher one.
func (tx *Tx) Commit() error {
	if tx.done {
		return errTxDone
	}
	tx.done = true
	defer tx.releaseLocks()
	if len(tx.writes) == 0 {
		return nil
	}
	e := tx.e
	e.charge(cpuCommit)

	ctx := tx.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	// Spans join a request trace; they never root one here. A commit with
	// no ambient span (raw-engine callers, saturation benchmarks) pays
	// only the histogram below — no allocation, no tracer traffic.
	ctx, span := e.cfg.Obs.Tracer.JoinSpan(ctx, obs.TierCompute, "engine.commit")
	span.SetAttr("txn", strconv.FormatUint(tx.id, 10))
	defer span.End()

	// Pre-read the write set before the latch: whatever it misses is
	// fetched now, side by side, while other commits proceed — not one page
	// after another inside the critical section every commit shares.
	order := sortedWriteIndexes(tx)
	tx.warmWriteSet(order)

	// lock.latch: the single-writer commit latch. Recorded only when the
	// latch is contended — an uncontended TryLock is free and must not
	// inflate the wait count.
	if !e.commitMu.TryLock() {
		region := e.waits.Begin(ctx, obs.WaitLockLatch)
		e.commitMu.Lock()
		region.End()
	}
	if e.failed {
		e.commitMu.Unlock()
		return ErrEngineFailed
	}
	// First-updater-wins validation (Snapshot Isolation): if any row in
	// the write set was committed after this transaction's snapshot, the
	// commit must fail — otherwise it would silently overwrite an update
	// it never saw (lost update). Validation runs before any page is
	// touched, so a conflicting transaction aborts for free.
	for _, i := range order {
		op := tx.writes[i]
		if err := e.validateWriteLocked(tx.snapshot, op); err != nil {
			e.commitMu.Unlock()
			return err
		}
	}
	ts := e.clock.AllocateCommit()
	// The write set's pages are built in the commit's page set — a page is
	// copied on its first change and edited in place after it, and the
	// commit reads the pages it changed from the set, never back from the
	// page file — and published once each, after the last apply.
	var err error
	for _, i := range order {
		if err = e.applyWriteLocked(tx.id, ts, tx.writes[i]); err != nil {
			break
		}
	}
	if err == nil {
		err = e.set.Install()
	}
	if err != nil {
		err = e.failLocked(err)
		e.commitMu.Unlock()
		return err
	}
	commitRec := wal.NewCommit(tx.id, ts)
	if sc := obs.SpanFromContext(ctx); sc.Valid() {
		// Annotate the commit record (in memory only) so the group commit
		// can attribute the landing-zone write back to this commit's trace.
		commitRec.TraceID, commitRec.SpanID = uint64(sc.TraceID), uint64(sc.SpanID)
	}
	commitLSN := e.cfg.Log.Append(commitRec)
	tx.commitLSN = commitLSN
	e.commitMu.Unlock()
	// Publish the commit frontier before waiting on durability: the
	// watermark ladder's top rung is "appended", and the hardened rung
	// below it is what durability adds. Stamping here (not after
	// WaitHarden) makes harden lag legible in time domain.
	e.cfg.Obs.Watermarks.PublishCommit(uint64(commitLSN))

	if err := waitHarden(ctx, e, commitLSN); err != nil {
		span.SetError(err)
		if ctx.Err() != nil {
			// Ambiguous commit (see the method comment): the caller gave
			// up waiting, but the appended record may still harden.
			// Publish the timestamp once it does, off the caller's
			// context, so the committed data does not stay invisible on
			// the primary while secondaries apply it. Publish is
			// max-monotone, so a late publish can never move visibility
			// backwards; the goroutine is bounded by the log writer's
			// lifetime (WaitHarden returns on writer failure or close).
			go func() {
				if e.cfg.Log.WaitHarden(context.Background(), commitLSN) == nil {
					e.clock.Publish(ts)
				}
			}()
			return fmt.Errorf("commit wait interrupted, outcome unknown (txn %d may still be durable): %w", tx.id, err)
		}
		return err
	}
	e.clock.Publish(ts)
	e.cfg.Obs.Metrics.Histogram("compute.commit.latency").Observe(time.Since(start))
	e.cfg.Obs.Metrics.Counter("compute.commit.count").Inc()
	return nil
}

// warmWriteSet walks the B-tree paths of the write set (order: its indexes by
// table and key), one Tree.Warm per table. Purely a cache warmer: it runs
// outside the latch, so a page may be evicted or a node split before the
// commit gets there, and its errors are dropped — validateWriteLocked and
// applyWriteLocked read every page again under the latch and remain the
// authority on what the commit sees. Over a page file without Prefetch,
// Warm does nothing.
func (tx *Tx) warmWriteSet(order []int) {
	var one [1][]byte // a one-row write set warms without allocating
	keys := one[:0]
	for n, i := range order {
		op := tx.writes[i]
		keys = append(keys, op.key)
		if n+1 < len(order) && tx.writes[order[n+1]].table == op.table {
			continue
		}
		if tree, err := tx.e.tableTree(op.table); err == nil {
			_ = tree.Warm(keys)
		}
		keys = keys[:0]
	}
}

// sortedWriteIndexes returns the latest write per key in key order, which
// keeps page access patterns deterministic.
func sortedWriteIndexes(tx *Tx) []int {
	idx := make([]int, 0, len(tx.writeIdx))
	for _, i := range tx.writeIdx {
		idx = append(idx, i)
	}
	sort.Slice(idx, func(a, b int) bool {
		wa, wb := tx.writes[idx[a]], tx.writes[idx[b]]
		if wa.table != wb.table {
			return wa.table < wb.table
		}
		return bytes.Compare(wa.key, wb.key) < 0
	})
	return idx
}

// validateWriteLocked rejects a write whose row changed after the
// transaction's snapshot (first-updater-wins).
func (e *Engine) validateWriteLocked(snapshot uint64, op writeOp) error {
	tree, err := e.writerTree(op.table)
	if err != nil {
		return err
	}
	raw, found, err := tree.Get(op.key)
	if err != nil {
		return err
	}
	if !found {
		return nil
	}
	head, err := versionstore.Decode(raw)
	if err != nil {
		return err
	}
	if head.CommitTS > snapshot {
		return fmt.Errorf("%w: row committed at ts %d after snapshot %d",
			txn.ErrWriteConflict, head.CommitTS, snapshot)
	}
	return nil
}

// applyWriteLocked applies one committed write to the commit's page set: the
// old row head (if any) moves into the version store, and the new head lands
// in the B-tree leaf.
func (e *Engine) applyWriteLocked(txnID, ts uint64, op writeOp) error {
	e.charge(cpuApply)
	tree, err := e.writerTree(op.table)
	if err != nil {
		return err
	}
	raw, found, err := tree.Get(op.key)
	if err != nil {
		return err
	}
	var prev versionstore.Ptr
	if found {
		oldHead, err := versionstore.Decode(raw)
		if err != nil {
			return err
		}
		ptr, err := e.vs.Append(e.set, txnID, &oldHead)
		if err != nil {
			return err
		}
		if ptr.Page != e.vsPage {
			// The append opened a new version page: the catalog names it,
			// so the next incarnation appends where this one left off.
			if err := e.metaPutLocked(metaVSKey, uint64(ptr.Page)); err != nil {
				return err
			}
			e.vsPage = ptr.Page
		}
		prev = ptr
	}
	newHead := &versionstore.Version{
		CommitTS:  ts,
		Prev:      prev,
		Tombstone: op.delete,
		Payload:   op.value,
	}
	return tree.Put(txnID, op.key, newHead.Encode())
}

// Abort discards the transaction. Nothing reached pages or the log except
// possibly lock acquisitions, so abort is O(1) regardless of write count —
// the ADR property.
func (tx *Tx) Abort() {
	if tx.done {
		return
	}
	tx.done = true
	tx.releaseLocks()
}

func (tx *Tx) releaseLocks() {
	if len(tx.lockKeys) > 0 {
		tx.e.locks.ReleaseAll(tx.lockKeys, tx.id)
		tx.lockKeys = nil
	}
}
