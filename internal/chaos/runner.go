package chaos

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"socrates/internal/cluster"
	"socrates/internal/engine"
	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/pageserver"
	"socrates/internal/rbio"
	"socrates/internal/simdisk"
	"socrates/internal/xstore"
)

// Config parameterizes one torture run.
type Config struct {
	// Seed drives every random choice of the run: the fault schedule, the
	// workload interleaving, and (threaded through cluster.Config.Seed)
	// every simulated device's jitter stream. Two runs with the same seed,
	// scenario, and step budget make the same moves.
	Seed int64
	// Scenario selects the step-weight profile ("" = "mixed").
	Scenario string
	// Steps bounds the schedule length (0 = 400).
	Steps int
	// Duration, if nonzero, additionally bounds the run by wall clock;
	// the run stops at whichever limit hits first. A duration-truncated
	// run executes a prefix of the seed's schedule.
	Duration time.Duration
	// Logf, if set, receives per-step progress (the CLI's -v).
	Logf func(format string, args ...any)
}

// result is the outcome of one run.
type result struct {
	Seed         int64       `json:"seed"`
	Scenario     string      `json:"scenario"`
	ScheduleHash string      `json:"schedule_hash"`
	Steps        int         `json:"steps_executed"`
	Writes       int         `json:"writes"`
	Reads        int         `json:"reads"`
	Faults       int         `json:"faults"`
	Probes       int         `json:"probes"`
	Acked        int         `json:"commits_acked"`
	Failed       int         `json:"commits_failed"`
	ReadErrors   int         `json:"read_errors"`
	Failovers    int         `json:"failovers"`
	Torn         int         `json:"calls_torn"` // in-flight RPCs torn by stepMuxDisturb
	Violations   []violation `json:"violations"`
	ElapsedMS    int64       `json:"elapsed_ms"`
	// Flight is the tail of the cluster's flight-recorder ring, attached
	// only when the run found violations — the incident context that
	// rides along with a failing seed's JSON report.
	Flight []obs.FlightEvent `json:"flight,omitempty"`
}

// Ok reports whether the run finished with zero violations.
func (r *result) Ok() bool { return len(r.Violations) == 0 }

const (
	workTable    = "chaos"
	defaultSteps = 400
)

func keyName(i int) string   { return fmt.Sprintf("c%03d", i) }
func pairAName(i int) string { return fmt.Sprintf("pa%02d", i) }
func pairBName(i int) string { return fmt.Sprintf("pb%02d", i) }

// runner executes one schedule against one live cluster.
type runner struct {
	cfg    Config
	c      *cluster.Cluster
	oracle *oracle
	gen    *generator
	hash   *scheduleHasher
	res    *result

	seq       int      // global write sequence (value payloads embed it)
	lastAcked page.LSN // highest acked commit LSN
}

// Run executes one chaos run and reports what the oracle saw. The error
// return is for harness-infrastructure failures (cluster would not boot,
// topology drifted from the shadow model); invariant breaches are NOT
// errors — they land in result.Violations.
func Run(cfg Config) (*result, error) {
	r, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	defer r.c.Close()
	return r.run()
}

// newRunner boots a fresh cluster and the judging machinery around it.
// Split out of Run so the chaosfault self-test can drive individual
// schedule steps surgically against the same harness.
func newRunner(cfg Config) (*runner, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Steps <= 0 {
		cfg.Steps = defaultSteps
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	spec, err := Scenario(cfg.Scenario)
	if err != nil {
		return nil, err
	}

	c, err := cluster.New(cluster.Config{
		Name:              fmt.Sprintf("chaos-%d", cfg.Seed),
		Net:               rbio.NewInstantNetwork(),
		LZProfile:         simdisk.Instant,
		LocalSSD:          simdisk.Instant,
		XStore:            xstore.Config{Profile: simdisk.Instant},
		LZCapacity:        32 << 20,
		CheckpointEvery:   5 * time.Millisecond,
		Secondaries:       1,
		PageServers:       1,
		PagesPerPartition: 1 << 20,
		Seed:              cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: cluster boot: %w", err)
	}

	r := &runner{
		cfg:    cfg,
		c:      c,
		oracle: newOracle(c.Watermarks, c.LZ.HardenedEnd),
		gen:    newGenerator(cfg.Seed, spec),
		hash:   newScheduleHasher(),
		res:    &result{Seed: cfg.Seed, Scenario: spec.name},
	}
	if err := c.Primary().Engine.CreateTable(workTable); err != nil {
		c.Close()
		return nil, fmt.Errorf("chaos: create table: %w", err)
	}
	return r, nil
}

// run executes the schedule and the final audit.
func (r *runner) run() (*result, error) {
	cfg := r.cfg
	start := time.Now()
	deadline := time.Time{}
	if cfg.Duration > 0 {
		deadline = start.Add(cfg.Duration)
	}
	for i := 0; i < cfg.Steps; i++ {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
		st := r.gen.next()
		r.hash.fold(st)
		r.oracle.step = i
		cfg.Logf("step %4d %-16s key=%d aux=%d name=%s", i, st.kind, st.key, st.aux, st.name)
		if err := r.execute(st); err != nil {
			return nil, fmt.Errorf("chaos: step %d (%s): %w", i, st.kind, err)
		}
		r.oracle.checkLadder()
		r.res.Steps++
	}

	// Final audit: heal every fault, let the whole deployment catch up,
	// verify every key on every tier, then restore to end-of-log and
	// verify the restored image too.
	r.oracle.step = r.res.Steps
	if err := r.catchUpProbe(); err != nil {
		return nil, err
	}
	if err := r.backupAndVerify("final"); err != nil {
		return nil, err
	}
	r.oracle.checkLadder()

	r.res.ScheduleHash = fmt.Sprintf("%016x", r.hash.h)
	r.res.Violations = r.oracle.violations
	r.res.ElapsedMS = time.Since(start).Milliseconds()
	if len(r.res.Violations) > 0 {
		// Attach the flight-recorder tail: the last thing every tier did
		// before the invariant broke, in one time-ordered stream.
		events := r.c.Flight.Events()
		const tail = 256
		if len(events) > tail {
			events = events[len(events)-tail:]
		}
		r.res.Flight = events
	}
	return r.res, nil
}

func (r *runner) execute(st step) error {
	switch st.kind {
	case stepPut:
		r.put(keyName(st.key))
		return nil
	case stepPair:
		r.putPair(st.aux)
		return nil
	case stepReadPrimary:
		r.readPrimary(keyName(st.key))
		return nil
	case stepReadSecondary:
		return r.readSecondary(st.name, st.key, st.aux)
	case stepLZOutage:
		reps := r.c.LZReplicas()
		if st.key >= len(reps) {
			return fmt.Errorf("LZ replica %d out of range", st.key)
		}
		reps[st.key].SetOutage(st.aux == 1)
		r.res.Faults++
		return nil
	case stepQuorumLoss:
		return r.quorumLoss(st.key)
	case stepFeedLoss:
		if st.aux == 1 {
			r.c.Net.SetLoss(0.35)
		} else {
			r.c.Net.SetLoss(0)
		}
		r.res.Faults++
		return nil
	case stepFailover:
		r.res.Faults++
		return r.failover()
	case stepAddSecondary:
		_, err := r.c.AddSecondary(st.name)
		r.res.Faults++
		return err
	case stepRemoveSecondary:
		// The name may come back as a new secondary, which starts fresh.
		delete(r.oracle.secView, st.name)
		r.res.Faults++
		return r.c.RemoveSecondary(st.name)
	case stepPSChurn:
		r.res.Faults++
		return r.psChurn()
	case stepSplit:
		r.res.Faults++
		return r.c.SplitPageServer(0)
	case stepXStoreOutage:
		r.c.Store.SetOutage(st.aux == 1)
		r.res.Faults++
		return nil
	case stepBackup:
		r.res.Probes++
		if err := r.c.Backup(st.name); err != nil {
			r.oracle.report("restore", fmt.Sprintf("backup %q failed: %v", st.name, err))
		}
		return nil
	case stepRestoreProbe:
		r.res.Probes++
		r.restoreProbe(st.name, st.aux)
		return nil
	case stepCatchUpProbe:
		r.res.Probes++
		return r.catchUpProbe()
	case stepMuxDisturb:
		// Tear every RPC in flight on the fabric; torn calls retry at
		// the client layer, and no acked write may be lost.
		r.res.Torn += r.c.SeverMuxConns()
		r.res.Faults++
		return nil
	case stepLZDark:
		r.res.Faults++
		return r.lzDark(st.key)
	}
	return fmt.Errorf("unknown step kind %v", st.kind)
}

// put commits one write to key and records the outcome. Failed commits
// trigger a recovery failover when the engine or its log writer is
// poisoned, so the workload survives its own faults the way clients
// survive a real outage: reconnect and retry.
func (r *runner) put(key string) {
	r.seq++
	val := fmt.Sprintf("v%d", r.seq)
	r.res.Writes++
	e := r.c.Primary().Engine
	tx := e.Begin()
	if err := tx.Put(workTable, []byte(key), []byte(val)); err != nil {
		tx.Abort()
		r.recordFailed(key, val)
		r.recoverIfPoisoned(err)
		return
	}
	err := tx.Commit()
	if err == nil {
		r.recordAcked(tx, key, val)
		return
	}
	r.recordFailed(key, val)
	r.recoverIfPoisoned(err)
}

// putPair writes both halves of pair i in one transaction.
func (r *runner) putPair(i int) {
	r.seq++
	val := fmt.Sprintf("p%d", r.seq)
	r.res.Writes++
	e := r.c.Primary().Engine
	tx := e.Begin()
	if err := tx.Put(workTable, []byte(pairAName(i)), []byte(val)); err == nil {
		if err := tx.Put(workTable, []byte(pairBName(i)), []byte(val)); err == nil {
			if err := tx.Commit(); err == nil {
				r.recordAcked(tx, pairAName(i), val)
				r.recordAcked(tx, pairBName(i), val)
				return
			}
			r.recordFailed(pairAName(i), val)
			r.recordFailed(pairBName(i), val)
			r.recoverIfPoisoned(errors.New("pair commit failed"))
			return
		}
	}
	tx.Abort()
	r.recordFailed(pairAName(i), val)
	r.recordFailed(pairBName(i), val)
}

// recordAcked logs a successful commit: its LSN comes from the commit
// record, its timestamp from the clock the commit just published (the
// runner is sequential, so the clock still points at this commit).
func (r *runner) recordAcked(tx *engine.Tx, key, val string) {
	lsn := tx.CommitLSN()
	ts := r.c.Primary().Engine.Clock().Visible()
	r.oracle.recordWrite(key, val, r.seq, lsn, ts, true)
	r.res.Acked++
	if lsn.After(r.lastAcked) {
		r.lastAcked = lsn
	}
}

// recordFailed logs a commit that was not acknowledged. The value is
// recorded with LSN 0 — "must never surface". (A failed quorum write
// leaves zero replicas holding the block, and a poisoned writer never
// retries, so an unacked write in this harness is genuinely unreachable;
// the oracle flags it if it ever appears anywhere.)
func (r *runner) recordFailed(key, val string) {
	r.oracle.recordWrite(key, val, r.seq, 0, 0, false)
	r.res.Failed++
}

// recoverIfPoisoned performs a failover when a commit failure poisoned
// the engine or its log writer (quorum loss does both by design).
func (r *runner) recoverIfPoisoned(err error) {
	if err == nil {
		return
	}
	//socrates:ignore-err the second result is the poisoning cause, which the failed commit already returned; only the flag decides recovery
	if failed, _ := r.c.Primary().Engine.Failed(); failed {
		// Best-effort recovery: the next step's commit surfaces persistent failure.
		_ = r.failover()
		return
	}
	// A failed harden wait poisons the log writer permanently; probe it
	// with a no-op wait and fail over if it is dead.
	probe, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if werr := r.c.Primary().Writer().WaitHarden(probe, 0); werr != nil && probe.Err() == nil {
		_ = r.failover() // best effort, as above
	}
}

func (r *runner) failover() error {
	_, _, err := r.c.Failover()
	if err != nil {
		return fmt.Errorf("failover: %w", err)
	}
	r.res.Failovers++
	return nil
}

func (r *runner) readPrimary(key string) {
	r.res.Reads++
	v, found, err := r.c.Primary().Engine.BeginRO().Get(workTable, []byte(key))
	if err != nil {
		r.res.ReadErrors++
		return
	}
	r.oracle.observePrimary(key, string(v), found)
}

// readSecondary reads one workload key and one pair on the named
// secondary, bracketing the reads with its visibility clock and applied
// watermark for the snapshot-consistency checks.
func (r *runner) readSecondary(name string, key, pair int) error {
	sec, ok := r.c.Secondary(name)
	if !ok {
		return fmt.Errorf("secondary %q not in cluster (shadow model drift)", name)
	}
	r.res.Reads++
	visBefore := sec.Engine.Clock().Visible()
	tx := sec.Engine.BeginRO()
	v, found, err := tx.Get(workTable, []byte(keyName(key)))
	va, fa, errA := tx.Get(workTable, []byte(pairAName(pair)))
	vb, fb, errB := tx.Get(workTable, []byte(pairBName(pair)))
	appliedAfter := sec.AppliedLSN()
	if err != nil || errA != nil || errB != nil {
		r.res.ReadErrors++
		return nil
	}
	r.oracle.observeSecondary(name, keyName(key), string(v), found, visBefore, appliedAfter)
	r.oracle.observeSecondary(name, pairAName(pair), string(va), fa, visBefore, appliedAfter)
	r.oracle.observeSecondary(name, pairBName(pair), string(vb), fb, visBefore, appliedAfter)
	r.oracle.observePair(name, pairSeq(va), pairSeq(vb), fa, fb)
	return nil
}

// pairSeq extracts the sequence number from a pair payload ("p<seq>").
func pairSeq(v []byte) int {
	if len(v) < 2 || v[0] != 'p' {
		return -1
	}
	n, err := strconv.Atoi(string(v[1:]))
	if err != nil {
		return -1
	}
	return n
}

// quorumLoss darkens every LZ replica, attempts commits that must NOT be
// acknowledged (there is no quorum to harden them), heals the replicas,
// and fails over — the recovery a real deployment would perform after
// losing its landing zone. Any ack during the window is recorded as a
// durable promise; if the write then vanishes, the oracle reports the
// durability violation. (The chaosfault build plants exactly that bug.)
func (r *runner) quorumLoss(key int) error {
	reps := r.c.LZReplicas()
	for _, d := range reps {
		d.SetOutage(true)
	}
	r.res.Faults++
	var acked page.LSN // highest commit LSN acked inside the window
	for i := 0; i < 2; i++ {
		r.seq++
		k := keyName((key + i) % numKeys)
		val := fmt.Sprintf("v%d", r.seq)
		r.res.Writes++
		e := r.c.Primary().Engine
		tx := e.Begin()
		if err := tx.Put(workTable, []byte(k), []byte(val)); err != nil {
			tx.Abort()
			r.recordFailed(k, val)
			continue
		}
		if err := tx.Commit(); err == nil {
			// The system acked a commit no LZ replica could harden. The
			// ack is a durability promise either way: record it and let
			// the durability audit decide whether it was kept.
			r.recordAcked(tx, k, val)
			if tx.CommitLSN().After(acked) {
				acked = tx.CommitLSN()
			}
		} else {
			r.recordFailed(k, val)
		}
	}
	if acked != 0 {
		// An ack arrived while every replica was dark — the engine did
		// not gate it on hardening. Sequence the flush attempt inside the
		// outage window before healing, so the promise-vs-durability race
		// is decided here, deterministically, not by whether the heal
		// beats the flush timer. (A correct engine never reaches this
		// branch: its commits fail under quorum loss.)
		wctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		//socrates:ignore-err the wait exists only to order the flush attempt inside the window; its error (quorum loss) is the very outcome under test
		_ = r.c.Primary().Writer().WaitHarden(wctx, acked)
		cancel()
	}
	for _, d := range reps {
		d.SetOutage(false)
	}
	return r.failover()
}

// lzDark darkens one LZ replica mid commit-burst — the flexible-quorum
// probe for adaptive group commit. Commits must keep acking on the
// remaining 2-of-3 quorum, and two invariants are judged within the step:
// every byte hardened while the replica was dark must sit on at least
// two replicas at harden time (an ack backed by fewer copies is the
// exact bug the chaosfault build plants), and the straggler must be fully
// reconciled — zero missed bytes — before it serves reads again.
func (r *runner) lzDark(key int) error {
	vol := r.c.LZVolume()
	if vol == nil {
		return errors.New("lz-dark: landing zone is not replicated")
	}
	reps := vol.Replicas()
	idx := key % len(reps)
	startOff := vol.Size()
	ackedBefore := r.res.Acked
	reps[idx].SetOutage(true)
	for i := 0; i < 6; i++ {
		r.put(keyName((key*7 + i) % numKeys))
	}
	// Judge before healing: the replication invariant is about copy count
	// at harden time, not after repair. Sequence the log flush inside the
	// window first — an engine that acks before hardening (the chaosfault
	// plant) would otherwise race its own flush past the judgement.
	ackedDuring := r.res.Acked - ackedBefore
	if ackedDuring > 0 && r.lastAcked != 0 {
		wctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		//socrates:ignore-err the wait only orders the flush before the copy-count audit; a harden failure surfaces as a failed commit on the next step
		_ = r.c.Primary().Writer().WaitHarden(wctx, r.lastAcked)
		cancel()
	}
	endOff := vol.Size()
	if ackedDuring > 0 && endOff > startOff {
		if got := vol.AckedCopies(startOff, endOff-startOff); got < vol.Quorum() {
			r.oracle.report("replication", fmt.Sprintf(
				"lz-dark window [%d,%d): %d commits acked with %d replica copies, quorum is %d",
				startOff, endOff, ackedDuring, got, vol.Quorum()))
		}
	}
	reps[idx].SetOutage(false)
	if _, err := vol.Reconcile(); err != nil {
		r.oracle.report("replication", fmt.Sprintf("lz-dark reconcile: %v", err))
		return nil
	}
	if miss := vol.MissedBytes(idx); miss != 0 {
		r.oracle.report("replication", fmt.Sprintf(
			"lz-dark: replica %d still missing %d bytes after reconcile", idx, miss))
	}
	return nil
}

// psChurn adds a page-server replica to partition 0, then kills the
// oldest server covering the same range — a crash with a warm standby
// already serving.
func (r *runner) psChurn() error {
	before := r.c.PageServers()
	if err := r.c.AddPageServerReplica(0); err != nil {
		return fmt.Errorf("add ps replica: %w", err)
	}
	var fresh *pageserver.Server
	for _, srv := range r.c.PageServers() {
		seen := false
		for _, old := range before {
			if srv == old {
				seen = true
				break
			}
		}
		if !seen {
			fresh = srv
			break
		}
	}
	if fresh == nil {
		return errors.New("ps churn: replica did not appear")
	}
	flo, fhi := fresh.Range()
	for _, old := range before {
		lo, hi := old.Range()
		if lo == flo && hi == fhi {
			return r.c.KillPageServer(old)
		}
	}
	return nil // no same-range elder (post-split stray); pure add
}

// restoreProbe restores the named backup — to just past the last acked
// commit (aux=1) or to end of log (aux=0) — and audits the image.
func (r *runner) restoreProbe(backup string, aux int) {
	target := page.LSN(0)
	if aux == 1 && r.lastAcked != 0 {
		target = r.lastAcked.Next()
	}
	eng, _, err := r.c.PointInTimeRestore(context.Background(), backup, target)
	if errors.Is(err, cluster.ErrRestoreBeforeBackup) {
		// The last acked commit predates the backup snapshot: the typed
		// refusal is the correct outcome (restoring "before the backup"
		// silently would hand back a too-new image).
		return
	}
	if err != nil {
		r.oracle.report("restore", fmt.Sprintf("restore %q@%d failed: %v", backup, target, err))
		return
	}
	r.auditRestored(eng, target)
}

func (r *runner) auditRestored(eng *engine.Engine, target page.LSN) {
	for i := 0; i < numKeys; i++ {
		v, found, err := eng.BeginRO().Get(workTable, []byte(keyName(i)))
		if err != nil {
			r.oracle.report("restore", fmt.Sprintf("restored read %s: %v", keyName(i), err))
			continue
		}
		r.oracle.observeRestored(keyName(i), string(v), found, target)
	}
	for i := 0; i < numPairs; i++ {
		tx := eng.BeginRO()
		va, fa, errA := tx.Get(workTable, []byte(pairAName(i)))
		vb, fb, errB := tx.Get(workTable, []byte(pairBName(i)))
		if errA != nil || errB != nil {
			r.oracle.report("restore", fmt.Sprintf("restored pair read %d: %v/%v", i, errA, errB))
			continue
		}
		r.oracle.observeRestored(pairAName(i), string(va), fa, target)
		r.oracle.observeRestored(pairBName(i), string(vb), fb, target)
		r.oracle.observePair("restore", pairSeq(va), pairSeq(vb), fa, fb)
	}
}

// catchUpProbe heals every injected fault, waits for the whole
// deployment to catch up to the hardened end, and audits every key on
// the primary and on every secondary — the full durability sweep.
func (r *runner) catchUpProbe() error {
	for _, d := range r.c.LZReplicas() {
		d.SetOutage(false)
	}
	r.c.Store.SetOutage(false)
	r.c.Net.SetLoss(0)
	// Synchronous gap fill: harden reports are asynchronous (and were
	// possibly rained on by feed loss); promotion must reach the durable
	// end before consumers can.
	r.c.XLOG.ReportHardened(context.Background(), r.c.LZ.HardenedEnd())
	if err := r.c.WaitForCatchUp(20 * time.Second); err != nil {
		r.oracle.report("stall", fmt.Sprintf("catch-up after healing all faults: %v", err))
		return nil
	}
	for i := 0; i < numKeys; i++ {
		r.readPrimary(keyName(i))
	}
	for i := 0; i < numPairs; i++ {
		e := r.c.Primary().Engine
		tx := e.BeginRO()
		va, fa, errA := tx.Get(workTable, []byte(pairAName(i)))
		vb, fb, errB := tx.Get(workTable, []byte(pairBName(i)))
		if errA != nil || errB != nil {
			r.res.ReadErrors++
			continue
		}
		r.oracle.observePrimary(pairAName(i), string(va), fa)
		r.oracle.observePrimary(pairBName(i), string(vb), fb)
		r.oracle.observePair("primary", pairSeq(va), pairSeq(vb), fa, fb)
	}
	for _, name := range r.c.Secondaries() {
		for i := 0; i < numKeys; i++ {
			if err := r.readSecondary(name, i, i%numPairs); err != nil {
				return err
			}
		}
	}
	return nil
}

// backupAndVerify takes a fresh backup and audits an end-of-log restore
// from it — the final "is the whole log really replayable" probe.
func (r *runner) backupAndVerify(name string) error {
	if err := r.c.Backup(name); err != nil {
		r.oracle.report("restore", fmt.Sprintf("final backup: %v", err))
		return nil
	}
	r.restoreProbe(name, 0)
	return nil
}
