package chaos

import (
	"fmt"

	"socrates/internal/obs"
	"socrates/internal/page"
)

// violation is one invariant breach found by the oracle. Any violation is
// a bug: either in the system under test or in the oracle itself — both
// demand investigation, neither is noise.
type violation struct {
	// Step is the schedule index at which the breach was observed.
	Step int `json:"step"`
	// Kind classifies the invariant: "durability", "monotonicity",
	// "ladder", "snapshot", "torn", "phantom", "restore", "replication",
	// "stall".
	Kind string `json:"kind"`
	// Detail is the human-readable evidence.
	Detail string `json:"detail"`
}

func (v violation) String() string {
	return fmt.Sprintf("step %d [%s] %s", v.Step, v.Kind, v.Detail)
}

// entry is one write in a key's history, in commit order (the runner is
// sequential, so history order = commit-timestamp order = LSN order).
type entry struct {
	seq      int      // global write sequence; the value embeds it
	value    string   // the payload written
	lsn      page.LSN // commit-record LSN; 0 = never reached the log
	ts       uint64   // commit timestamp (snapshot visibility); 0 = unknown
	acked    bool     // Commit returned nil: the write is durable, full stop
	appended bool     // the commit record entered the log pipeline; it may
	// have hardened (and so may legitimately surface) even if the ack
	// never reached the client
}

// history is everything the oracle knows about one key.
type history struct {
	entries   []entry
	byValue   map[string]int // value → entry index
	lastAcked int            // index of the newest acked entry, -1 = none
}

// oracle is the harness's judge: it records every write the workload
// makes and every value any tier ever shows back, and checks three
// invariant families — durability (no acked write is ever lost),
// watermark monotonicity and ladder ordering, and snapshot consistency
// on secondaries and restored images.
//
// The oracle is not safe for concurrent use; the runner serializes all
// calls (background tier activity is still concurrent — the oracle only
// observes through reads, which are linearization points it controls).
type oracle struct {
	keys map[string]*history
	// secView tracks, per secondary and key, the newest history index the
	// secondary has shown — secondary visibility must never move backwards.
	secView map[string]map[string]int
	// prevWM remembers each watermark's last observed value for the
	// non-regression check.
	prevWM map[string]uint64

	wms *obs.WatermarkSet
	// lzHardened reads the landing zone's authoritative hardened end —
	// the ceiling no promoted watermark may pierce. Live (not snapshotted)
	// because the published hardened watermark can lag reality across a
	// primary crash, while the LZ itself cannot.
	lzHardened func() page.LSN

	step       int // the schedule index of the evidence coming in
	violations []violation
}

// newOracle builds an oracle over the deployment's watermark set and the
// landing zone's hardened-end reader.
func newOracle(wms *obs.WatermarkSet, lzHardened func() page.LSN) *oracle {
	return &oracle{
		keys:       make(map[string]*history),
		secView:    make(map[string]map[string]int),
		prevWM:     make(map[string]uint64),
		wms:        wms,
		lzHardened: lzHardened,
	}
}

func (o *oracle) flag(kind, format string, args ...any) {
	o.violations = append(o.violations, violation{
		Step: o.step, Kind: kind, Detail: fmt.Sprintf(format, args...),
	})
}

// report files a violation found by the runner itself (catch-up stalls,
// restore infrastructure failures) so it lands in the same evidence
// stream as the oracle's own findings.
func (o *oracle) report(kind, detail string) {
	o.violations = append(o.violations, violation{Step: o.step, Kind: kind, Detail: detail})
}

func (o *oracle) hist(key string) *history {
	h, ok := o.keys[key]
	if !ok {
		h = &history{byValue: make(map[string]int), lastAcked: -1}
		o.keys[key] = h
	}
	return h
}

// recordWrite logs the outcome of one commit attempt for key. ts is the
// commit timestamp (the primary's visible timestamp right after the ack);
// 0 for writes that never committed.
func (o *oracle) recordWrite(key, value string, seq int, lsn page.LSN, ts uint64, acked bool) {
	h := o.hist(key)
	h.entries = append(h.entries, entry{
		seq: seq, value: value, lsn: lsn, ts: ts, acked: acked, appended: lsn != 0,
	})
	h.byValue[value] = len(h.entries) - 1
	if acked {
		h.lastAcked = len(h.entries) - 1
	}
}

// observePrimary judges one read on the primary: the value must be a
// write the workload actually made, at least as new as the newest acked
// write, and must have reached the log (a value that failed before its
// commit record was appended can never legitimately surface).
func (o *oracle) observePrimary(key, value string, found bool) {
	h, ok := o.keys[key]
	if !ok || len(h.entries) == 0 {
		if found {
			o.flag("phantom", "primary: key %q shows %q but was never written", key, value)
		}
		return
	}
	if !found {
		if h.lastAcked >= 0 {
			o.flag("durability", "primary: key %q missing; acked write %q (lsn %d) lost",
				key, h.entries[h.lastAcked].value, h.entries[h.lastAcked].lsn)
		}
		return
	}
	idx, known := h.byValue[value]
	if !known {
		o.flag("phantom", "primary: key %q shows %q, not in its write history", key, value)
		return
	}
	e := h.entries[idx]
	if !e.appended {
		o.flag("durability",
			"primary: key %q shows %q, whose commit never reached the log", key, value)
	}
	if idx < h.lastAcked {
		o.flag("durability",
			"primary: key %q shows %q (seq %d) older than acked %q (seq %d, lsn %d)",
			key, value, e.seq, h.entries[h.lastAcked].value,
			h.entries[h.lastAcked].seq, h.entries[h.lastAcked].lsn)
	}
}

// observeSecondary judges one read on a secondary. visBefore is the
// secondary's published visible commit timestamp sampled before the read;
// appliedAfter is its applied LSN sampled after. The secondary must show
// every committed write whose timestamp is at or below visBefore
// (visibility floor — pure snapshot-isolation arithmetic, no apply-timing
// reasoning), must not show any write above appliedAfter (it cannot see
// log it has not applied), and must never show an older value than it
// previously showed for the key (per-key visibility is monotone on one
// node).
func (o *oracle) observeSecondary(sec, key, value string, found bool, visBefore uint64, appliedAfter page.LSN) {
	h, ok := o.keys[key]
	if !ok || len(h.entries) == 0 {
		if found {
			o.flag("phantom", "%s: key %q shows %q but was never written", sec, key, value)
		}
		return
	}
	// Visibility floor: the newest committed entry whose timestamp the
	// secondary had already published as visible before the read began.
	floor := -1
	for i, e := range h.entries {
		if e.ts != 0 && e.ts <= visBefore {
			floor = i
		}
	}
	if !found {
		if floor >= 0 {
			o.flag("snapshot",
				"%s: key %q missing though %q (ts %d) is within its visible ts %d",
				sec, key, h.entries[floor].value, h.entries[floor].ts, visBefore)
		}
		return
	}
	idx, known := h.byValue[value]
	if !known {
		o.flag("phantom", "%s: key %q shows %q, not in its write history", sec, key, value)
		return
	}
	e := h.entries[idx]
	if !e.appended || e.lsn == 0 {
		o.flag("snapshot",
			"%s: key %q shows %q, whose commit never reached the log", sec, key, value)
		return
	}
	if e.lsn.After(appliedAfter) {
		o.flag("snapshot",
			"%s: key %q shows %q (lsn %d) beyond its applied LSN %d — read from the future",
			sec, key, value, e.lsn, appliedAfter)
	}
	if idx < floor {
		o.flag("snapshot",
			"%s: key %q shows %q (seq %d) though %q (ts %d ≤ visible %d) must be visible",
			sec, key, value, e.seq, h.entries[floor].value, h.entries[floor].ts, visBefore)
	}
	view, ok := o.secView[sec]
	if !ok {
		view = make(map[string]int)
		o.secView[sec] = view
	}
	if prev, ok := view[key]; ok && idx < prev {
		o.flag("snapshot",
			"%s: key %q went backwards: %q (seq %d) after showing seq %d",
			sec, key, value, e.seq, h.entries[prev].seq)
	}
	if prev, ok := view[key]; !ok || idx > prev {
		view[key] = idx
	}
}

// observePair judges one paired read (both halves read in a single
// snapshot transaction): if both halves are present their sequence
// numbers must match — the two are written only together, in one
// transaction, so a mismatch is a torn snapshot.
func (o *oracle) observePair(node string, aSeq, bSeq int, aFound, bFound bool) {
	if aFound != bFound {
		o.flag("torn", "%s: pair half missing (a=%v b=%v) — halves are only ever written together",
			node, aFound, bFound)
		return
	}
	if aFound && aSeq != bSeq {
		o.flag("torn", "%s: pair shows seq %d / %d from different transactions", node, aSeq, bSeq)
	}
}

// observeRestored judges one read on a point-in-time-restored engine.
// target is the restore's exclusive LSN bound (0 = end of log). The
// image must contain, for each key, a value at least as new as the
// newest acked write strictly below target, and nothing at or above
// target.
func (o *oracle) observeRestored(key, value string, found bool, target page.LSN) {
	h, ok := o.keys[key]
	if !ok || len(h.entries) == 0 {
		if found {
			o.flag("phantom", "restore: key %q shows %q but was never written", key, value)
		}
		return
	}
	below := func(l page.LSN) bool {
		return l != 0 && (target == 0 || l.Before(target))
	}
	// Expectation floor: newest acked entry below target.
	floor := -1
	for i, e := range h.entries {
		if e.acked && below(e.lsn) {
			floor = i
		}
	}
	if !found {
		if floor >= 0 {
			o.flag("restore",
				"restore@%d: key %q missing; acked %q (lsn %d) below target lost",
				target, key, h.entries[floor].value, h.entries[floor].lsn)
		}
		return
	}
	idx, known := h.byValue[value]
	if !known {
		o.flag("phantom", "restore@%d: key %q shows %q, not in its write history", target, key, value)
		return
	}
	e := h.entries[idx]
	if !e.appended || !below(e.lsn) {
		o.flag("restore",
			"restore@%d: key %q shows %q (lsn %d) at or beyond the restore target",
			target, key, value, e.lsn)
		return
	}
	if idx < floor {
		o.flag("restore",
			"restore@%d: key %q shows %q (seq %d) older than acked %q (lsn %d) below target",
			target, key, value, e.seq, h.entries[floor].value, h.entries[floor].lsn)
	}
}

// checkLadder audits the watermark ladder: every watermark must be
// monotone over time, and the rungs must stay ordered —
//
//	truncated ≤ destaged ≤ promoted ≤ LZ hardened end
//	archived ≤ promoted
//	applied(page server) ≤ promoted      (can't apply log never served)
//	applied(secondary)   ≤ promoted
//	checkpoint(ps)       ≤ applied(ps)   (can't checkpoint the future)
//
// Cross-rung comparisons double-check by re-reading the upper rung, so a
// torn read of two independently-advancing atomics never reports a false
// violation (all rungs are monotone, so "still violated after re-read"
// is proof).
func (o *oracle) checkLadder() {
	for _, st := range o.wms.Snapshot() {
		k := st.Name
		if st.Replica != "" {
			k += "/" + st.Replica
		}
		if prev, ok := o.prevWM[k]; ok && st.LSN < prev {
			o.flag("monotonicity", "watermark %s regressed %d → %d", k, prev, st.LSN)
		}
		o.prevWM[k] = st.LSN
	}

	wm := func(name, replica string) uint64 {
		return o.wms.Watermark(name, replica).Value()
	}
	// check asserts lower ≤ upper with a re-read of upper on apparent
	// violation (upper may have been sampled before lower advanced past
	// it; both only grow).
	check := func(lname, lrep, uname, urep string) {
		lo := wm(lname, lrep)
		if lo <= wm(uname, urep) {
			return
		}
		if lo <= wm(uname, urep) { // re-read: still violated?
			return
		}
		o.flag("ladder", "%s/%s=%d exceeds %s/%s=%d",
			lname, lrep, lo, uname, urep, wm(uname, urep))
	}

	// promoted ≤ the LZ's authoritative hardened end (the published
	// hardened watermark can lag across a primary crash; the LZ cannot).
	promoted := wm(obs.WMPromoted, "")
	if hard := uint64(o.lzHardened()); promoted > hard {
		if hard2 := uint64(o.lzHardened()); promoted > hard2 {
			o.flag("ladder", "xlog promoted %d beyond LZ hardened end %d", promoted, hard2)
		}
	}
	check(obs.WMDestaged, "", obs.WMPromoted, "")
	check(obs.WMTruncated, "", obs.WMDestaged, "")
	check(obs.WMArchived, "", obs.WMPromoted, "")
	for _, rep := range o.wms.Replicas(obs.WMApplied) {
		check(obs.WMApplied, rep, obs.WMPromoted, "")
		check(obs.WMCheckpoint, rep, obs.WMApplied, rep)
	}
	for _, rep := range o.wms.Replicas(obs.WMSecondary) {
		check(obs.WMSecondary, rep, obs.WMPromoted, "")
	}
}
