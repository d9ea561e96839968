//go:build chaosfault

package chaos

import (
	"context"
	"strings"
	"testing"
	"time"

	"socrates/internal/obs"
)

// This file validates the oracle itself. The chaosfault build tag plants
// two known bugs: it swaps the engine's commit-harden wait for one that
// returns before the write hardens (the classic "ack before harden"
// durability bug), and it drops simdisk.Replicated's effective write quorum to 1
// (acks backed by a single copy — the flexible-quorum bug). A harness
// whose oracle stays silent against a known-planted bug tests nothing.
//
// Run with: go test -tags chaosfault ./internal/chaos/
// (The regular chaos tests are excluded under this tag; they would —
// correctly — fail.)

// TestOracleCatchesPlantedBug drives the surgical sequence that makes the
// planted bug deterministic: a quorum-loss window (every LZ replica dark)
// during which the buggy engine still acknowledges commits, followed by
// the full heal-and-audit probe. No replica ever held those blocks and
// the failover discards them, so the acked writes are gone — the oracle
// MUST report a durability violation.
func TestOracleCatchesPlantedBug(t *testing.T) {
	r, err := newRunner(Config{Seed: 99})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	defer r.c.Close()

	r.oracle.SetStep(0)
	// The plant acks before the write, not instead of it: a planted commit's
	// block still reaches the landing zone — XLOG destages it — with only
	// the plant's own wait on the writer.
	r.put(keyName(0))
	destaged := r.c.Watermarks.Watermark(obs.WMDestaged, "")
	deadline := time.Now().Add(5 * time.Second)
	if err := r.c.Waits.Tier(obs.TierXLOG).AwaitLSN(context.Background(), obs.WaitXLOGFeed, destaged, r.lastAcked.Next().Uint64(), deadline); err != nil {
		t.Fatalf("planted commit's block never reached the landing zone: %v", err)
	}
	ackedBefore := r.res.Acked
	if err := r.quorumLoss(0); err != nil {
		t.Fatalf("quorum-loss step: %v", err)
	}
	if r.res.Acked == ackedBefore {
		t.Fatalf("planted bug did not bite: no commit was acked during the quorum-loss window")
	}
	r.oracle.SetStep(1)
	if err := r.catchUpProbe(); err != nil {
		t.Fatalf("catch-up probe: %v", err)
	}

	durability := 0
	for _, v := range r.oracle.Violations() {
		t.Logf("oracle: %s", v)
		if v.Kind == "durability" {
			durability++
		}
	}
	if durability == 0 {
		t.Fatalf("oracle missed the planted ack-before-harden bug: %d acked writes lost, 0 durability violations",
			r.res.Acked)
	}
}

// TestOracleCatchesQuorumPlant validates the lz-dark replication check
// against the planted effectiveQuorum=1 bug. With only one replica dark
// the plant is invisible — writes still physically land on the two
// healthy replicas; the plant only lowers the ack threshold — so the
// test composes two darknesses: one replica darkened directly, then
// lzDark darkens a second. A correct volume would fail every write
// (1 healthy copy < quorum 2) and ack nothing; the planted volume acks
// commits backed by a single copy, and the oracle MUST flag each one as
// a replication violation.
func TestOracleCatchesQuorumPlant(t *testing.T) {
	r, err := newRunner(Config{Seed: 101})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	defer r.c.Close()

	reps := r.c.LZVolume().Replicas()
	reps[1].SetOutage(true)
	r.oracle.SetStep(0)
	if err := r.lzDark(0); err != nil {
		t.Fatalf("lz-dark step: %v", err)
	}
	reps[1].SetOutage(false)
	if r.res.Acked == 0 {
		t.Fatalf("planted bug did not bite: no commit was acked with two replicas dark")
	}

	caught := false
	for _, v := range r.oracle.Violations() {
		t.Logf("oracle: %s", v)
		if v.Kind == "replication" && strings.Contains(v.Detail, "acked with") {
			caught = true
		}
	}
	if !caught {
		t.Fatalf("oracle missed the planted single-copy-ack bug: %d commits acked, no replication violation",
			r.res.Acked)
	}
}

// TestFullRunSurfacesPlantedBug runs the end-to-end harness under the
// planted bug across a few seeds: at least one full run must surface a
// violation (full runs can mask individual lost writes when later
// overwrites supersede them — that is why the surgical test above exists
// — but a clean sweep across seeds would mean the harness as a whole is
// blind).
func TestFullRunSurfacesPlantedBug(t *testing.T) {
	total := 0
	for seed := int64(1); seed <= 3; seed++ {
		res, err := Run(Config{Seed: seed, Scenario: "faults", Steps: 120})
		if err != nil {
			t.Fatalf("seed %d: chaos run: %v", seed, err)
		}
		for _, v := range res.Violations {
			t.Logf("seed %d: %s", seed, v)
		}
		total += len(res.Violations)
	}
	if total == 0 {
		t.Fatalf("no full run surfaced the planted ack-before-harden bug")
	}
}
