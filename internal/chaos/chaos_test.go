//go:build !chaosfault

package chaos

import (
	"fmt"
	"testing"
)

// requireClean fails the test on any infrastructure error or oracle
// violation, printing every violation so a failing seed is actionable.
func requireClean(t *testing.T, res *result, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if t.Failed() {
		t.Logf("replay with: go run ./cmd/socrates-chaos -seed %d -scenario %s -steps %d",
			res.Seed, res.Scenario, res.Steps)
	}
}

// TestChaosQuick is the tier-1 smoke run: one seed, the mixed scenario,
// short enough for every `go test ./...` sweep.
func TestChaosQuick(t *testing.T) {
	steps := 160
	if testing.Short() {
		steps = 60
	}
	res, err := Run(Config{Seed: 1, Steps: steps})
	requireClean(t, res, err)
	if res.Acked == 0 {
		t.Fatalf("no commits acked in %d steps — the workload never ran", res.Steps)
	}
}

// TestChaosScheduleDeterministic pins the replayability contract: the
// same (seed, scenario, steps) triple always produces the same schedule,
// an executed run's fingerprint matches the precomputed one, and a
// different seed diverges.
func TestChaosScheduleDeterministic(t *testing.T) {
	h1, err := scheduleHash(42, "mixed", 300)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := scheduleHash(42, "mixed", 300)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("same seed hashed differently: %016x vs %016x", h1, h2)
	}
	if h3, _ := scheduleHash(43, "mixed", 300); h3 == h1 {
		t.Fatalf("seeds 42 and 43 produced the same schedule hash %016x", h1)
	}
	if h4, _ := scheduleHash(42, "faults", 300); h4 == h1 {
		t.Fatalf("scenarios mixed and faults produced the same schedule hash %016x", h1)
	}

	const steps = 40
	res, err := Run(Config{Seed: 42, Steps: steps})
	requireClean(t, res, err)
	want, err := scheduleHash(42, "mixed", steps)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%016x", want); res.ScheduleHash != got {
		t.Fatalf("executed schedule hash %s != precomputed %s — the run and the generator disagree",
			res.ScheduleHash, got)
	}
}

// TestChaosScheduleGolden pins every scenario's schedule fingerprint for
// seeds 1-3 over 300 steps. A change to the generator, the weights or the
// step enum that moves any of these re-points every recorded replay ("seed
// 2, step 137"), so it must not land silently.
func TestChaosScheduleGolden(t *testing.T) {
	golden := []struct {
		scenario string
		seed     int64
		hash     uint64
	}{
		{"commit", 1, 0x119ecd71b98cb0c9},
		{"commit", 2, 0x83b4b49a77870381},
		{"commit", 3, 0x090952d7510b4659},
		{"faults", 1, 0xe8b2287d5dbbf4b9},
		{"faults", 2, 0x3d5ae2b96f1d8023},
		{"faults", 3, 0xfb4d75f3ece97517},
		{"mixed", 1, 0x0368d562232b95de},
		{"mixed", 2, 0x98c24bd8e97f20b4},
		{"mixed", 3, 0x69cbfe9f95acaacd},
		{"mux", 1, 0x5ae85292833a0329},
		{"mux", 2, 0xb213f699ce9f459d},
		{"mux", 3, 0x9616f319debb9065},
		{"pitr", 1, 0x3808c5296333797a},
		{"pitr", 2, 0x28b17f7b79a691df},
		{"pitr", 3, 0x1835d1054e085af3},
		{"workload", 1, 0x687f8e789dfe2dd8},
		{"workload", 2, 0x706aa4f8837d0539},
		{"workload", 3, 0x7f08a3fe252ba339},
	}
	if got, want := len(Scenarios()), len(golden)/3; got != want {
		t.Errorf("%d scenarios registered, %d pinned: pin the new one here", got, want)
	}
	for _, g := range golden {
		h, err := scheduleHash(g.seed, g.scenario, 300)
		if err != nil {
			t.Fatal(err)
		}
		if h != g.hash {
			t.Errorf("%s seed %d: schedule hash %016x, pinned %016x", g.scenario, g.seed, h, g.hash)
		}
	}
}

// TestChaosMuxDisturb is the tier-1 smoke for the RPC fabric: the "mux"
// scenario (the only one weighting stepMuxDisturb) severs the calls in
// flight over and over; the client layer must retry them, and the oracle
// must stay clean.
func TestChaosMuxDisturb(t *testing.T) {
	steps := 120
	if testing.Short() {
		steps = 50
	}
	res, err := Run(Config{Seed: 3, Scenario: "mux", Steps: steps})
	requireClean(t, res, err)
	if res.Acked == 0 {
		t.Fatalf("no commits acked in %d steps — the workload never ran", res.Steps)
	}
	if res.Faults == 0 {
		t.Fatal("mux scenario injected no faults — StepMuxDisturb never fired")
	}
	if res.Torn == 0 {
		t.Fatalf("StepMuxDisturb fired but tore no call in %d steps", res.Steps)
	}
}

// TestChaosCommitQuorum is the tier-1 smoke for adaptive group commit
// under flexible quorums: the "commit" scenario (the only one weighting
// stepLZDark) darkens single LZ replicas mid commit-burst over and over.
// Commits must keep acking on the surviving 2-of-3 quorum, every acked
// byte must sit on at least quorum replicas at harden time, and each
// straggler must reconcile to zero missed bytes — all judged by the
// oracle's "replication" checks inside the step.
func TestChaosCommitQuorum(t *testing.T) {
	steps := 120
	if testing.Short() {
		steps = 50
	}
	res, err := Run(Config{Seed: 5, Scenario: "commit", Steps: steps})
	requireClean(t, res, err)
	if res.Acked == 0 {
		t.Fatalf("no commits acked in %d steps — the workload never ran", res.Steps)
	}
	if res.Faults == 0 {
		t.Fatal("commit scenario injected no faults — StepLZDark never fired")
	}
}

// TestChaosScenarios runs every registered scenario once.
func TestChaosScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario sweep is a long test")
	}
	for _, sc := range Scenarios() {
		sc := sc
		t.Run(sc, func(t *testing.T) {
			t.Parallel()
			res, err := Run(Config{Seed: 7, Scenario: sc, Steps: 100})
			requireClean(t, res, err)
		})
	}
}

// TestChaosSeedMatrix is the long-haul sweep: several seeds, full mixed
// schedules, each in its own cluster.
func TestChaosSeedMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("seed matrix is a long test")
	}
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			res, err := Run(Config{Seed: seed, Steps: 200})
			requireClean(t, res, err)
		})
	}
}
