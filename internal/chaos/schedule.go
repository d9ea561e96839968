package chaos

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
)

// stepKind enumerates the moves the torture harness can make. The numeric
// values feed the schedule hash, so they are append-only: never renumber.
type stepKind uint8

const (
	// stepPut writes one workload key in its own transaction.
	stepPut stepKind = iota
	// stepPair writes both halves of a key pair in one transaction —
	// the probe for torn snapshot reads.
	stepPair
	// stepReadPrimary reads one workload key on the primary.
	stepReadPrimary
	// stepReadSecondary reads one workload key and one key pair on a
	// secondary, checking snapshot consistency against its applied LSN.
	stepReadSecondary
	// stepLZOutage toggles a single landing-zone replica (Key = replica
	// index, Aux = 1 on / 0 off). Single-replica outages stay within the
	// write quorum, so commits must keep flowing.
	stepLZOutage
	// stepQuorumLoss is a composite: all LZ replicas go dark, commits are
	// attempted (and must fail without acking), the replicas recover, and
	// a failover installs a fresh primary over the durable prefix.
	stepQuorumLoss
	// stepFeedLoss toggles drop probability on the lossy primary→XLOG
	// feed (Aux = 1 on / 0 off). Consumers must recover via gap fills.
	stepFeedLoss
	// stepFailover crashes the primary and attaches a replacement.
	stepFailover
	// stepAddSecondary attaches a new read-scale secondary (Name).
	stepAddSecondary
	// stepRemoveSecondary retires the named secondary.
	stepRemoveSecondary
	// stepPSChurn adds a page-server replica to partition 0, then kills
	// the oldest server of the partition — a crash with a warm standby.
	stepPSChurn
	// stepSplit splits partition 0's page server into two half-range
	// servers (at most once per run).
	stepSplit
	// stepXStoreOutage toggles the XStore account (Aux = 1 on / 0 off).
	// Destaging and checkpoints must defer and resume, never fail the
	// workload.
	stepXStoreOutage
	// stepBackup takes a named constant-time backup (Name).
	stepBackup
	// stepRestoreProbe restores the latest backup (Aux = 1: to the LSN
	// just past the last acked commit; 0: to end of log) and audits the
	// restored image against the oracle's history.
	stepRestoreProbe
	// stepCatchUpProbe heals every injected fault, waits for all
	// consumers to catch up to the hardened end, and audits every key on
	// the primary and every secondary.
	stepCatchUpProbe
	// stepMuxDisturb severs the RPC fabric — every call in flight loses
	// its response and fails with ErrUnavailable, every send not yet
	// delivered is dropped. Torn calls go back through the client's retry,
	// and the workload must carry on with no acked-write loss. Appended
	// after stepCatchUpProbe (schedule-hash contract: never renumber) and
	// weighted only in the "mux" scenario so the pinned fingerprints of
	// older scenarios stay valid.
	stepMuxDisturb
	// stepLZDark is a self-contained flexible-quorum probe: one LZ
	// replica (Key = replica index) goes dark mid commit-burst, commits
	// must keep acking on the remaining 2-of-3 quorum, and the oracle
	// checks that every acked commit's bytes are on at least two
	// replicas at harden time and that the straggler is reconciled (zero
	// missed bytes) before it serves reads again. Appended after
	// stepMuxDisturb (schedule-hash contract: never renumber) and
	// weighted only in the "commit" scenario so the fingerprints of
	// older scenarios stay valid.
	stepLZDark

	numStepKinds = int(stepLZDark) + 1
)

var stepNames = [numStepKinds]string{
	"put", "pair", "read-primary", "read-secondary", "lz-outage",
	"quorum-loss", "feed-loss", "failover", "add-secondary",
	"remove-secondary", "ps-churn", "split", "xstore-outage",
	"backup", "restore-probe", "catchup-probe", "mux-disturb",
	"lz-dark",
}

// String names the step kind.
func (k stepKind) String() string {
	if int(k) < numStepKinds {
		return stepNames[k]
	}
	return fmt.Sprintf("step(%d)", uint8(k))
}

// step is one move of a chaos schedule. All fields are produced by the
// deterministic generator; the runner resolves them against the live
// cluster (e.g. an ordinal to a concrete page server) at execution time.
type step struct {
	kind stepKind
	// key selects a workload key (writes/reads) or an LZ replica index.
	key int
	// aux is a kind-specific scalar: pair index, secondary ordinal,
	// on/off flag, or restore-target selector.
	aux int
	// name is a generated identity: secondary name or backup name.
	name string
}

// spec is a scenario: a name plus per-kind selection weights. A zero
// weight disables the kind entirely.
type spec struct {
	name    string
	weights [numStepKinds]int
}

// Scenarios returns the built-in scenario names, sorted.
func Scenarios() []string {
	names := make([]string, 0, len(scenarios))
	for n := range scenarios {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

var scenarios = map[string]spec{
	// mixed is the default: a realistic blend of workload, faults, and
	// probes.
	"mixed": {name: "mixed", weights: [numStepKinds]int{
		stepPut: 30, stepPair: 8, stepReadPrimary: 10, stepReadSecondary: 10,
		stepLZOutage: 3, stepQuorumLoss: 1, stepFeedLoss: 3, stepFailover: 2,
		stepAddSecondary: 2, stepRemoveSecondary: 2, stepPSChurn: 2,
		stepSplit: 1, stepXStoreOutage: 2, stepBackup: 2, stepRestoreProbe: 2,
		stepCatchUpProbe: 2,
	}},
	// workload is a fault-free baseline: if this reports violations the
	// oracle itself is broken.
	"workload": {name: "workload", weights: [numStepKinds]int{
		stepPut: 40, stepPair: 10, stepReadPrimary: 15, stepReadSecondary: 15,
		stepAddSecondary: 1, stepCatchUpProbe: 3,
	}},
	// faults leans hard on the failure injectors with just enough
	// workload to have something to lose.
	"faults": {name: "faults", weights: [numStepKinds]int{
		stepPut: 15, stepPair: 5, stepReadPrimary: 5, stepReadSecondary: 5,
		stepLZOutage: 6, stepQuorumLoss: 3, stepFeedLoss: 6, stepFailover: 5,
		stepAddSecondary: 3, stepRemoveSecondary: 3, stepPSChurn: 4,
		stepSplit: 1, stepXStoreOutage: 4, stepCatchUpProbe: 3,
	}},
	// pitr exercises the backup/restore path continuously.
	"pitr": {name: "pitr", weights: [numStepKinds]int{
		stepPut: 25, stepPair: 5, stepReadPrimary: 5, stepReadSecondary: 3,
		stepFailover: 1, stepFeedLoss: 2,
		stepBackup: 8, stepRestoreProbe: 8, stepCatchUpProbe: 2,
	}},
	// commit tortures the adaptive group-commit path: heavy single-key
	// commit traffic with frequent one-replica LZ darkness mid-burst
	// (stepLZDark), plus feed loss so one-way harden acks get dropped and
	// the retransmit path earns its keep. New scenario on purpose —
	// adding stepLZDark to an existing scenario would shift its pinned
	// schedule fingerprints.
	"commit": {name: "commit", weights: [numStepKinds]int{
		stepPut: 40, stepPair: 6, stepReadPrimary: 8, stepReadSecondary: 6,
		stepLZDark: 8, stepFeedLoss: 2, stepFailover: 1,
		stepCatchUpProbe: 3,
	}},
	// mux tortures the RPC fabric: heavy read/write traffic with frequent
	// severing of the calls in flight, plus the usual fault blend so torn
	// calls' retries race failovers and churn. New scenario on purpose —
	// adding stepMuxDisturb to an existing scenario would shift its
	// pinned schedule fingerprints.
	"mux": {name: "mux", weights: [numStepKinds]int{
		stepPut: 25, stepPair: 8, stepReadPrimary: 12, stepReadSecondary: 12,
		stepMuxDisturb: 10, stepFeedLoss: 2, stepFailover: 2,
		stepAddSecondary: 2, stepRemoveSecondary: 2, stepPSChurn: 2,
		stepCatchUpProbe: 3,
	}},
}

// Scenario resolves a scenario by name ("" = "mixed").
func Scenario(name string) (spec, error) {
	if name == "" {
		name = "mixed"
	}
	s, ok := scenarios[name]
	if !ok {
		return spec{}, fmt.Errorf("chaos: unknown scenario %q (have %v)", name, Scenarios())
	}
	return s, nil
}

// Workload geometry. Small keyspaces on purpose: collisions and
// overwrites are where version chains, snapshot reads, and replay get
// interesting.
const (
	numKeys  = 48 // single-key workload keys c000..c047
	numPairs = 8  // pair keys pa00/pb00..pa07/pb07

	// Fault windows are bounded so the system is never left broken for
	// unboundedly long: the generator force-closes each window after this
	// many steps.
	maxOutageWindow = 8
)

// generator produces the deterministic step stream for one (seed,
// scenario). It never observes the live cluster: every choice flows from
// the rng plus a shadow model of the topology it has built so far, which
// is what makes the schedule a pure function of the seed.
type generator struct {
	rng  *rand.Rand
	spec spec

	// shadow topology model
	secondaries []string
	secSeq      int
	lzOut       int // replica index currently dark, -1 = none
	lzOutAge    int
	feedLoss    bool
	feedAge     int
	xstoreOut   bool
	xsAge       int
	split       bool
	backups     int
}

func newGenerator(seed int64, spec spec) *generator {
	return &generator{
		rng:         rand.New(rand.NewSource(seed)),
		spec:        spec,
		secondaries: []string{"sec-0"}, // the cluster boots with one
		lzOut:       -1,
	}
}

// eligible reports whether kind may be scheduled given the shadow model.
func (g *generator) eligible(k stepKind) bool {
	switch k {
	case stepReadSecondary, stepRemoveSecondary:
		return len(g.secondaries) > 0
	case stepLZOutage, stepLZDark:
		return g.lzOut == -1 // one dark replica at a time: quorum holds
	case stepQuorumLoss, stepFailover:
		// A new primary's boot reads pages through the page servers; an
		// XStore outage could fail a read-through miss, so failovers wait
		// for the store to heal.
		return !g.xstoreOut
	case stepFeedLoss:
		return !g.feedLoss
	case stepXStoreOutage:
		return !g.xstoreOut
	case stepPSChurn, stepSplit, stepBackup, stepRestoreProbe:
		// These checkpoint/snapshot/restore against XStore.
		if g.xstoreOut {
			return false
		}
		if k == stepSplit {
			return !g.split
		}
		if k == stepPSChurn {
			// Churn targets partition 0's elder; after a split the elder
			// serves only half a range and killing it would leave that
			// half-range selector empty — permanent read failures, not a
			// consistency finding.
			return !g.split
		}
		if k == stepRestoreProbe {
			return g.backups > 0
		}
		return true
	default:
		return true
	}
}

// next produces the next step of the schedule. The stream is infinite;
// the runner stops when its step budget or wall-clock bound runs out.
func (g *generator) next() step {
	// Force-close aged fault windows first, so no injected fault outlives
	// its bound regardless of what the dice do.
	if g.lzOut >= 0 {
		g.lzOutAge++
		if g.lzOutAge >= maxOutageWindow {
			s := step{kind: stepLZOutage, key: g.lzOut, aux: 0}
			g.lzOut, g.lzOutAge = -1, 0
			return s
		}
	}
	if g.feedLoss {
		g.feedAge++
		if g.feedAge >= maxOutageWindow {
			g.feedLoss, g.feedAge = false, 0
			return step{kind: stepFeedLoss, aux: 0}
		}
	}
	if g.xstoreOut {
		g.xsAge++
		if g.xsAge >= maxOutageWindow {
			g.xstoreOut, g.xsAge = false, 0
			return step{kind: stepXStoreOutage, aux: 0}
		}
	}

	total := 0
	for k := 0; k < numStepKinds; k++ {
		if g.spec.weights[k] > 0 && g.eligible(stepKind(k)) {
			total += g.spec.weights[k]
		}
	}
	r := g.rng.Intn(total)
	kind := stepKind(0)
	for k := 0; k < numStepKinds; k++ {
		if g.spec.weights[k] == 0 || !g.eligible(stepKind(k)) {
			continue
		}
		r -= g.spec.weights[k]
		if r < 0 {
			kind = stepKind(k)
			break
		}
	}

	switch kind {
	case stepPut:
		return step{kind: stepPut, key: g.rng.Intn(numKeys)}
	case stepPair:
		return step{kind: stepPair, aux: g.rng.Intn(numPairs)}
	case stepReadPrimary:
		return step{kind: stepReadPrimary, key: g.rng.Intn(numKeys)}
	case stepReadSecondary:
		return step{
			kind: stepReadSecondary,
			key:  g.rng.Intn(numKeys),
			aux:  g.rng.Intn(numPairs),
			name: g.secondaries[g.rng.Intn(len(g.secondaries))],
		}
	case stepLZOutage:
		g.lzOut, g.lzOutAge = g.rng.Intn(3), 0
		return step{kind: stepLZOutage, key: g.lzOut, aux: 1}
	case stepQuorumLoss:
		// The composite restores all replicas itself, healing any
		// single-replica window in passing.
		g.lzOut, g.lzOutAge = -1, 0
		return step{kind: stepQuorumLoss, key: g.rng.Intn(numKeys)}
	case stepFeedLoss:
		g.feedLoss, g.feedAge = true, 0
		return step{kind: stepFeedLoss, aux: 1}
	case stepFailover:
		return step{kind: stepFailover}
	case stepAddSecondary:
		g.secSeq++
		name := fmt.Sprintf("chaos-sec-%d", g.secSeq)
		g.secondaries = append(g.secondaries, name)
		return step{kind: stepAddSecondary, name: name}
	case stepRemoveSecondary:
		i := g.rng.Intn(len(g.secondaries))
		name := g.secondaries[i]
		g.secondaries = append(g.secondaries[:i], g.secondaries[i+1:]...)
		return step{kind: stepRemoveSecondary, name: name}
	case stepPSChurn:
		return step{kind: stepPSChurn}
	case stepSplit:
		g.split = true
		return step{kind: stepSplit}
	case stepXStoreOutage:
		g.xstoreOut, g.xsAge = true, 0
		return step{kind: stepXStoreOutage, aux: 1}
	case stepBackup:
		g.backups++
		return step{kind: stepBackup, name: fmt.Sprintf("b%d", g.backups)}
	case stepRestoreProbe:
		return step{kind: stepRestoreProbe, aux: g.rng.Intn(2), name: fmt.Sprintf("b%d", g.backups)}
	case stepCatchUpProbe:
		// A catch-up probe heals everything first; reflect that in the
		// model so the generator doesn't emit stale window-closing steps.
		g.lzOut, g.lzOutAge = -1, 0
		g.feedLoss, g.feedAge = false, 0
		g.xstoreOut, g.xsAge = false, 0
		return step{kind: stepCatchUpProbe}
	case stepMuxDisturb:
		// Severing is instantaneous (the next call rides the same
		// fabric), so it opens no fault window in the shadow model.
		return step{kind: stepMuxDisturb}
	case stepLZDark:
		// Self-contained: the runner darkens the replica, runs the commit
		// burst, heals, and reconciles within the one step, so no fault
		// window opens in the shadow model.
		return step{kind: stepLZDark, key: g.rng.Intn(3)}
	}
	return step{kind: stepPut, key: 0} // unreachable
}

// scheduleHasher folds steps into an FNV-1a stream; the digest is the
// replay fingerprint of a (seed, scenario, steps) schedule.
type scheduleHasher struct{ h uint64 }

func newScheduleHasher() *scheduleHasher {
	f := fnv.New64a()
	return &scheduleHasher{h: f.Sum64()}
}

func (s *scheduleHasher) fold(st step) {
	const prime = 1099511628211
	mix := func(b byte) { s.h = (s.h ^ uint64(b)) * prime }
	mix(byte(st.kind))
	for _, v := range []int{st.key, st.aux} {
		u := uint32(int32(v))
		mix(byte(u))
		mix(byte(u >> 8))
		mix(byte(u >> 16))
		mix(byte(u >> 24))
	}
	for i := 0; i < len(st.name); i++ {
		mix(st.name[i])
	}
	mix(0xFF) // step terminator
}

// scheduleHash generates (without executing) the first `steps` moves of
// the schedule for (seed, scenario) and returns their fingerprint. Two
// runs agree on this value iff they would make the same moves — the
// replayability contract behind `socrates-chaos -seed`.
func scheduleHash(seed int64, scenario string, steps int) (uint64, error) {
	spec, err := Scenario(scenario)
	if err != nil {
		return 0, err
	}
	gen := newGenerator(seed, spec)
	h := newScheduleHasher()
	for i := 0; i < steps; i++ {
		h.fold(gen.next())
	}
	return h.h, nil
}
