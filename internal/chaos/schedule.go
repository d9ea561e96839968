package chaos

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
)

// StepKind enumerates the moves the torture harness can make. The numeric
// values feed the schedule hash, so they are append-only: never renumber.
type StepKind uint8

const (
	// StepPut writes one workload key in its own transaction.
	StepPut StepKind = iota
	// StepPair writes both halves of a key pair in one transaction —
	// the probe for torn snapshot reads.
	StepPair
	// StepReadPrimary reads one workload key on the primary.
	StepReadPrimary
	// StepReadSecondary reads one workload key and one key pair on a
	// secondary, checking snapshot consistency against its applied LSN.
	StepReadSecondary
	// StepLZOutage toggles a single landing-zone replica (Key = replica
	// index, Aux = 1 on / 0 off). Single-replica outages stay within the
	// write quorum, so commits must keep flowing.
	StepLZOutage
	// StepQuorumLoss is a composite: all LZ replicas go dark, commits are
	// attempted (and must fail without acking), the replicas recover, and
	// a failover installs a fresh primary over the durable prefix.
	StepQuorumLoss
	// StepFeedLoss toggles drop probability on the lossy primary→XLOG
	// feed (Aux = 1 on / 0 off). Consumers must recover via gap fills.
	StepFeedLoss
	// StepFailover crashes the primary and attaches a replacement.
	StepFailover
	// StepAddSecondary attaches a new read-scale secondary (Name).
	StepAddSecondary
	// StepRemoveSecondary retires the named secondary.
	StepRemoveSecondary
	// StepPSChurn adds a page-server replica to partition 0, then kills
	// the oldest server of the partition — a crash with a warm standby.
	StepPSChurn
	// StepSplit splits partition 0's page server into two half-range
	// servers (at most once per run).
	StepSplit
	// StepXStoreOutage toggles the XStore account (Aux = 1 on / 0 off).
	// Destaging and checkpoints must defer and resume, never fail the
	// workload.
	StepXStoreOutage
	// StepBackup takes a named constant-time backup (Name).
	StepBackup
	// StepRestoreProbe restores the latest backup (Aux = 1: to the LSN
	// just past the last acked commit; 0: to end of log) and audits the
	// restored image against the oracle's history.
	StepRestoreProbe
	// StepCatchUpProbe heals every injected fault, waits for all
	// consumers to catch up to the hardened end, and audits every key on
	// the primary and every secondary.
	StepCatchUpProbe
	// StepMuxDisturb severs the RPC fabric — every call in flight loses
	// its response and fails with ErrUnavailable, every send not yet
	// delivered is dropped. Torn calls go back through the client's retry,
	// and the workload must carry on with no acked-write loss. Appended
	// after StepCatchUpProbe (schedule-hash contract: never renumber) and
	// weighted only in the "mux" scenario so the pinned fingerprints of
	// older scenarios stay valid.
	StepMuxDisturb
	// StepLZDark is a self-contained flexible-quorum probe: one LZ
	// replica (Key = replica index) goes dark mid commit-burst, commits
	// must keep acking on the remaining 2-of-3 quorum, and the oracle
	// checks that every acked commit's bytes are on at least two
	// replicas at harden time and that the straggler is reconciled (zero
	// missed bytes) before it serves reads again. Appended after
	// StepMuxDisturb (schedule-hash contract: never renumber) and
	// weighted only in the "commit" scenario so the fingerprints of
	// older scenarios stay valid.
	StepLZDark

	numStepKinds = int(StepLZDark) + 1
)

var stepNames = [numStepKinds]string{
	"put", "pair", "read-primary", "read-secondary", "lz-outage",
	"quorum-loss", "feed-loss", "failover", "add-secondary",
	"remove-secondary", "ps-churn", "split", "xstore-outage",
	"backup", "restore-probe", "catchup-probe", "mux-disturb",
	"lz-dark",
}

// String names the step kind.
func (k StepKind) String() string {
	if int(k) < numStepKinds {
		return stepNames[k]
	}
	return fmt.Sprintf("step(%d)", uint8(k))
}

// Step is one move of a chaos schedule. All fields are produced by the
// deterministic generator; the runner resolves them against the live
// cluster (e.g. an ordinal to a concrete page server) at execution time.
type Step struct {
	Kind StepKind
	// Key selects a workload key (writes/reads) or an LZ replica index.
	Key int
	// Aux is a kind-specific scalar: pair index, secondary ordinal,
	// on/off flag, or restore-target selector.
	Aux int
	// Name is a generated identity: secondary name or backup name.
	Name string
}

// Spec is a scenario: a name plus per-kind selection weights. A zero
// weight disables the kind entirely.
type Spec struct {
	Name    string
	Weights [numStepKinds]int
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

var scenarios = map[string]Spec{
	// mixed is the default: a realistic blend of workload, faults, and
	// probes.
	"mixed": {Name: "mixed", Weights: [numStepKinds]int{
		StepPut: 30, StepPair: 8, StepReadPrimary: 10, StepReadSecondary: 10,
		StepLZOutage: 3, StepQuorumLoss: 1, StepFeedLoss: 3, StepFailover: 2,
		StepAddSecondary: 2, StepRemoveSecondary: 2, StepPSChurn: 2,
		StepSplit: 1, StepXStoreOutage: 2, StepBackup: 2, StepRestoreProbe: 2,
		StepCatchUpProbe: 2,
	}},
	// workload is a fault-free baseline: if this reports violations the
	// oracle itself is broken.
	"workload": {Name: "workload", Weights: [numStepKinds]int{
		StepPut: 40, StepPair: 10, StepReadPrimary: 15, StepReadSecondary: 15,
		StepAddSecondary: 1, StepCatchUpProbe: 3,
	}},
	// faults leans hard on the failure injectors with just enough
	// workload to have something to lose.
	"faults": {Name: "faults", Weights: [numStepKinds]int{
		StepPut: 15, StepPair: 5, StepReadPrimary: 5, StepReadSecondary: 5,
		StepLZOutage: 6, StepQuorumLoss: 3, StepFeedLoss: 6, StepFailover: 5,
		StepAddSecondary: 3, StepRemoveSecondary: 3, StepPSChurn: 4,
		StepSplit: 1, StepXStoreOutage: 4, StepCatchUpProbe: 3,
	}},
	// pitr exercises the backup/restore path continuously.
	"pitr": {Name: "pitr", Weights: [numStepKinds]int{
		StepPut: 25, StepPair: 5, StepReadPrimary: 5, StepReadSecondary: 3,
		StepFailover: 1, StepFeedLoss: 2,
		StepBackup: 8, StepRestoreProbe: 8, StepCatchUpProbe: 2,
	}},
	// commit tortures the adaptive group-commit path: heavy single-key
	// commit traffic with frequent one-replica LZ darkness mid-burst
	// (StepLZDark), plus feed loss so one-way harden acks get dropped and
	// the retransmit path earns its keep. New scenario on purpose —
	// adding StepLZDark to an existing scenario would shift its pinned
	// schedule fingerprints.
	"commit": {Name: "commit", Weights: [numStepKinds]int{
		StepPut: 40, StepPair: 6, StepReadPrimary: 8, StepReadSecondary: 6,
		StepLZDark: 8, StepFeedLoss: 2, StepFailover: 1,
		StepCatchUpProbe: 3,
	}},
	// mux tortures the RPC fabric: heavy read/write traffic with frequent
	// severing of the calls in flight, plus the usual fault blend so torn
	// calls' retries race failovers and churn. New scenario on purpose —
	// adding StepMuxDisturb to an existing scenario would shift its
	// pinned schedule fingerprints.
	"mux": {Name: "mux", Weights: [numStepKinds]int{
		StepPut: 25, StepPair: 8, StepReadPrimary: 12, StepReadSecondary: 12,
		StepMuxDisturb: 10, StepFeedLoss: 2, StepFailover: 2,
		StepAddSecondary: 2, StepRemoveSecondary: 2, StepPSChurn: 2,
		StepCatchUpProbe: 3,
	}},
}

// Scenario resolves a scenario by name ("" = "mixed").
func Scenario(name string) (Spec, error) {
	if name == "" {
		name = "mixed"
	}
	s, ok := scenarios[name]
	if !ok {
		return Spec{}, fmt.Errorf("chaos: unknown scenario %q (have %v)", name, Scenarios())
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
	spec Spec

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

func newGenerator(seed int64, spec Spec) *generator {
	return &generator{
		rng:         rand.New(rand.NewSource(seed)),
		spec:        spec,
		secondaries: []string{"sec-0"}, // the cluster boots with one
		lzOut:       -1,
	}
}

// eligible reports whether kind may be scheduled given the shadow model.
func (g *generator) eligible(k StepKind) bool {
	switch k {
	case StepReadSecondary, StepRemoveSecondary:
		return len(g.secondaries) > 0
	case StepLZOutage, StepLZDark:
		return g.lzOut == -1 // one dark replica at a time: quorum holds
	case StepQuorumLoss, StepFailover:
		// A new primary's boot reads pages through the page servers; an
		// XStore outage could fail a read-through miss, so failovers wait
		// for the store to heal.
		return !g.xstoreOut
	case StepFeedLoss:
		return !g.feedLoss
	case StepXStoreOutage:
		return !g.xstoreOut
	case StepPSChurn, StepSplit, StepBackup, StepRestoreProbe:
		// These checkpoint/snapshot/restore against XStore.
		if g.xstoreOut {
			return false
		}
		if k == StepSplit {
			return !g.split
		}
		if k == StepPSChurn {
			// Churn targets partition 0's elder; after a split the elder
			// serves only half a range and killing it would leave that
			// half-range selector empty — permanent read failures, not a
			// consistency finding.
			return !g.split
		}
		if k == StepRestoreProbe {
			return g.backups > 0
		}
		return true
	default:
		return true
	}
}

// Next produces the next step of the schedule. The stream is infinite;
// the runner stops when its step budget or wall-clock bound runs out.
func (g *generator) Next() Step {
	// Force-close aged fault windows first, so no injected fault outlives
	// its bound regardless of what the dice do.
	if g.lzOut >= 0 {
		g.lzOutAge++
		if g.lzOutAge >= maxOutageWindow {
			s := Step{Kind: StepLZOutage, Key: g.lzOut, Aux: 0}
			g.lzOut, g.lzOutAge = -1, 0
			return s
		}
	}
	if g.feedLoss {
		g.feedAge++
		if g.feedAge >= maxOutageWindow {
			g.feedLoss, g.feedAge = false, 0
			return Step{Kind: StepFeedLoss, Aux: 0}
		}
	}
	if g.xstoreOut {
		g.xsAge++
		if g.xsAge >= maxOutageWindow {
			g.xstoreOut, g.xsAge = false, 0
			return Step{Kind: StepXStoreOutage, Aux: 0}
		}
	}

	total := 0
	for k := 0; k < numStepKinds; k++ {
		if g.spec.Weights[k] > 0 && g.eligible(StepKind(k)) {
			total += g.spec.Weights[k]
		}
	}
	r := g.rng.Intn(total)
	kind := StepKind(0)
	for k := 0; k < numStepKinds; k++ {
		if g.spec.Weights[k] == 0 || !g.eligible(StepKind(k)) {
			continue
		}
		r -= g.spec.Weights[k]
		if r < 0 {
			kind = StepKind(k)
			break
		}
	}

	switch kind {
	case StepPut:
		return Step{Kind: StepPut, Key: g.rng.Intn(numKeys)}
	case StepPair:
		return Step{Kind: StepPair, Aux: g.rng.Intn(numPairs)}
	case StepReadPrimary:
		return Step{Kind: StepReadPrimary, Key: g.rng.Intn(numKeys)}
	case StepReadSecondary:
		return Step{
			Kind: StepReadSecondary,
			Key:  g.rng.Intn(numKeys),
			Aux:  g.rng.Intn(numPairs),
			Name: g.secondaries[g.rng.Intn(len(g.secondaries))],
		}
	case StepLZOutage:
		g.lzOut, g.lzOutAge = g.rng.Intn(3), 0
		return Step{Kind: StepLZOutage, Key: g.lzOut, Aux: 1}
	case StepQuorumLoss:
		// The composite restores all replicas itself, healing any
		// single-replica window in passing.
		g.lzOut, g.lzOutAge = -1, 0
		return Step{Kind: StepQuorumLoss, Key: g.rng.Intn(numKeys)}
	case StepFeedLoss:
		g.feedLoss, g.feedAge = true, 0
		return Step{Kind: StepFeedLoss, Aux: 1}
	case StepFailover:
		return Step{Kind: StepFailover}
	case StepAddSecondary:
		g.secSeq++
		name := fmt.Sprintf("chaos-sec-%d", g.secSeq)
		g.secondaries = append(g.secondaries, name)
		return Step{Kind: StepAddSecondary, Name: name}
	case StepRemoveSecondary:
		i := g.rng.Intn(len(g.secondaries))
		name := g.secondaries[i]
		g.secondaries = append(g.secondaries[:i], g.secondaries[i+1:]...)
		return Step{Kind: StepRemoveSecondary, Name: name}
	case StepPSChurn:
		return Step{Kind: StepPSChurn}
	case StepSplit:
		g.split = true
		return Step{Kind: StepSplit}
	case StepXStoreOutage:
		g.xstoreOut, g.xsAge = true, 0
		return Step{Kind: StepXStoreOutage, Aux: 1}
	case StepBackup:
		g.backups++
		return Step{Kind: StepBackup, Name: fmt.Sprintf("b%d", g.backups)}
	case StepRestoreProbe:
		return Step{Kind: StepRestoreProbe, Aux: g.rng.Intn(2), Name: fmt.Sprintf("b%d", g.backups)}
	case StepCatchUpProbe:
		// A catch-up probe heals everything first; reflect that in the
		// model so the generator doesn't emit stale window-closing steps.
		g.lzOut, g.lzOutAge = -1, 0
		g.feedLoss, g.feedAge = false, 0
		g.xstoreOut, g.xsAge = false, 0
		return Step{Kind: StepCatchUpProbe}
	case StepMuxDisturb:
		// Severing is instantaneous (the next call rides the same
		// fabric), so it opens no fault window in the shadow model.
		return Step{Kind: StepMuxDisturb}
	case StepLZDark:
		// Self-contained: the runner darkens the replica, runs the commit
		// burst, heals, and reconciles within the one step, so no fault
		// window opens in the shadow model.
		return Step{Kind: StepLZDark, Key: g.rng.Intn(3)}
	}
	return Step{Kind: StepPut, Key: 0} // unreachable
}

// scheduleHasher folds steps into an FNV-1a stream; the digest is the
// replay fingerprint of a (seed, scenario, steps) schedule.
type scheduleHasher struct{ h uint64 }

func newScheduleHasher() *scheduleHasher {
	f := fnv.New64a()
	return &scheduleHasher{h: f.Sum64()}
}

func (s *scheduleHasher) fold(st Step) {
	const prime = 1099511628211
	mix := func(b byte) { s.h = (s.h ^ uint64(b)) * prime }
	mix(byte(st.Kind))
	for _, v := range []int{st.Key, st.Aux} {
		u := uint32(int32(v))
		mix(byte(u))
		mix(byte(u >> 8))
		mix(byte(u >> 16))
		mix(byte(u >> 24))
	}
	for i := 0; i < len(st.Name); i++ {
		mix(st.Name[i])
	}
	mix(0xFF) // step terminator
}

// ScheduleHash generates (without executing) the first `steps` moves of
// the schedule for (seed, scenario) and returns their fingerprint. Two
// runs agree on this value iff they would make the same moves — the
// replayability contract behind `socrates-chaos -seed`.
func ScheduleHash(seed int64, scenario string, steps int) (uint64, error) {
	spec, err := Scenario(scenario)
	if err != nil {
		return 0, err
	}
	gen := newGenerator(seed, spec)
	h := newScheduleHasher()
	for i := 0; i < steps; i++ {
		h.fold(gen.Next())
	}
	return h.h, nil
}
