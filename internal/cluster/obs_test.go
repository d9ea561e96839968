package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"socrates/internal/obs"
	"socrates/internal/page"
	"socrates/internal/simdisk"
)

// ladderValue digs one rung out of a watermark snapshot ("" replica).
func ladderValue(snap []obs.WatermarkState, name string) uint64 {
	for _, st := range snap {
		if st.Name == name && st.Replica == "" {
			return st.LSN
		}
	}
	return 0
}

// TestClusterWatermarkLadderLive commits through a deployment and asserts
// every rung of the LSN ladder was published and converges once the
// workload quiesces: the whole point of the watermark plane is that
// "caught up" is legible as equality across rungs.
func TestClusterWatermarkLadderLive(t *testing.T) {
	c := newFastCluster(t, fastConfig("wm-ladder"))
	seedRows(t, c, "t", 200)

	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := c.Watermarks.Snapshot()
		commit := ladderValue(snap, obs.WMCommit)
		hardened := ladderValue(snap, obs.WMHardened)
		promoted := ladderValue(snap, obs.WMPromoted)
		destaged := ladderValue(snap, obs.WMDestaged)
		applied := uint64(0)
		appliedOK := true
		for _, st := range snap {
			if st.Name == obs.WMApplied {
				applied = st.LSN
				if st.LSN < promoted {
					appliedOK = false
				}
			}
		}
		if commit > 0 && hardened >= commit && promoted == hardened &&
			destaged > 0 && destaged <= promoted && applied > 0 && appliedOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ladder never converged: %+v", snap)
		}
		time.Sleep(2 * time.Millisecond) // test polling for background apply/promotion to catch up
	}

	// The flight recorder saw the traffic (flush + destage + apply events).
	if len(c.Flight.Events()) == 0 {
		t.Fatal("flight recorder recorded nothing during a live workload")
	}
	// And no watchdog trips: a healthy run must not cry wolf.
	if n := len(c.Watchdog.Trips()); n != 0 {
		t.Fatalf("healthy cluster tripped the watchdog %d times: %+v", n, c.Watchdog.Trips())
	}

	// Every name the live cluster registered keeps the naming contract that
	// /metrics and the watchdog's ladder edges key on, the dynamically built
	// ones included (a per-replica key checks its part before the "/").
	snap := c.Metrics.Snapshot()
	var names []string
	for name := range snap.Counters {
		names = append(names, name)
	}
	for name := range snap.Gauges {
		names = append(names, name)
	}
	for name := range snap.Histograms {
		names = append(names, name)
	}
	for _, st := range c.Watermarks.Snapshot() {
		names = append(names, st.Name)
	}
	for _, name := range names {
		if base, _, _ := strings.Cut(name, "/"); !instrumentName.MatchString(base) {
			t.Errorf("instrument %q breaks the naming contract %s", name, instrumentName)
		}
	}

	// A rung leaves the ladder with its owner: a killed page server and a
	// removed secondary stop being followers, so while the log moves on
	// without them neither trips the watchdog nor holds up a lag gauge.
	if err := c.AddPageServerReplica(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddSecondary("wm-sec"); err != nil {
		t.Fatal(err)
	}
	seedRows(t, c, "t1", 50)
	if err := c.WaitForCatchUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	servers := c.Watermarks.Replicas(obs.WMApplied)
	if err := c.KillPageServer(c.PageServers()[0]); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveSecondary("wm-sec"); err != nil {
		t.Fatal(err)
	}
	seedRows(t, c, "t2", 200)
	if err := c.WaitForCatchUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := waitDestaged(c, c.XLOG.HardenedEnd(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Ticked by hand past the default StallTicks; its own loop must not
	// overlap a hand-driven Tick.
	c.Watchdog.Stop()
	for i := 0; i <= 8; i++ {
		c.Watchdog.Tick()
	}
	if got := c.Watermarks.Replicas(obs.WMApplied); len(got) != len(servers)-1 {
		t.Errorf("page-server rungs after a kill: %v, had %v", got, servers)
	}
	if got := c.Watermarks.Replicas(obs.WMSecondary); len(got) != 0 {
		t.Errorf("secondary rungs after its removal: %v", got)
	}
	if n := len(c.Watchdog.Trips()); n != 0 {
		t.Errorf("dead rungs tripped the watchdog %d times: %+v", n, c.Watchdog.Trips())
	}
	for _, g := range []string{"pageserver.apply_lag_lsn", "compute.apply_lag_lsn"} {
		if lag := c.Metrics.Gauge(g).Value(); lag != 0 {
			t.Errorf("%s = %d with every live follower caught up", g, lag)
		}
	}
}

// instrumentName is the obs naming contract: at least two dot-separated
// lowercase segments, e.g. "lz.write.latency" or "pageserver.applied_lsn".
var instrumentName = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$`)

// TestWatchdogStallTripFreezesFlightDump wedges every page server's cache
// SSD (apply batches fail, the applied watermark freezes while promotion
// keeps moving) and asserts the watchdog detects the stall on that rung with
// the apply errors in the flight ring, and that a trip freezes a non-empty
// JSONL flight dump for the postmortem. The test ticks the watchdog itself,
// once apply has failed: on a loaded host a background ticker can see the
// applied rung stand still for three ticks before the page server has even
// pulled the blocks the outage fails, and that trip, edge-triggered, is the
// only one the rung gets.
func TestWatchdogStallTripFreezesFlightDump(t *testing.T) {
	cfg := fastConfig("wm-stall")
	// No background ticks; lag trips disabled so the test isolates the
	// stall rule.
	cfg.watchdog = obs.WatchdogConfig{
		Interval:   time.Hour,
		MaxLagLSN:  -1,
		StallTicks: 3,
	}
	c := newFastCluster(t, cfg)
	seedRows(t, c, "t", 100)
	// Let apply reach the log's end first: a server wedged before it ever
	// applied a batch has published no applied watermark, and the watchdog
	// only watches followers that are on the ladder.
	if err := c.WaitForCatchUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// The trip this test is about is the one on the rung it stalls. Another
	// rung (the destager's, say) can stall over the same ticks, so "whichever
	// trip comes first" is not it: watch for the applied rung's own trip,
	// and take the flight ring as soon as it is there.
	type stalled struct {
		trip obs.Trip
		ring []byte
	}
	applyStall := func() (stalled, bool) {
		for _, tr := range c.Watchdog.Trips() {
			if tr.Kind == obs.TripStall && strings.HasPrefix(tr.Follower, obs.WMApplied) {
				var buf bytes.Buffer
				_ = c.Flight.Dump(&buf)
				return stalled{tr, buf.Bytes()}, true
			}
		}
		return stalled{}, false
	}

	for _, srv := range c.PageServers() {
		srv.CacheDevice().SetOutage(true)
	}
	// Keep committing: promotion advances while apply is wedged.
	seedRows(t, c, "t2", 100)

	applyFailed := func() bool {
		for _, e := range c.Flight.Events() {
			if e.Kind == "ps.apply_error" {
				return true
			}
		}
		return false
	}
	for deadline := time.Now().Add(5 * time.Second); !applyFailed(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no page server failed an apply on its wedged cache")
		}
	}
	var stall stalled
	for tick := 0; ; tick++ {
		var ok bool
		if stall, ok = applyStall(); ok {
			break
		}
		if tick == 10 {
			t.Fatalf("watchdog never tripped on the stalled page server in %d ticks: %+v", tick, c.Watchdog.Trips())
		}
		c.Watchdog.Tick()
	}
	if stall.trip.Leader != obs.WMPromoted || stall.trip.LagLSN == 0 {
		t.Fatalf("stall trip shape wrong: %+v", stall.trip)
	}

	// The ring at that trip must be non-empty, parseable JSONL, and contain
	// the apply errors that explain the stall; and the cluster froze a dump
	// at its first trip, whichever rung that was.
	sawApplyError := false
	for _, line := range bytes.Split(bytes.TrimSpace(stall.ring), []byte("\n")) {
		var e obs.FlightEvent
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("dump line %q not valid JSON: %v", line, err)
		}
		if e.Kind == "ps.apply_error" {
			sawApplyError = true
		}
	}
	if !sawApplyError {
		t.Fatalf("flight ring at the stall trip has no ps.apply_error events:\n%s", stall.ring)
	}
	if len(c.Watchdog.TripDump()) == 0 {
		t.Fatal("the first trip did not freeze a flight dump")
	}

	// Recovery: the outage clears, apply resumes, and the plane converges.
	for _, srv := range c.PageServers() {
		srv.CacheDevice().SetOutage(false)
	}
	if err := c.WaitForCatchUp(5 * time.Second); err != nil {
		t.Fatalf("apply never caught up after the outage cleared: %v", err)
	}
}

// TestCheckpointInstrumentsOnMetrics: the checkpoint policy and XStore's
// space accounting are on the registry, and so on /metrics, under the names
// the dashboards are told.
func TestCheckpointInstrumentsOnMetrics(t *testing.T) {
	c := newFastCluster(t, fastConfig("ckpt-metrics"))
	seedRows(t, c, "t", 500)
	if err := c.WaitForCatchUp(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitCheckpointDrain(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"socrates_pageserver_redo_distance_lsn_ps_1_p0 ",
		"socrates_pageserver_ckpt_sweeps ",
		"socrates_pageserver_ckpt_pages ",
		"socrates_xstore_footprint_bytes ",
		"socrates_xstore_garbage_bytes ",
		"socrates_xstore_reclaimed_bytes ",
		"socrates_xstore_write_ops ",
	} {
		if !bytes.Contains(buf.Bytes(), []byte("\n"+family)) {
			t.Errorf("/metrics has no %q", family)
		}
	}
	snap := c.Metrics.Snapshot()
	if sweeps, pages := snap.Counters["pageserver.ckpt.sweeps"], snap.Counters["pageserver.ckpt.pages"]; sweeps == 0 || pages == 0 {
		t.Errorf("after a drain: pageserver.ckpt.sweeps = %d, pageserver.ckpt.pages = %d", sweeps, pages)
	}
	if live, foot := c.Store.LiveBytes(), snap.Gauges["xstore.footprint_bytes"]; foot < live || live == 0 {
		t.Errorf("xstore.footprint_bytes = %d with %d live bytes", foot, live)
	}
}

// TestQuorumDegradedTripFreezesCommitWaits is the wait-stats integration
// test for a quorum-loss window: one of the three LZ replicas goes dark (the
// write quorum holds on the remaining two), committers push the commit
// frontier past the lag threshold while hardening is held, and the watchdog
// trip that fires mid-window must freeze commit.quorum and commit.harden in
// its top-3 with a commit wait on top — the trip names WHY the landing zone
// fell behind, not just that it did.
//
// Nothing here races the host. The lag is driven by holding hardening: the
// landing zone's devices take lzHold per write, with no jitter and no tail,
// so for that long after a flush starts the hardened watermark cannot move
// however slowly the committers are scheduled. And the committers go through
// the commit latch one at a time — each starts when the one before has
// appended its commit record and parked on hardening — so nobody ever waits
// for the latch and lock.latch, which used to outweigh the commit waits in
// one run out of three when sixteen committers raced for it, records nothing.
// What is left in the trip window is nested by construction: a committer's
// commit.harden wait contains the log writer's commit.quorum wait, which
// contains the deciding replica's disk.write.
func TestQuorumDegradedTripFreezesCommitWaits(t *testing.T) {
	const lzHold = 100 * time.Millisecond
	cfg := fastConfig("wm-quorum")
	cfg.LZProfile = simdisk.Profile{Name: "held-lz", ReadBase: time.Millisecond, WriteBase: lzHold}
	// Tight ticks. The lag threshold sits above one 25-row transaction in
	// flight (~55 LSNs) and below three. The trip window (StallTicks ticks)
	// reaches back over the serial commits of phase 1.
	cfg.watchdog = obs.WatchdogConfig{
		Interval:   2 * time.Millisecond,
		MaxLagLSN:  120,
		StallTicks: int(4 * lzHold / (2 * time.Millisecond)),
	}
	c := newFastCluster(t, cfg)
	seedRows(t, c, "t", 100)

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("still waiting for %s (commit=%d hardened=%d)", what,
					c.Watermarks.Watermark(obs.WMCommit, "").Value(),
					c.Watermarks.Watermark(obs.WMHardened, "").Value())
			}
			time.Sleep(time.Millisecond) // deadline-bounded test poll on the watermark ladder
		}
	}
	commitLSN := func() uint64 { return c.Watermarks.Watermark(obs.WMCommit, "").Value() }
	converged := func() bool {
		commit := commitLSN()
		return commit > 0 && c.Watermarks.Watermark(obs.WMHardened, "").Value() >= commit
	}
	waitFor("the ladder to converge after seeding", converged)
	// Let the watchdog observe lag 0 so the edge-triggered lag rule is
	// armed for the fault window.
	time.Sleep(10 * time.Millisecond) // watchdog must tick on the converged ladder before the fault is injected

	reps := c.LZReplicas()
	if len(reps) != 3 {
		t.Fatalf("LZ replicas = %d, want the default 3", len(reps))
	}
	reps[0].SetOutage(true)
	defer reps[0].SetOutage(false)

	e := c.Primary().Engine
	commit25 := func(prefix string) error {
		tx := e.Begin()
		for i := 0; i < 25; i++ {
			if err := tx.Put("t", []byte(fmt.Sprintf("%s-%03d", prefix, i)), []byte("v")); err != nil {
				tx.Abort()
				return err
			}
		}
		return tx.Commit()
	}

	// Phase 1 — fill the trip window while degraded: serial commits keep
	// the lag below the threshold (one transaction in flight) but each one
	// blocks lzHold in WaitHarden on the 2-of-3 quorum, so the window holds
	// completed commit waits before the trip can fire. (A wait is recorded
	// when it ends; the committers parked when the trip fires are not in it.)
	const serial = 2
	for n := 0; n < serial; n++ {
		if err := commit25(fmt.Sprintf("w%02d", n)); err != nil {
			t.Fatalf("degraded serial commit: %v", err)
		}
	}

	// Phase 2 — committers enter one by one and park: the commit frontier
	// moves ~55 LSNs with each while the first flush is still held.
	const committers = 6
	var wg sync.WaitGroup
	errs := make(chan error, committers)
	for g := 0; g < committers; g++ {
		before := commitLSN()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs <- commit25(fmt.Sprintf("q%02d", g))
		}(g)
		waitFor("the committer to append its commit record", func() bool { return commitLSN() > before })
	}
	waitFor("the lag trip", func() bool {
		for _, tr := range c.Watchdog.Trips() {
			if tr.Follower == obs.WMHardened {
				return true
			}
		}
		return false
	})
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("commit during the degraded-quorum window: %v", err)
		}
	}
	if failed, cause := e.Failed(); failed {
		t.Fatalf("engine poisoned by a minority replica outage: %v", cause)
	}

	var trip *obs.Trip
	for _, tr := range c.Watchdog.Trips() {
		if tr.Follower == obs.WMHardened {
			tr := tr
			trip = &tr
			break
		}
	}
	if trip == nil {
		t.Fatalf("no trip on %s during the degraded window: %+v", obs.WMHardened, c.Watchdog.Trips())
	}
	if trip.Kind != obs.TripLag || trip.Leader != obs.WMCommit {
		t.Fatalf("trip shape wrong: %+v", trip)
	}
	if len(trip.TopWaits) == 0 || len(trip.TopWaits) > 3 {
		t.Fatalf("TopWaits = %+v, want 1..3 frozen classes", trip.TopWaits)
	}
	t.Logf("trip-frozen top waits: %+v", trip.TopWaits)
	seen := map[string]bool{}
	for _, st := range trip.TopWaits {
		if st.Count == 0 || st.TotalNS == 0 {
			t.Errorf("frozen class %s has an empty window delta: %+v", st.Class, st)
		}
		seen[st.Class] = true
	}
	if !seen["commit.quorum"] {
		t.Errorf("trip window does not name commit.quorum in its top-3: %+v", trip.TopWaits)
	}
	if !seen["commit.harden"] {
		t.Errorf("trip window does not name commit.harden in its top-3: %+v", trip.TopWaits)
	}
	if c := trip.TopWaits[0].Class; c != "commit.harden" && c != "commit.quorum" {
		t.Errorf("dominant frozen class = %s, want a commit wait", c)
	}

	// Heal, converge, and verify nothing was lost through the window.
	reps[0].SetOutage(false)
	waitFor("the ladder to converge after healing", converged)
	verifyRows(t, e, "t", 100+(serial+committers)*25, "after the degraded-quorum window")
}

// waitDestaged waits on the ladder's destaged rung until XLOG has destaged
// the log below lsn.
func waitDestaged(c *Cluster, lsn page.LSN, timeout time.Duration) error {
	return c.Waits.Tier(obs.TierXLOG).AwaitLSN(context.Background(), obs.WaitXLOGFeed,
		c.Watermarks.Watermark(obs.WMDestaged, ""), uint64(lsn), time.Now().Add(timeout))
}
