package socrates

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"socrates/internal/obs"
	"socrates/internal/testutil/spans"
)

// waitForTrace polls the tracer until some retained trace satisfies ok, or
// the deadline passes. Spans from the xlog tier are recorded asynchronously
// (the feed is fire-and-forget and the harden report is off the critical
// path), so the full tree can trail ExecContext's return by a moment.
func waitForTrace(t *testing.T, db *DB, ok func(*SpanNode) bool) *SpanNode {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, id := range db.Traces() {
			if tree := db.Trace(id); tree != nil && ok(tree) {
				return tree
			}
		}
		if time.Now().After(deadline) {
			for _, id := range db.Traces() {
				if tree := db.Trace(id); tree != nil {
					t.Logf("trace %d:\n%s", id, tree.Format())
				}
			}
			t.Fatal("no trace satisfied the predicate within the deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCommitSpanTreeCrossesTiers is the tentpole acceptance test: a
// committed INSERT issued through ExecContext yields one coherent span
// tree that crosses at least three tiers (compute → landing zone → XLOG),
// with nonzero simulated time attributed to each span.
func TestCommitSpanTreeCrossesTiers(t *testing.T) {
	db := openFast(t, Config{Name: "trace1"})
	ctx := context.Background()
	if _, err := db.ExecContext(ctx, `CREATE TABLE t (id INT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecContext(ctx, `INSERT INTO t VALUES (1, 'hello')`); err != nil {
		t.Fatal(err)
	}

	tree := waitForTrace(t, db, func(n *SpanNode) bool {
		return len(n.Tiers()) >= 3 && hasSpan(n, "engine.commit")
	})
	tiers := tree.Tiers()
	t.Logf("commit trace (tiers %v):\n%s", tiers, tree.Format())

	want := map[string]bool{"compute": false, "lz": false, "xlog": false}
	for _, tier := range tiers {
		if _, ok := want[tier]; ok {
			want[tier] = true
		}
	}
	for tier, seen := range want {
		if !seen {
			t.Errorf("span tree missing tier %q (got %v)", tier, tiers)
		}
	}

	// Every span in the tree must carry nonzero attributed time.
	var walk func(*SpanNode)
	walk = func(n *SpanNode) {
		if n.Name != "trace" && n.Duration <= 0 {
			t.Errorf("span %s [%s] has no attributed time", n.Name, n.Tier)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tree)

	// The tree must be parented, not a flat bag: the commit span owns the
	// landing-zone write, which owns the XLOG promotion.
	if !hasPath(tree, "engine.commit", "lz.write") {
		t.Errorf("lz.write is not a descendant of engine.commit:\n%s", tree.Format())
	}
}

// TestGetPageSpanAndMetrics drives a cache miss on a fresh secondary and
// checks that GetPage@LSN produces spans on both sides of the wire and
// that the per-tier registry captured the latency histograms.
func TestGetPageSpanAndMetrics(t *testing.T) {
	db := openFast(t, Config{Name: "trace2", Secondaries: 1})
	ctx := context.Background()
	if _, err := db.ExecContext(ctx, `CREATE TABLE t (id INT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := db.ExecContext(ctx, insertRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.WaitForReplication(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	sess, err := db.ReadSession(db.Secondaries()[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ExecContext(ctx, `SELECT v FROM t WHERE id = 25`); err != nil {
		t.Fatal(err)
	}
	// XStore's writes are the XLOG destager's LT appends, made on its tick.
	destaged := db.cluster.Watermarks.Watermark(obs.WMDestaged, "")
	deadline := time.Now().Add(5 * time.Second)
	if err := db.cluster.Waits.Tier(obs.TierXLOG).AwaitLSN(ctx, obs.WaitXLOGFeed, destaged, db.cluster.LZ.HardenedEnd().Uint64(), deadline); err != nil {
		t.Fatal(err)
	}

	snap := db.MetricsSnapshot()
	if h := snap.Compute.Histograms["getpage.latency"]; h.Count == 0 {
		t.Error("compute getpage.latency histogram is empty")
	}
	if h := snap.PageServer.Histograms["getpage.latency"]; h.Count == 0 {
		t.Error("pageserver getpage.latency histogram is empty")
	}
	if h := snap.Compute.Histograms["commit.latency"]; h.Count == 0 {
		t.Error("compute commit.latency histogram is empty")
	}
	if h := snap.LandingZone.Histograms["write.latency"]; h.Count == 0 {
		t.Error("lz write.latency histogram is empty")
	}
	if c := snap.XStore.Counters["write.ops"]; c == 0 {
		t.Error("xstore write.ops counter is zero")
	}

	// The getpage trace must cross compute and pageserver.
	tree := waitForTrace(t, db, func(n *SpanNode) bool {
		return hasPath(n, "compute.getpage", "pageserver.getpage")
	})
	t.Logf("getpage trace:\n%s", tree.Format())
}

// TestContextCancellationMapsToTimeout checks the typed-error taxonomy on
// the ctx-first surface: an already-expired context surfaces ErrTimeout.
func TestContextCancellationMapsToTimeout(t *testing.T) {
	db := openFast(t, Config{Name: "trace3"})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if err := db.WaitForReplicationContext(ctx); !errors.Is(err, ErrTimeout) {
		t.Errorf("WaitForReplicationContext(expired) = %v, want ErrTimeout", err)
	}
	if _, err := db.FailoverContext(ctx); !errors.Is(err, ErrTimeout) {
		t.Errorf("FailoverContext(expired) = %v, want ErrTimeout", err)
	}
	if _, err := db.ReadSession("nope"); !errors.Is(err, ErrNoSecondary) {
		t.Errorf("ReadSession(unknown) = %v, want ErrNoSecondary", err)
	}
}

// TestPerRequestWaitAttribution is the wait-stats acceptance test: a
// committed INSERT's Result carries its own wait breakdown (the
// EXPLAIN-ANALYZE of waits), the hardening wait lands on the commit
// subtree of the traced span tree, and the deployment-wide sketch saw the
// same classes. Runs on a real XIO landing zone (no Fast) so the commit
// genuinely blocks in WaitHarden.
func TestPerRequestWaitAttribution(t *testing.T) {
	db, err := Open(Config{Name: "waits1"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	ctx := context.Background()
	if _, err := db.ExecContext(ctx, `CREATE TABLE t (id INT PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}

	var hardened *Result
	for i := 0; i < 8; i++ {
		res, err := db.ExecContext(ctx, insertRow(i))
		if err != nil {
			t.Fatal(err)
		}
		if res.WaitTotal <= 0 || len(res.Waits) == 0 {
			t.Fatalf("insert %d: Waits=%+v WaitTotal=%v, want a nonzero breakdown", i, res.Waits, res.WaitTotal)
		}
		var sum time.Duration
		for _, st := range res.Waits {
			sum += time.Duration(st.TotalNS)
			if st.Class == "commit.harden" && hardened == nil {
				hardened = res
			}
		}
		if sum != res.WaitTotal {
			t.Fatalf("insert %d: breakdown sums to %v but WaitTotal=%v", i, sum, res.WaitTotal)
		}
	}
	// On a 2.8ms-write landing zone every commit blocks in WaitHarden; at
	// minimum one of the eight must attribute it.
	if hardened == nil {
		t.Fatal("no insert attributed commit.harden in its per-request breakdown")
	}
	t.Logf("per-request breakdown: %+v (total %v)", hardened.Waits, hardened.WaitTotal)

	// The same wait must land on the commit subtree of the traced tree:
	// "commit.harden 612µs" on the span that blocked, not a global bucket.
	tree := waitForTrace(t, db, func(n *SpanNode) bool {
		commit := spans.Find(n, "engine.commit")
		return commit != nil && spans.WaitTotals(commit)["commit.harden"] > 0
	})
	totals := spans.WaitTotals(spans.Find(tree, "engine.commit"))
	t.Logf("engine.commit subtree waits: %v", totals)

	// And the deployment-wide sketch saw the class too, attributed to the
	// compute tier.
	rep := db.WaitReport()
	found := false
	for _, st := range rep.Tiers["compute"] {
		if st.Class == "commit.harden" && st.Count > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("compute tier sketch missing commit.harden: %+v", rep.Tiers)
	}
}

func insertRow(i int) string {
	return fmt.Sprintf("INSERT INTO t VALUES (%d, 'row-%d')", i, i)
}

func hasSpan(n *SpanNode, name string) bool {
	if n == nil {
		return false
	}
	if n.Name == name {
		return true
	}
	for _, c := range n.Children {
		if hasSpan(c, name) {
			return true
		}
	}
	return false
}

// hasPath reports whether a node named child is a descendant of a node
// named parent.
func hasPath(n *SpanNode, parent, child string) bool {
	if n == nil {
		return false
	}
	if n.Name == parent {
		return hasSpan(n, child) && n.Name != child
	}
	for _, c := range n.Children {
		if hasPath(c, parent, child) {
			return true
		}
	}
	return false
}
