package obs

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"socrates/internal/testutil"
)

func TestSpanTreeAcrossTiers(t *testing.T) {
	tr := NewTracer()
	ctx, root := tr.StartSpan(context.Background(), TierCompute, "commit.exec")
	ctx2, child := tr.StartSpan(ctx, TierLZ, "lz.write")
	if SpanFromContext(ctx2).TraceID != root.trace {
		t.Fatalf("child context lost trace id")
	}
	_, grand := tr.StartSpan(ctx2, TierXLOG, "xlog.feed")
	grand.SetAttr("blocks", "3")
	grand.endWith(5 * time.Millisecond)
	child.End()
	root.End()

	tree := tr.Trace(root.trace)
	if tree == nil {
		t.Fatal("no tree")
	}
	if tree.Name != "commit.exec" {
		t.Fatalf("root = %q", tree.Name)
	}
	tiers := tree.Tiers()
	want := []string{TierCompute, TierLZ, TierXLOG}
	if len(tiers) != len(want) {
		t.Fatalf("tiers = %v, want %v", tiers, want)
	}
	for i := range want {
		if tiers[i] != want[i] {
			t.Fatalf("tiers = %v, want %v", tiers, want)
		}
	}
	text := tree.Format()
	if !strings.Contains(text, "xlog.feed [xlog] 5ms blocks=3") {
		t.Fatalf("format missing attributed span:\n%s", text)
	}
}

func TestRemoteSpanJoinsTrace(t *testing.T) {
	tr := NewTracer()
	ctx, root := tr.StartSpan(context.Background(), TierCompute, "getpage")
	// Simulate a wire hop: only the SpanContext crosses.
	wire := SpanFromContext(ctx)
	_, remote := tr.StartRemoteSpan(wire, TierPageServer, "pageserver.getpage")
	remote.endWith(time.Millisecond)
	root.End()
	tree := tr.Trace(root.trace)
	if len(tree.Children) != 1 || tree.Children[0].Tier != TierPageServer {
		t.Fatalf("remote span not parented: %s", tree.Format())
	}
}

// TestSpanWaitsAreInclusive pins per-request attribution: a wait under a
// child span lands on the child and on its root, each once, and a wait
// under a context rebuilt with ContextWithSpan — what a wire hop hands
// its handler — reaches neither, even though the context it was built
// from held the child.
func TestSpanWaitsAreInclusive(t *testing.T) {
	tr := NewTracer()
	rec := NewWaitSet().Tier(TierCompute)
	ctx, root := tr.StartSpan(context.Background(), TierCompute, "sql.exec")
	cctx, child := tr.StartSpan(ctx, TierCompute, "engine.commit")
	rec.Observe(cctx, WaitCommitHarden, 3*time.Millisecond)
	hop := ContextWithSpan(cctx, child.Context())
	rec.Observe(hop, WaitXLOGFeed, 5*time.Millisecond)
	if got := SpanFromContext(hop); got != child.Context() {
		t.Fatalf("hop context names %+v, want %+v", got, child.Context())
	}
	child.End()
	rec.Observe(cctx, WaitLockRow, time.Millisecond) // after End: root only
	root.End()

	tree := tr.Trace(root.trace)
	if len(tree.Children) != 1 || tree.Children[0].Name != "engine.commit" {
		t.Fatalf("want one engine.commit child:\n%s", tree.Format())
	}
	for _, tc := range []struct {
		node *SpanNode
		want map[string]time.Duration
	}{
		{tree.Children[0], map[string]time.Duration{"commit.harden": 3 * time.Millisecond}},
		{tree, map[string]time.Duration{"commit.harden": 3 * time.Millisecond, "lock.row": time.Millisecond}},
	} {
		got := map[string]time.Duration{}
		for _, w := range tc.node.Waits {
			got[w.Class] += time.Duration(w.TotalNS)
		}
		if len(got) != len(tc.want) {
			t.Fatalf("%s waits = %v, want %v", tc.node.Name, got, tc.want)
		}
		for class, d := range tc.want {
			if got[class] != d {
				t.Fatalf("%s waits = %v, want %v", tc.node.Name, got, tc.want)
			}
		}
	}
}

// TestStartSpanAllocs is the allocation contract for a child span under
// a live span: the span itself and one context node. Three attributes
// add nothing: they sit in the span.
func TestStartSpanAllocs(t *testing.T) {
	testutil.SkipIfRace(t)
	tr := NewTracer()
	ctx, root := tr.StartSpan(context.Background(), TierCompute, "root")
	defer root.End()
	avg := testing.AllocsPerRun(200, func() { tr.StartSpan(ctx, TierCompute, "child") })
	if avg > 2 {
		t.Fatalf("StartSpan under a live span: %.1f allocs, budget 2", avg)
	}
	withAttrs := testing.AllocsPerRun(200, func() {
		_, s := tr.StartSpan(ctx, TierCompute, "child")
		s.SetAttr("page", "7")
		s.SetAttr("readahead", "true")
		s.SetAttr("error", "x")
	})
	if withAttrs > avg {
		t.Fatalf("StartSpan and three SetAttr: %.1f allocs, StartSpan alone %.1f", withAttrs, avg)
	}
}

// TestSpanAttrsExport pins what a span's attributes export as: a key set
// twice keeps its last value, a fourth attribute and an error set after
// three are kept, one set after End is not, and Trace and Format read
// them as the map they are exported as.
func TestSpanAttrsExport(t *testing.T) {
	tr := NewTracer()
	ctx, root := tr.StartSpan(context.Background(), TierCompute, "root")
	_, four := tr.StartSpan(ctx, TierCompute, "four")
	for _, kv := range [][2]string{{"d", "1"}, {"c", "2"}, {"b", "3"}, {"d", "4"}, {"a", "5"}} {
		four.SetAttr(kv[0], kv[1])
	}
	four.End()
	four.SetAttr("late", "x")
	_, failed := tr.StartSpan(ctx, TierCompute, "failed")
	failed.SetAttr("page", "7")
	failed.SetAttr("readahead", "true")
	failed.SetAttr("coalesced", "true")
	failed.SetError(errors.New("torn"))
	failed.End()
	root.End()

	tree := tr.Trace(root.trace)
	if len(tree.Children) != 2 {
		t.Fatalf("want two children:\n%s", tree.Format())
	}
	if tree.Attrs != nil {
		t.Fatalf("root attrs = %v, want nil", tree.Attrs)
	}
	want := map[string]map[string]string{
		"four":   {"a": "5", "b": "3", "c": "2", "d": "4"},
		"failed": {"page": "7", "readahead": "true", "coalesced": "true", "error": "torn"},
	}
	for _, c := range tree.Children {
		if len(c.Attrs) != len(want[c.Name]) {
			t.Fatalf("%s attrs = %v, want %v", c.Name, c.Attrs, want[c.Name])
		}
		for k, v := range want[c.Name] {
			if c.Attrs[k] != v {
				t.Fatalf("%s attrs = %v, want %v", c.Name, c.Attrs, want[c.Name])
			}
		}
	}
	text := tree.Format()
	for _, line := range []string{
		" a=5 b=3 c=2 d=4\n",
		" coalesced=true error=torn page=7 readahead=true\n",
	} {
		if !strings.Contains(text, line) {
			t.Fatalf("format lacks %q:\n%s", line, text)
		}
	}
}

func TestTracerEviction(t *testing.T) {
	tr := NewTracer()
	tr.maxTraces = 2
	var ids []TraceID
	for i := 0; i < 3; i++ {
		_, s := tr.StartSpan(context.Background(), TierCompute, "op")
		s.End()
		ids = append(ids, s.trace)
	}
	if got := tr.Trace(ids[0]); got != nil {
		t.Fatal("oldest trace should be evicted")
	}
	if got := tr.Trace(ids[2]); got == nil {
		t.Fatal("newest trace missing")
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	ctx, s := tr.StartSpan(context.Background(), TierCompute, "noop")
	s.SetAttr("k", "v")
	s.SetError(errors.New("x"))
	s.End()
	if SpanFromContext(ctx).Valid() {
		t.Fatal("nil tracer must not mint span contexts")
	}
	var r *Registry
	r.Counter("c").Inc()
	r.Gauge("g").Set(1)
	r.Histogram("h").Observe(time.Millisecond)
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot has instruments: %+v", s)
	}
}

func TestRegistryHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("pageserver.getpage.latency")
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i+1) * 100 * time.Microsecond) // 100µs..10ms
	}
	s := h.summary()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Min != 100*time.Microsecond || s.Max != 10*time.Millisecond {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.P50 < time.Millisecond || s.P50 > 16*time.Millisecond {
		t.Fatalf("p50 = %v out of plausible bucket range", s.P50)
	}
	if s.P99 < s.P50 {
		t.Fatalf("p99 %v < p50 %v", s.P99, s.P50)
	}
	r.Counter("compute.commits").Add(7)
	r.Gauge("xlog.pending").Set(3)
	snap := r.Snapshot()
	if snap.Counters["compute.commits"] != 7 {
		t.Fatalf("counter missing: %+v", snap.Counters)
	}
	if snap.Gauges["xlog.pending"] != 3 {
		t.Fatalf("gauge missing: %+v", snap.Gauges)
	}
	if !strings.Contains(snap.JSON(), "pageserver.getpage.latency") {
		t.Fatal("JSON export missing histogram")
	}
	if n := len(snap.Counters) + len(snap.Gauges) + len(snap.Histograms); n != 3 {
		t.Fatalf("%d instruments, want 3: %s", n, snap.JSON())
	}
}

func TestMultiRootTrace(t *testing.T) {
	tr := NewTracer()
	ctx, a := tr.StartSpan(context.Background(), TierXLOG, "xlog.feed")
	a.End()
	// A sibling root in the same trace whose parent span was never
	// recorded (e.g. the client crashed before End).
	orphanParent := SpanContext{TraceID: SpanFromContext(ctx).TraceID, SpanID: 9999}
	_, b := tr.StartRemoteSpan(orphanParent, TierPageServer, "apply")
	b.End()
	tree := tr.Trace(a.trace)
	if tree.Name != "trace" || len(tree.Children) != 2 {
		t.Fatalf("expected synthetic root with 2 children:\n%s", tree.Format())
	}
}
