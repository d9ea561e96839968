// Package obs is the observability spine of the repo: a zero-dependency
// tracing and metrics subsystem modeled on what Socrates' §7 evaluation
// needs — cross-tier latency breakdowns (commit time split across the
// landing zone, XLOG dissemination, and page-server apply; GetPage@LSN
// split across RBPEX miss, RBIO round-trip, and page-server read).
//
// The design is deliberately small:
//
//   - A Span is a named interval with a tier label, parent link, and
//     free-form attributes. Spans form trees keyed by TraceID.
//   - A Tracer owns bounded per-trace storage; finished spans are
//     retrievable as a tree (Trace) or flat list.
//   - SpanContext (TraceID, SpanID) travels inside context.Context and —
//     across process-shaped boundaries — inside RBIO trace headers.
//   - A Registry holds named counters, gauges, and bounded
//     exponential-bucket histograms that every tier registers into.
//
// All types are nil-safe: a nil *Tracer, *Span, or *Registry accepts the
// full method set and does nothing, so code paths constructed without
// observability wiring (most unit tests) pay nothing and need no guards.
package obs

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tier labels used across the repo. Spans and metrics are namespaced by
// these so exports can be grouped per tier (§2 of the paper: compute,
// XLOG, page servers, XStore; the landing zone is called out separately
// because commit latency is dominated by it).
const (
	TierCompute    = "compute"
	TierLZ         = "lz"
	TierXLOG       = "xlog"
	TierPageServer = "pageserver"
	TierXStore     = "xstore"
)

// TraceID identifies one request tree (one commit, one GetPage@LSN, ...).
type TraceID uint64

// SpanID identifies one span within a trace.
type SpanID uint64

// SpanContext is the wire-size identity of a span: what RBIO carries
// in its frame header and what context.Context carries between tiers.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// Valid reports whether the context names a real trace.
func (sc SpanContext) Valid() bool { return sc.TraceID != 0 }

// spanKey is the one context key of a request's observability. Its value
// is the innermost live *Span started in-process, or — past a wire hop —
// the bare SpanContext read from the frame, which shadows whatever span
// the caller's context held: a remote tier never sees a foreign
// process's span.
type spanKey struct{}

// ContextWithSpan returns ctx carrying sc as its span, shadowing any span
// ctx already held. An invalid sc on a context holding no span returns
// ctx unchanged, so an untraced request crosses a hop without allocating.
//
//socrates:hotpath the wire hop on every served request; TestUntracedHopAllocs
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() && ctx.Value(spanKey{}) == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sc)
}

// SpanFromContext extracts the span identity from ctx (zero if absent).
func SpanFromContext(ctx context.Context) SpanContext {
	if ctx == nil {
		return SpanContext{}
	}
	switch v := ctx.Value(spanKey{}).(type) {
	case *Span:
		return v.Context()
	case SpanContext:
		return v
	}
	return SpanContext{}
}

// Span is one recorded interval. Fields are written only by the owning
// goroutine until End, after which the span is immutable and owned by
// the tracer.
type Span struct {
	tracer *Tracer

	Trace    TraceID
	ID       SpanID
	Parent   SpanID
	Name     string
	Tier     string
	Start    time.Time
	Duration time.Duration
	Attrs    map[string]string

	// parent is the in-process parent span; nil at a root and past a
	// wire hop. RecordWait walks it so a span's waits are inclusive.
	parent *Span

	mu    sync.Mutex
	ended bool

	// Wait attribution: accumulated under mu until End, immutable after.
	// Fixed arrays keep RecordWait allocation-free on hot paths. Like
	// Duration, the waits include those of in-process descendants.
	waitCounts [numWaitClasses]uint32
	waitNS     [numWaitClasses]uint64
	hasWaits   bool
}

// Context returns the span's identity for propagation.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.Trace, SpanID: s.ID}
}

// SetAttr attaches a key/value attribute to the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		if s.Attrs == nil {
			s.Attrs = make(map[string]string, 4)
		}
		s.Attrs[key] = value
	}
	s.mu.Unlock()
}

// RecordWait attributes one wait of class c to the span and to each of
// its in-process ancestors, so a span's waits are inclusive like its
// Duration. WaitPoints call it through the context's live span; a span
// that has ended takes no more waits (it is already immutable in the
// tracer).
//
//socrates:hotpath runs under every WaitPoint on a traced path; TestMuxCallAllocs (traced Call)
func (s *Span) RecordWait(c WaitClass, d time.Duration) {
	if int(c) >= numWaitClasses {
		return
	}
	if d < 0 {
		d = 0
	}
	for ; s != nil; s = s.parent {
		s.mu.Lock()
		if !s.ended {
			s.waitCounts[c]++
			s.waitNS[c] += uint64(d)
			s.hasWaits = true
		}
		s.mu.Unlock()
	}
}

// WaitBreakdown exports the span's waits, its in-process descendants'
// included, sorted by descending total. Safe at any time; final once
// the span has ended.
func (s *Span) WaitBreakdown() []WaitClassStat {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.hasWaits {
		return nil
	}
	out := make([]WaitClassStat, 0, 4)
	for i, n := range s.waitCounts {
		if n == 0 {
			continue
		}
		out = append(out, WaitClassStat{
			Class:   WaitClass(i).String(),
			Count:   uint64(n),
			TotalNS: s.waitNS[i],
		})
	}
	return sortByTotal(out)
}

// SetError records err on the span (no-op for nil err).
func (s *Span) SetError(err error) {
	if err == nil {
		return
	}
	s.SetAttr("error", err.Error())
}

// End finishes the span with wall-clock duration and hands it to the
// tracer. End is idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.EndWith(time.Since(s.Start))
}

// EndWith finishes the span attributing the given duration — used when
// the interesting time is simulated-device time rather than wall clock.
func (s *Span) EndWith(d time.Duration) {
	if s == nil || s.tracer == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	if d < 0 {
		d = 0
	}
	s.Duration = d
	s.mu.Unlock()
	s.tracer.record(s)
}

// Tracer collects finished spans into bounded per-trace storage. The
// zero value is NOT usable; call NewTracer. A nil *Tracer is a valid
// no-op sink.
type Tracer struct {
	mu        sync.Mutex
	traces    map[TraceID][]*Span
	order     []TraceID // insertion order for eviction
	maxTraces int
	maxSpans  int // per trace
	nextID    atomic.Uint64
	rng       func() uint64
}

// NewTracer builds an empty tracer that keeps the 256 newest traces (the
// oldest is evicted first) and up to 512 spans of each.
func NewTracer() *Tracer {
	return &Tracer{
		traces:    make(map[TraceID][]*Span),
		maxTraces: 256,
		maxSpans:  512,
		rng:       rand.Uint64,
	}
}

func (t *Tracer) newSpanID() SpanID {
	return SpanID(t.nextID.Add(1))
}

// StartSpan begins a span named name in the given tier. If ctx already
// carries a span identity the new span becomes its child and shares the
// trace; otherwise a fresh trace is started. The returned context
// carries the new span, one context node on top of ctx.
//
//socrates:hotpath every traced statement, commit and GetPage starts one; TestStartSpanAllocs
func (t *Tracer) StartSpan(ctx context.Context, tier, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	s := &Span{
		tracer: t,
		Name:   name,
		Tier:   tier,
		Start:  time.Now(),
		ID:     t.newSpanID(),
	}
	var parent SpanContext
	switch v := ctx.Value(spanKey{}).(type) {
	case *Span:
		s.parent, parent = v, v.Context()
	case SpanContext:
		parent = v
	}
	if parent.Valid() {
		s.Trace = parent.TraceID
		s.Parent = parent.SpanID
	} else {
		id := t.rng()
		if id == 0 {
			id = 1
		}
		s.Trace = TraceID(id)
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// JoinSpan starts a span only when ctx already carries trace identity;
// otherwise it returns ctx unchanged and a nil span (all Span methods
// are nil-safe). Interior tiers use it so continuous background traffic
// — log feeds, consumer pulls, untraced benchmark commits — cannot root
// fresh traces and flood the retention ring. Traces root at the request
// entry point (or an explicit caller span), nowhere else.
func (t *Tracer) JoinSpan(ctx context.Context, tier, name string) (context.Context, *Span) {
	if t == nil || !SpanFromContext(ctx).Valid() {
		return ctx, nil
	}
	return t.StartSpan(ctx, tier, name)
}

// StartRemoteSpan begins a span whose parent identity arrived over the
// wire (an RBIO trace header) rather than through a context.
func (t *Tracer) StartRemoteSpan(parent SpanContext, tier, name string) (context.Context, *Span) {
	if t == nil {
		return context.Background(), nil
	}
	return t.StartSpan(ContextWithSpan(context.Background(), parent), tier, name)
}

func (t *Tracer) record(s *Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans, ok := t.traces[s.Trace]
	if !ok {
		if len(t.order) >= t.maxTraces {
			evict := t.order[0]
			t.order = t.order[1:]
			delete(t.traces, evict)
		}
		t.order = append(t.order, s.Trace)
	}
	if len(spans) < t.maxSpans {
		t.traces[s.Trace] = append(spans, s)
	} else {
		t.traces[s.Trace] = spans // trace over budget: drop span
	}
}

// Spans returns the finished spans of a trace in completion order.
func (t *Tracer) Spans(id TraceID) []*Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.traces[id]...)
}

// TraceIDs returns the retained trace IDs, oldest first.
func (t *Tracer) TraceIDs() []TraceID {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]TraceID(nil), t.order...)
}

// SpanNode is one node of an exported span tree.
type SpanNode struct {
	Name     string            `json:"name"`
	Tier     string            `json:"tier"`
	Start    time.Time         `json:"start"`
	Duration time.Duration     `json:"duration_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Waits    []WaitClassStat   `json:"waits,omitempty"`
	Children []*SpanNode       `json:"children,omitempty"`
}

// Tiers returns the distinct tier labels present in the subtree rooted
// at n, sorted.
func (n *SpanNode) Tiers() []string {
	set := map[string]bool{}
	var walk func(*SpanNode)
	walk = func(m *SpanNode) {
		if m == nil {
			return
		}
		if m.Tier != "" {
			set[m.Tier] = true
		}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(n)
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Trace assembles the span tree for a trace ID. Spans whose parent was
// not retained (evicted, or still running) surface as additional roots;
// when a trace has several roots they are joined under a synthetic
// "trace" node so callers always get one tree.
func (t *Tracer) Trace(id TraceID) *SpanNode {
	spans := t.Spans(id)
	if len(spans) == 0 {
		return nil
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	nodes := make(map[SpanID]*SpanNode, len(spans))
	for _, s := range spans {
		nodes[s.ID] = &SpanNode{
			Name: s.Name, Tier: s.Tier, Start: s.Start,
			Duration: s.Duration, Attrs: s.Attrs,
			Waits: s.WaitBreakdown(),
		}
	}
	var roots []*SpanNode
	for _, s := range spans {
		n := nodes[s.ID]
		if p, ok := nodes[s.Parent]; ok && s.Parent != s.ID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	if len(roots) == 1 {
		return roots[0]
	}
	return &SpanNode{Name: "trace", Start: roots[0].Start, Children: roots}
}

// Format renders the subtree rooted at n as indented text; see Format.
// It is nil-safe and returns "" for a nil node.
func (n *SpanNode) Format() string { return Format(n) }

// Format renders a span tree as indented text, one span per line:
//
//	commit.exec [compute] 1.2ms
//	  lz.write [lz] 600µs
func Format(n *SpanNode) string {
	var b strings.Builder
	var walk func(*SpanNode, int)
	walk = func(m *SpanNode, depth int) {
		if m == nil {
			return
		}
		b.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&b, "%s [%s] %v", m.Name, m.Tier, m.Duration)
		for _, w := range m.Waits {
			fmt.Fprintf(&b, " wait:%s=%v", w.Class, time.Duration(w.TotalNS))
		}
		if len(m.Attrs) > 0 {
			keys := make([]string, 0, len(m.Attrs))
			for k := range m.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, " %s=%s", k, m.Attrs[k])
			}
		}
		b.WriteByte('\n')
		for _, c := range m.Children {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return b.String()
}
