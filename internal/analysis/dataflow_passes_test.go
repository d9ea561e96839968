package analysis

import (
	"go/ast"
	"go/types"
	"strings"
	"testing"
)

// fixtureDeadlockLint is deadlocklint configured for its fixtures: the
// fixture package is the fabric, os the I/O package.
func fixtureDeadlockLint() *deadlockLint {
	return &deadlockLint{fabricPkgs: []string{"fixture/deadlocklint"}, ioPkgs: []string{"os"}}
}

func TestDeadlockLintFixtures(t *testing.T) {
	runFixturePair(t, fixtureDeadlockLint(), "deadlocklint", 2, "lock")
}

// TestLockLintFixtures runs deadlocklint's per-function lock-discipline
// checks (leaked critical sections, sends and I/O under a lock) over their
// own fixture pair.
func TestLockLintFixtures(t *testing.T) {
	runFixturePair(t, fixtureDeadlockLint(), "locklint", 3, "lock")
}

// TestDeadlockLintFindsBothShapes pins the two failure modes to the bad
// fixture: exactly one lock-order cycle and one fabric-call-under-lock.
func TestDeadlockLintFindsBothShapes(t *testing.T) {
	loader := newLoader(t)
	bad := loadFixture(t, loader, "deadlocklint/bad")
	diags := fixtureDeadlockLint().Run(bad)
	var cycles, fabric int
	for _, d := range diags {
		switch {
		case strings.Contains(d.Message, "lock-order cycle"):
			cycles++
			for _, lock := range []string{"bad.A.mu", "bad.B.mu"} {
				if !strings.Contains(d.Message, lock) {
					t.Errorf("cycle message missing %s: %s", lock, d.Message)
				}
			}
		case strings.Contains(d.Message, "fabric"):
			fabric++
		}
	}
	if cycles != 1 || fabric != 1 {
		t.Fatalf("deadlocklint shapes: cycles=%d fabric=%d\n%s", cycles, fabric, render(diags))
	}
}

// TestDeadlockLintFindsLockDisciplineSites pins the three per-function
// lock-discipline checks to their bad-fixture sites, so a regression in one
// cannot hide behind another: one leaked critical section, one send and one
// I/O call under a lock.
func TestDeadlockLintFindsLockDisciplineSites(t *testing.T) {
	loader := newLoader(t)
	bad := loadFixture(t, loader, "locklint/bad")
	var leaks, sends, io int
	for _, d := range fixtureDeadlockLint().Run(bad) {
		switch {
		case strings.Contains(d.Message, "bad.Cache.mu is locked but never unlocked in Leak"):
			leaks++
		case strings.Contains(d.Message, "channel send while bad.Cache.mu is held"):
			sends++
		case strings.Contains(d.Message, "I/O call into os while bad.Cache.mu is held"):
			io++
		}
	}
	if leaks != 1 || sends != 1 || io != 1 {
		t.Fatalf("deadlocklint lock discipline: leaks=%d sends=%d io=%d", leaks, sends, io)
	}
}

func TestLeakLintFixtures(t *testing.T) {
	runFixturePair(t, newLeakLint(), "leaklint", 3, "leak-ok")
}

func TestWaitLintFixtures(t *testing.T) {
	pass := &waitLint{packages: []string{"fixture/waitlint"}}
	runFixturePair(t, pass, "waitlint", 9, "WaitPoint region")
}

// TestWaitLintFindsExactShapes pins the nine wait shapes the bad fixture
// plants, including the two region-dataflow ones: a region ended before
// the wait, and a region opened on only one branch.
func TestWaitLintFindsExactShapes(t *testing.T) {
	loader := newLoader(t)
	bad := loadFixture(t, loader, "waitlint/bad")
	pass := &waitLint{packages: []string{"fixture/waitlint"}}
	diags := pass.Run(bad)
	if len(diags) != 9 {
		t.Fatalf("waitlint on bad fixture: got %d findings, want 9\n%s", len(diags), render(diags))
	}
	byFunc := make(map[string]int)
	for _, fn := range []string{"Pop", "Poll", "Backoff", "Tick", "Push", "Closed", "OneArm", "Unrecorded", "UnrecordedRung"} {
		for _, d := range diags {
			if strings.Contains(d.Message, " in "+fn+" ") {
				byFunc[fn]++
			}
		}
		if byFunc[fn] != 1 {
			t.Errorf("waitlint findings in %s: got %d, want 1\n%s", fn, byFunc[fn], render(diags))
		}
	}
}

// TestWaitLintSeesTheSharedWait pins the shared bounded wait, and its form
// on a rung of the LSN ladder, as blocking sites: the bad fixture's CondWait
// and AwaitLSN charged to WaitNone, with no review, are one finding each at
// the call's line; the clean fixture's calls with a class (Await,
// AwaitRung) and its reviewed WaitNone ones (Idle, IdleRung) are none.
func TestWaitLintSeesTheSharedWait(t *testing.T) {
	loader := newLoader(t)
	pass := &waitLint{packages: []string{"fixture/waitlint"}}
	diags := pass.Run(loadFixture(t, loader, "waitlint/bad"))
	for _, want := range []struct {
		method, fn string
		line       int
	}{{"CondWait", "Unrecorded", 115}, {"AwaitLSN", "UnrecordedRung", 122}} {
		var found []diagnostic
		for _, d := range diags {
			if strings.Contains(d.Message, want.method+" charged to WaitNone") {
				found = append(found, d)
			}
		}
		if len(found) != 1 || !strings.Contains(found[0].Message, " in "+want.fn+" ") || found[0].Pos.Line != want.line {
			t.Fatalf("want one %s finding in %s at line %d, got:\n%s", want.method, want.fn, want.line, render(found))
		}
	}
	if diags := pass.Run(loadFixture(t, loader, "waitlint/clean")); len(diags) != 0 {
		t.Fatalf("clean fixture: want no findings, got:\n%s", render(diags))
	}
}

// TestLeakLintFindsExactShapes pins the three leak shapes: the literal
// goroutine, the named goroutine, and the ticker with one leaky exit.
func TestLeakLintFindsExactShapes(t *testing.T) {
	loader := newLoader(t)
	bad := loadFixture(t, loader, "leaklint/bad")
	diags := newLeakLint().Run(bad)
	var stopPath, ticker int
	for _, d := range diags {
		switch {
		case strings.Contains(d.Message, "no reachable stop path"):
			stopPath++
		case strings.Contains(d.Message, "not Stop()ed on every exit path"):
			ticker++
		}
	}
	if stopPath != 2 || ticker != 1 {
		t.Fatalf("leaklint shapes: stopPath=%d ticker=%d\n%s", stopPath, ticker, render(diags))
	}
}

// TestDirectiveMultilineStatement is the regression test for directives
// above statements that span lines: the flagged node starts on a
// continuation line, and the directive above the statement must still
// cover it — but only within that statement.
func TestDirectiveMultilineStatement(t *testing.T) {
	loader := newLoader(t)
	pkg := loadFixture(t, loader, "directives/multiline")

	var calls []*ast.CallExpr
	for _, f := range pkg.files {
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sprintf" {
					calls = append(calls, call)
				}
			}
			return true
		})
	}
	if len(calls) != 3 {
		t.Fatalf("fixture should contain 3 Sprintf calls, found %d", len(calls))
	}
	if !pkg.directiveAt("sleep-ok", calls[0]) {
		t.Error("directive above multi-line statement does not cover its continuation-line call")
	}
	if !pkg.directiveAt("sleep-ok", calls[1]) || !pkg.directiveAt("ignore-err", calls[1]) {
		t.Error("stacked directives do not both bind to the statement below them")
	}
	if pkg.directiveAt("sleep-ok", calls[2]) {
		t.Error("directive leaked into the unannotated function")
	}
}

// TestCallGraph checks static edges and transitive reachability on the
// Top → Mid → Leaf fixture.
func TestCallGraph(t *testing.T) {
	loader := newLoader(t)
	pkg := loadFixture(t, loader, "callgraph/pkg")
	g := buildCallGraph([]*Package{pkg})

	fn := func(name string) *types.Func {
		obj := pkg.pkg.Scope().Lookup(name)
		if obj == nil {
			t.Fatalf("fixture missing func %s", name)
		}
		return obj.(*types.Func)
	}
	top, mid, leaf, solo, closure := fn("Top"), fn("Mid"), fn("Leaf"), fn("Solo"), fn("Closure")

	hasEdge := func(from, to *types.Func) bool {
		for _, c := range g.callees[from] {
			if c == to {
				return true
			}
		}
		return false
	}
	if !hasEdge(top, mid) || !hasEdge(mid, leaf) {
		t.Fatal("missing static call edges Top→Mid or Mid→Leaf")
	}
	if !hasEdge(closure, leaf) {
		t.Fatal("call inside a function literal not attributed to the enclosing function")
	}

	reaches := g.reaches(func(f *types.Func) bool { return f == leaf })
	if !reaches[top] || !reaches[mid] || !reaches[closure] {
		t.Fatalf("reachability incomplete: %v", reaches)
	}
	if reaches[solo] || reaches[leaf] {
		t.Fatalf("reachability over-approximates: solo=%v leaf=%v", reaches[solo], reaches[leaf])
	}
}

// TestAllPassesCount pins the suite size: four AST passes plus the three
// dataflow-aware ones.
func TestAllPassesCount(t *testing.T) {
	passes := AllPasses()
	if len(passes) != 7 {
		t.Fatalf("AllPasses: got %d, want 7", len(passes))
	}
	names := make(map[string]bool)
	for _, p := range passes {
		names[p.Name()] = true
	}
	for _, want := range []string{"deadlocklint", "leaklint", "waitlint"} {
		if !names[want] {
			t.Fatalf("AllPasses missing %s", want)
		}
	}
}
