package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// waitLint enforces the wait-accounting discipline the wait-stats plane
// depends on: in the instrumented tier packages, every site that can block
// a request must either be covered by a WaitPoint region — so the blocked
// time lands in a wait class — or carry a reviewed //socrates:wait-ok
// <reason> explaining why recording it would pollute the taxonomy (idle
// loops, cadence ticks, waits whose time is charged elsewhere as a running
// total).
//
// Four site kinds are checked:
//
//  1. (*sync.Cond).Wait calls — the canonical blocking primitive behind
//     commit hardening, apply watermarks, and backpressure throttles.
//  2. Timer-driven channel receives: `<-time.After(d)`, and `<-t.C` for a
//     time.Ticker/time.Timer — whether standalone or as a select case
//     (the select itself is flagged, once).
//  3. Lock acquisitions (sync.Mutex/RWMutex Lock/RLock, including through
//     embedding) inside //socrates:hotpath functions: on a declared hot
//     path, an invisible lock convoy is exactly the stall wait stats
//     exist to expose, so either the acquisition sits behind a TryLock
//     fast path inside a lock.latch region, or the annotation states why
//     the lock cannot convoy.
//  4. WaitRecorder.CondWait and WaitRecorder.AwaitLSN calls passing the
//     constant WaitNone. The shared bounded wait, and its form on a rung of
//     the LSN ladder, record their blocked time under the class they are
//     given, so a call with a class is covered; one with WaitNone blocks
//     unrecorded, exactly like a bare Cond Wait.
//
// A site passes when any of these hold:
//
//   - A WaitPoint region is open at the site on *every* control-flow path:
//     the forward must-dataflow gens at a WaitRecorder.Begin call and
//     kills at a direct WaitRegion End/EndIf call. A deferred End is NOT
//     a kill at the defer statement — defers run at function exit, so the
//     region covers everything after Begin (the FlushForBackup and
//     WaitHarden shapes depend on this).
//   - It carries //socrates:wait-ok <reason>.
//
// WaitPoint calls are recognized by type name — methods on obs.WaitRecorder
// and obs.WaitRegion — so fixture packages can declare structural stand-ins
// without importing the real obs package.
type waitLint struct {
	// packages is the instrumented set: a package is checked when its
	// import path equals an entry or lives under one (prefix + "/").
	packages []string
}

// newWaitLint returns the pass in its repo configuration: the tier
// packages whose blocking sites feed the wait-stats plane.
func newWaitLint() *waitLint {
	return &waitLint{packages: []string{
		"socrates/internal/compute",
		"socrates/internal/engine",
		"socrates/internal/hadr",
		"socrates/internal/logwriter",
		"socrates/internal/netmux",
		"socrates/internal/pageserver",
		"socrates/internal/recovery",
		"socrates/internal/simdisk",
		"socrates/internal/xlog",
	}}
}

// Name implements lintPass.
func (l *waitLint) Name() string { return "waitlint" }

// instrumented reports whether the package is in the checked set.
func (l *waitLint) instrumented(path string) bool {
	for _, p := range l.packages {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// Run implements lintPass.
func (l *waitLint) Run(pkg *Package) []diagnostic {
	if !l.instrumented(pkg.path) {
		return nil
	}
	var out []diagnostic
	for _, f := range pkg.files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			hot := pkg.funcDirective(fn, "hotpath")
			out = append(out, l.checkBody(pkg, f, fn.Name.Name, fn.Body, hot)...)
			// Function literals run on their own schedule (goroutines,
			// AfterFunc callbacks): a region opened by the enclosing
			// function is not known to be open when the literal runs, so
			// each body is analyzed independently.
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					out = append(out, l.checkBody(pkg, f, fn.Name.Name+".func", lit.Body, hot)...)
				}
				return true
			})
		}
	}
	return out
}

// waitSite is one blocking site awaiting a verdict.
type waitSite struct {
	node ast.Node
	what string
}

// checkBody collects the body's wait sites and judges each against the
// must-in-region dataflow.
func (l *waitLint) checkBody(pkg *Package, file *ast.File, name string, body *ast.BlockStmt, hot bool) []diagnostic {
	sites := l.collectSites(pkg, body, hot)
	if len(sites) == 0 {
		return nil
	}

	cfg := buildCFG(body)
	prob := &regionProblem{pkg: pkg}
	out := solveForward(cfg, prob)

	// fact at a site: replay each block from its in-fact; a site inside
	// block node i sees the fact before node i's transfer (the Begin that
	// guards a wait is always a preceding statement). A SelectStmt site
	// never appears in a block itself — its comm statements do — so a
	// block node *contained within* the site also anchors it; the first
	// such node replayed (the first case's comm, whose in-fact is the
	// select's entry fact) decides, hence first-assignment-wins.
	factAt := make(map[ast.Node]bool)
	decided := make(map[ast.Node]bool)
	for _, b := range cfg.blocks {
		var in fact
		if b == cfg.entry {
			in = prob.Entry()
		}
		for _, pred := range b.preds {
			if o, ok := out[pred]; ok {
				if in == nil {
					in = o
				} else {
					in = prob.Join(in, o)
				}
			}
		}
		if in == nil {
			continue // unreachable block
		}
		f := in
		for _, n := range b.nodes {
			for _, s := range sites {
				contains := n.Pos() <= s.node.Pos() && s.node.End() <= n.End()
				within := s.node.Pos() <= n.Pos() && n.End() <= s.node.End()
				if (contains || within) && !decided[s.node] {
					decided[s.node] = true
					factAt[s.node] = f.(bool)
				}
			}
			f = prob.Transfer(n, f)
		}
	}

	var diags []diagnostic
	for _, s := range sites {
		if factAt[s.node] {
			continue // region provably open on every path
		}
		if pkg.directiveAt("wait-ok", s.node) {
			continue
		}
		diags = append(diags, pkg.diag("waitlint", s.node,
			"%s in %s is not covered by a WaitPoint region; wrap it in Begin/End so the blocked time lands in a wait class, or annotate //socrates:wait-ok <reason>",
			s.what, name))
	}
	return diags
}

// collectSites finds the body's blocking sites, excluding nested function
// literals (they are analyzed as their own bodies).
func (l *waitLint) collectSites(pkg *Package, body *ast.BlockStmt, hot bool) []waitSite {
	var sites []waitSite
	flaggedSelect := make(map[*ast.SelectStmt]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch x := n.(type) {
		case *ast.SelectStmt:
			// A select with a timer-driven case blocks the goroutine for
			// the timer duration on the quiet path; flag the select once.
			for _, clause := range x.Body.List {
				comm, ok := clause.(*ast.CommClause)
				if !ok || comm.Comm == nil {
					continue
				}
				if commHasTimerRecv(pkg, comm.Comm) && !flaggedSelect[x] {
					flaggedSelect[x] = true
					sites = append(sites, waitSite{node: x, what: "select with a timer-driven case"})
				}
			}
		case *ast.UnaryExpr:
			if isTimerRecv(pkg, x) && !insideFlaggedSelect(body, x, flaggedSelect) {
				sites = append(sites, waitSite{node: x, what: "timer-channel receive"})
			}
		case *ast.CallExpr:
			if isCondWait(pkg, x) {
				sites = append(sites, waitSite{node: x, what: "sync.Cond Wait"})
			} else if m := unrecordedSharedWait(pkg, x); m != "" {
				sites = append(sites, waitSite{node: x, what: m + " charged to WaitNone"})
			} else if hot && isMutexAcquire(pkg, x) {
				sites = append(sites, waitSite{node: x, what: "lock acquisition on a declared hot path"})
			}
		}
		return true
	})
	return sites
}

// insideFlaggedSelect reports whether the receive already got its verdict
// as part of a flagged select statement.
func insideFlaggedSelect(body *ast.BlockStmt, recv *ast.UnaryExpr, flagged map[*ast.SelectStmt]bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if sel, ok := n.(*ast.SelectStmt); ok && flagged[sel] {
			if sel.Pos() <= recv.Pos() && recv.End() <= sel.End() {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// commHasTimerRecv reports whether a select comm statement receives from a
// timer-driven channel.
func commHasTimerRecv(pkg *Package, comm ast.Stmt) bool {
	has := false
	ast.Inspect(comm, func(n ast.Node) bool {
		if u, ok := n.(*ast.UnaryExpr); ok && isTimerRecv(pkg, u) {
			has = true
		}
		return true
	})
	return has
}

// isTimerRecv matches `<-time.After(d)` and `<-x.C` for time.Ticker /
// time.Timer values.
func isTimerRecv(pkg *Package, u *ast.UnaryExpr) bool {
	if u.Op.String() != "<-" {
		return false
	}
	switch x := ast.Unparen(u.X).(type) {
	case *ast.CallExpr:
		obj := calleeObject(pkg.info, x)
		return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "time" && obj.Name() == "After"
	case *ast.SelectorExpr:
		if x.Sel.Name != "C" {
			return false
		}
		t := pkg.info.TypeOf(x.X)
		return namedIn(t, "time", "Ticker") || namedIn(t, "time", "Timer")
	}
	return false
}

// isCondWait matches (*sync.Cond).Wait calls.
func isCondWait(pkg *Package, call *ast.CallExpr) bool {
	fn, ok := calleeObject(pkg.info, call).(*types.Func)
	if !ok || fn.Name() != "Wait" || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil && namedIn(recv.Type(), "sync", "Cond")
}

// unrecordedSharedWait names the method of a WaitRecorder.CondWait or
// AwaitLSN call passing the constant WaitNone as its class; "" otherwise.
func unrecordedSharedWait(pkg *Package, call *ast.CallExpr) string {
	fn := calleeObject(pkg.info, call)
	if fn == nil || (fn.Name() != "CondWait" && fn.Name() != "AwaitLSN") || !isWaitRecorderCall(pkg, call, fn.Name()) {
		return ""
	}
	for _, arg := range call.Args {
		var id *ast.Ident
		switch a := ast.Unparen(arg).(type) {
		case *ast.Ident:
			id = a
		case *ast.SelectorExpr:
			id = a.Sel
		}
		if c, ok := pkg.info.Uses[id].(*types.Const); ok && c.Name() == "WaitNone" {
			return fn.Name()
		}
	}
	return ""
}

// isMutexAcquire matches sync.Mutex/RWMutex Lock and RLock calls,
// including promoted methods of embedded mutexes. TryLock is deliberately
// not a site: it never blocks, and the TryLock-then-Begin-then-Lock shape
// is the approved way to record latch contention.
func isMutexAcquire(pkg *Package, call *ast.CallExpr) bool {
	fn, ok := calleeObject(pkg.info, call).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	if fn.Name() != "Lock" && fn.Name() != "RLock" {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	return recv != nil &&
		(namedIn(recv.Type(), "sync", "Mutex") || namedIn(recv.Type(), "sync", "RWMutex"))
}

// namedIn reports whether t (possibly behind a pointer) is the named type
// pkgPath.name.
func namedIn(t types.Type, pkgPath, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// isWaitRecorderCall matches calls to a method of a type named
// WaitRecorder (Begin, CondWait or AwaitLSN). Matching by type name rather than by the
// concrete obs package keeps fixtures self-contained.
func isWaitRecorderCall(pkg *Package, call *ast.CallExpr, method string) bool {
	fn, ok := calleeObject(pkg.info, call).(*types.Func)
	if !ok || fn.Name() != method {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "WaitRecorder"
}

// isRegionEnd matches direct End/EndIf calls on a type named WaitRegion.
func isRegionEnd(pkg *Package, call *ast.CallExpr) bool {
	fn, ok := calleeObject(pkg.info, call).(*types.Func)
	if !ok || (fn.Name() != "End" && fn.Name() != "EndIf") {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "WaitRegion"
}

// regionProblem is the must-in-region forward dataflow: the fact is "a
// WaitPoint region is open", gen'd by WaitRecorder.Begin, killed by a
// direct WaitRegion End/EndIf. Join is AND — the region must be open on
// every path into the site. Deferred Ends do not kill: they run at
// function exit, so the region stays open through the rest of the body.
type regionProblem struct {
	pkg *Package
}

func (p *regionProblem) Entry() fact { return false }

func (p *regionProblem) Join(a, b fact) fact { return a.(bool) && b.(bool) }

func (p *regionProblem) Equal(a, b fact) bool { return a.(bool) == b.(bool) }

func (p *regionProblem) Transfer(n ast.Node, f fact) fact {
	if _, ok := n.(*ast.DeferStmt); ok {
		// A deferred End runs at function exit, not here; a deferred
		// Begin would be nonsense. Either way the fact is unchanged.
		return f
	}
	open := f.(bool)
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isWaitRecorderCall(p.pkg, call, "Begin") {
			open = true
		} else if isRegionEnd(p.pkg, call) {
			open = false
		}
		return true
	})
	return open
}
