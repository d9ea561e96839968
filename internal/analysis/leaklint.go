package analysis

import (
	"go/ast"
	"go/types"
)

// leakLint enforces the lifetime discipline a long-running four-tier
// service needs: nothing that schedules work or pins an fd may outlive
// its owner silently.
//
// Two checks:
//
//  1. Goroutine stop paths. For every `go` statement whose body is
//     available (a function literal, or a same-package function/method),
//     the body's CFG must reach its exit: some path must return. A
//     goroutine whose every path loops forever — no `case <-ctx.Done():
//     return`, no closed-channel return, no terminating condition — can
//     only be reclaimed by process death, which turns every Open/Start
//     into a leak in a tier that is supposed to restart in seconds.
//     Reachability is computed on the CFG (for{} with no break does not
//     reach exit; a select case that returns does), so the check follows
//     the paper's control flow, not a comment's promise.
//
//  2. Resource close paths. A locally created time.Ticker/Timer,
//     os.File, or net.Conn/Listener must be stopped/closed on *every*
//     CFG exit path: a deferred Stop/Close, or a plain call that
//     dominates each return. The forward dataflow tracks the open set
//     with a may-leak union join — open on any path to the exit is a
//     finding. Ownership transfer ends tracking: returning the resource,
//     storing it in a field or another variable, passing it to a call,
//     or capturing it in a closure hands the close obligation to someone
//     this intraprocedural pass cannot see (the write side of that
//     contract is the owner's own leaklint run).
//
// Reviewed exceptions — a deliberately process-lifetime goroutine, a
// conn whose Close lives with its client — are annotated
// //socrates:leak-ok <reason> at the go statement or creation site.
type leakLint struct{}

// newLeakLint returns the pass.
func newLeakLint() *leakLint { return &leakLint{} }

// Name implements lintPass.
func (l *leakLint) Name() string { return "leaklint" }

// resourceCtor describes a constructor whose result must be released.
type resourceCtor struct {
	kind    string          // human name for messages
	closers map[string]bool // method names that release it
}

// resourceCtors maps package path → function name → contract.
var resourceCtors = map[string]map[string]resourceCtor{
	"time": {
		"NewTicker": {kind: "ticker", closers: map[string]bool{"Stop": true}},
		"NewTimer":  {kind: "timer", closers: map[string]bool{"Stop": true}},
		"AfterFunc": {kind: "timer", closers: map[string]bool{"Stop": true}},
	},
	"os": {
		"Open":     {kind: "file", closers: map[string]bool{"Close": true}},
		"Create":   {kind: "file", closers: map[string]bool{"Close": true}},
		"OpenFile": {kind: "file", closers: map[string]bool{"Close": true}},
	},
	"net": {
		"Dial":        {kind: "conn", closers: map[string]bool{"Close": true}},
		"DialTimeout": {kind: "conn", closers: map[string]bool{"Close": true}},
		"Listen":      {kind: "listener", closers: map[string]bool{"Close": true}},
	},
}

// Run implements lintPass.
func (l *leakLint) Run(pkg *Package) []diagnostic {
	var out []diagnostic
	decls := packageDecls(pkg)
	for _, f := range pkg.files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			out = append(out, l.checkGoroutines(pkg, fn, decls)...)
			out = append(out, l.checkResources(pkg, fn.Name.Name, fn.Body)...)
			// Function literals get their own resource analysis: a ticker
			// created inside a goroutine body is that body's obligation.
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					out = append(out, l.checkResources(pkg, fn.Name.Name+".func", lit.Body)...)
				}
				return true
			})
		}
	}
	return out
}

// packageDecls maps function objects to declarations within one package
// (for resolving `go s.loop()` to loop's body).
func packageDecls(pkg *Package) map[*types.Func]*ast.FuncDecl {
	m := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pkg.files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				if obj, ok := pkg.info.Defs[fn.Name].(*types.Func); ok {
					m[obj] = fn
				}
			}
		}
	}
	return m
}

// checkGoroutines flags `go` statements whose body provably never
// reaches its exit.
func (l *leakLint) checkGoroutines(pkg *Package, fn *ast.FuncDecl, decls map[*types.Func]*ast.FuncDecl) []diagnostic {
	var out []diagnostic
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		var body *ast.BlockStmt
		var decl *ast.FuncDecl // the named goroutine's declaration
		var what string
		switch callee := ast.Unparen(g.Call.Fun).(type) {
		case *ast.FuncLit:
			body, what = callee.Body, "goroutine"
		default:
			obj, ok := calleeObject(pkg.info, g.Call).(*types.Func)
			if !ok {
				return true
			}
			if decl, ok = decls[obj]; !ok {
				return true // body outside this package; out of scope
			}
			body, what = decl.Body, "goroutine "+obj.Name()
		}
		if body == nil || buildCFG(body).reachesExit() || pkg.directiveAt("leak-ok", g) ||
			(decl != nil && pkg.funcDirective(decl, "leak-ok")) {
			return true
		}
		out = append(out, pkg.diag("leaklint", g,
			"%s in %s has no reachable stop path (no route to return); add a ctx/done exit or annotate //socrates:leak-ok <reason>",
			what, fn.Name.Name))
		return true
	})
	return out
}

// openResource is one tracked creation site.
type openResource struct {
	obj  *types.Var
	ctor resourceCtor
	node ast.Node
}

// checkResources runs the open-set dataflow over one function body (a
// declaration's or a function literal's).
func (l *leakLint) checkResources(pkg *Package, name string, body *ast.BlockStmt) []diagnostic {
	resources := l.collectResources(pkg, body)
	if len(resources) == 0 {
		return nil
	}
	byObj := make(map[*types.Var]*openResource, len(resources))
	for i := range resources {
		byObj[resources[i].obj] = &resources[i]
	}

	cfg := buildCFG(body)
	prob := &openSetProblem{pkg: pkg, byObj: byObj}
	out := solveForward(cfg, prob)
	exit := exitFact(cfg, prob, out)
	if exit == nil {
		return nil // exit unreachable: a forever server loop owns its resources
	}

	// Deferred closers cover every exit path.
	open := exit.(map[*types.Var]bool)
	closedByDefer := make(map[*types.Var]bool)
	for _, d := range cfg.defers {
		ast.Inspect(d, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if v, ok := prob.closerCall(call); ok {
					closedByDefer[v] = true
				}
			}
			return true
		})
	}

	var diags []diagnostic
	for v := range open {
		if closedByDefer[v] {
			continue
		}
		r := byObj[v]
		if pkg.directiveAt("leak-ok", r.node) {
			continue
		}
		closer := "Close"
		for c := range r.ctor.closers {
			closer = c
		}
		diags = append(diags, pkg.diag("leaklint", r.node,
			"%s %q in %s is not %s()ed on every exit path; defer the release or annotate //socrates:leak-ok <reason>",
			r.ctor.kind, v.Name(), name, closer))
	}
	return diags
}

// collectResources finds `x := pkg.Ctor(...)` creation sites for tracked
// constructors where x is a plain local identifier. Nested function
// literals are excluded: each body is analyzed on its own.
func (l *leakLint) collectResources(pkg *Package, body *ast.BlockStmt) []openResource {
	var out []openResource
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pkg.info.Defs[id].(*types.Var)
		if !ok {
			// Plain `=` reassignment still creates an obligation, but the
			// variable's object comes from Uses.
			if v, ok = pkg.info.Uses[id].(*types.Var); !ok {
				return true
			}
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := calleeObject(pkg.info, call)
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		if m, ok := resourceCtors[obj.Pkg().Path()]; ok {
			if ctor, ok := m[obj.Name()]; ok {
				out = append(out, openResource{obj: v, ctor: ctor, node: as})
			}
		}
		return true
	})
	return out
}

// openSetProblem tracks the set of unreleased resources. Join is union
// (open on any path counts); ownership transfers remove the obligation.
type openSetProblem struct {
	pkg   *Package
	byObj map[*types.Var]*openResource
}

func (p *openSetProblem) Entry() fact { return map[*types.Var]bool{} }

func (p *openSetProblem) Join(a, b fact) fact {
	as, bs := a.(map[*types.Var]bool), b.(map[*types.Var]bool)
	if len(bs) == 0 {
		return as
	}
	if len(as) == 0 {
		return bs
	}
	u := make(map[*types.Var]bool, len(as)+len(bs))
	for v := range as {
		u[v] = true
	}
	for v := range bs {
		u[v] = true
	}
	return u
}

func (p *openSetProblem) Equal(a, b fact) bool {
	as, bs := a.(map[*types.Var]bool), b.(map[*types.Var]bool)
	if len(as) != len(bs) {
		return false
	}
	for v := range as {
		if !bs[v] {
			return false
		}
	}
	return true
}

func (p *openSetProblem) Transfer(n ast.Node, f fact) fact {
	set := f.(map[*types.Var]bool)
	mutated := false
	mutate := func() map[*types.Var]bool {
		if !mutated {
			c := make(map[*types.Var]bool, len(set)+1)
			for v := range set {
				c[v] = true
			}
			set, mutated = c, true
		}
		return set
	}
	// Creation sites in this node (not inside nested function literals —
	// those bodies are analyzed separately).
	skipIdents := make(map[*ast.Ident]bool)
	ast.Inspect(n, func(x ast.Node) bool {
		if _, isLit := x.(*ast.FuncLit); isLit {
			return false
		}
		if as, ok := x.(*ast.AssignStmt); ok && len(as.Lhs) == 1 {
			if id, ok := as.Lhs[0].(*ast.Ident); ok {
				if v := p.identVar(id); v != nil {
					if _, tracked := p.byObj[v]; tracked {
						if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok && p.isCtor(call) {
							mutate()[v] = true
							skipIdents[id] = true
						}
					}
				}
			}
		}
		return true
	})
	// Closer calls and member accesses. Skipping function literals here is
	// what makes closure capture count as an escape below: a selector use
	// inside a literal never lands in skipIdents, so the bare identifier
	// falls through to the escape scan.
	ast.Inspect(n, func(x ast.Node) bool {
		if _, isLit := x.(*ast.FuncLit); isLit {
			return false
		}
		switch e := x.(type) {
		case *ast.CallExpr:
			if v, ok := p.closerCall(e); ok {
				if set[v] {
					delete(mutate(), v)
				}
				// Don't treat the receiver ident as an escape.
				if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
					if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
						skipIdents[id] = true
					}
				}
			}
		case *ast.SelectorExpr:
			// t.C, t.Stop — member access is not an escape; mark the base
			// ident so the ident case below skips it.
			if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
				if v := p.identVar(id); v != nil {
					if _, tracked := p.byObj[v]; tracked {
						skipIdents[id] = true
					}
				}
			}
		}
		return true
	})
	ast.Inspect(n, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok || skipIdents[id] {
			return true
		}
		v := p.identVar(id)
		if v == nil {
			return true
		}
		if _, tracked := p.byObj[v]; !tracked {
			return true
		}
		// Bare use outside a member access: return, argument, store,
		// closure capture — ownership transferred.
		if set[v] {
			delete(mutate(), v)
		}
		return true
	})
	return set
}

func (p *openSetProblem) identVar(id *ast.Ident) *types.Var {
	if v, ok := p.pkg.info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := p.pkg.info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

func (p *openSetProblem) isCtor(call *ast.CallExpr) bool {
	obj := calleeObject(p.pkg.info, call)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	m, ok := resourceCtors[obj.Pkg().Path()]
	if !ok {
		return false
	}
	_, ok = m[obj.Name()]
	return ok
}

// closerCall matches x.Stop()/x.Close() for a tracked resource x and
// returns its object.
func (p *openSetProblem) closerCall(call *ast.CallExpr) (*types.Var, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil, false
	}
	v := p.identVar(id)
	if v == nil {
		return nil, false
	}
	r, tracked := p.byObj[v]
	if !tracked || !r.ctor.closers[sel.Sel.Name] {
		return nil, false
	}
	return v, true
}
