package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// deadlockLint is the lock-discipline pass. It builds the program-wide
// lock-ordering graph and reports the two deadlock shapes a four-tier
// system grows by accretion:
//
//  1. lock-order cycles: lock B acquired while holding A in one place and
//     A acquired while holding B in another (possibly through a chain of
//     calls across packages). Each strongly connected component of the
//     acquired-while-holding graph is reported once, with the acquisition
//     sites that close the cycle.
//  2. fabric calls under a lock: an RBIO/netmux RPC issued — directly or
//     transitively — while a sync lock is held. A lock held across a
//     network round trip couples the lock's critical section to a remote
//     peer's scheduling; with backpressure (ErrBackpressure) or a peer
//     outage in play, that is a convoy at best and a distributed deadlock
//     at worst.
//
// On the same held-lock facts it reports three per-function shapes:
//
//  3. a lock acquired with no unlock of it in the function, inline or
//     deferred — the hallmark of a leaked critical section;
//  4. a channel send while a lock is held (a select's communications are
//     scheduling points by design and exempt);
//  5. a direct call into a (simulated-latency) I/O package from another
//     package while a lock is held. Holding a cache mutex across a simdisk
//     write turns a microsecond critical section into a millisecond one and
//     is how the paper's GetPage@LSN tail latencies regress. Calls within an
//     I/O package itself are exempt: its own mutexes guard its bookkeeping.
//
// A lock copied by value is go vet's copylocks check, not this pass's.
//
// Lock identity is the *field or variable object* (types.Var), so `s.mu`
// names the same lock in every method of the type, across every package
// that can reach it. Held sets propagate through the CFG with a may-hold
// union join (a lock released on only one branch is still "may held"
// after the merge), and acquisition sets propagate through the
// cross-package call graph, so `a.mu.Lock(); helper()` sees the locks
// helper takes three calls deep.
//
// The call-graph approximation resolves static calls only (no interface
// dispatch), and goroutine/closure bodies are excluded from held-set
// tracking (they run on their own schedule) — both under-approximations,
// so the pass errs toward false negatives, never noise. Reviewed
// exceptions are annotated //socrates:lock-ok <reason> on the acquisition
// or call site.
type deadlockLint struct {
	// fabricPkgs are import-path substrings whose Call/Send entry points
	// count as remote I/O for check 2.
	fabricPkgs []string
	// ioPkgs are import-path substrings whose functions count as I/O for
	// check 5.
	ioPkgs []string
}

// newDeadlockLint returns the pass configured for the Socrates tree.
func newDeadlockLint() *deadlockLint {
	return &deadlockLint{
		fabricPkgs: []string{"socrates/internal/rbio", "socrates/internal/netmux"},
		ioPkgs:     []string{"socrates/internal/simdisk", "socrates/internal/xstore"},
	}
}

// Name implements lintPass.
func (l *deadlockLint) Name() string { return "deadlocklint" }

// Run implements lintPass (single-package convenience; fixtures use this).
func (l *deadlockLint) Run(pkg *Package) []diagnostic {
	return l.RunProgram([]*Package{pkg})
}

// lockEdge is one acquired-while-holding observation.
type lockEdge struct {
	from, to *types.Var
	pos      token.Position // acquisition (or call) site that creates the edge
	via      string         // "" for a direct acquire; callee name for transitive
}

// lockFacts accumulates one function's lock behavior.
type lockFacts struct {
	acquires map[*types.Var]bool // directly acquired anywhere in the body
	edges    []lockEdge          // direct acquired-while-holding edges
	// calls are call sites executed while at least one lock is held:
	// callee → (held set snapshot, site).
	calls []heldCall
	// diags are the function's own findings (checks 3-5).
	diags []diagnostic
}

type heldCall struct {
	callee *types.Func
	held   []*types.Var
	node   ast.Node
	pkg    *Package
}

// RunProgram implements programPass.
func (l *deadlockLint) RunProgram(pkgs []*Package) []diagnostic {
	g := buildCallGraph(pkgs)
	labels := make(map[*types.Var]string)
	facts := make(map[*types.Func]*lockFacts)
	var out []diagnostic

	for _, pkg := range pkgs {
		for _, f := range pkg.files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				obj, ok := pkg.info.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				ff := l.analyzeFunc(pkg, fn, labels)
				facts[obj] = ff
				out = append(out, ff.diags...)
			}
		}
	}

	// Transitive acquisition sets over the call graph (fixpoint).
	trans := make(map[*types.Func]map[*types.Var]bool, len(facts))
	for fn, ff := range facts {
		set := make(map[*types.Var]bool, len(ff.acquires))
		for v := range ff.acquires {
			set[v] = true
		}
		trans[fn] = set
	}
	for changed := true; changed; {
		changed = false
		for fn := range facts {
			for _, callee := range g.callees[fn] {
				for v := range trans[callee] {
					if !trans[fn][v] {
						trans[fn][v] = true
						changed = true
					}
				}
			}
		}
	}

	// Fabric reachability: functions that transitively issue an RBIO or
	// netmux call.
	fabric := g.reaches(l.isFabricCall)

	edges := make(map[*types.Var]map[*types.Var]lockEdge)
	addEdge := func(e lockEdge) {
		if e.from == e.to {
			return // a double acquire is no ordering
		}
		if edges[e.from] == nil {
			edges[e.from] = make(map[*types.Var]lockEdge)
		}
		if _, ok := edges[e.from][e.to]; !ok {
			edges[e.from][e.to] = e
		}
	}
	for fn, ff := range facts {
		for _, e := range ff.edges {
			addEdge(e)
		}
		for _, c := range ff.calls {
			// Transitive ordering edges: held × locks the callee acquires —
			// unless the call site is a reviewed exception (a callee that
			// only starts the goroutine which takes the lock, say).
			for v := range trans[c.callee] {
				if c.pkg.directiveAt("lock-ok", c.node) {
					break
				}
				for _, h := range c.held {
					addEdge(lockEdge{from: h, to: v,
						pos: c.pkg.fset.Position(c.node.Pos()),
						via: c.callee.Name()})
				}
			}
			// Fabric call under a lock.
			if l.isFabricCall(c.callee) || fabric[c.callee] {
				if c.pkg.directiveAt("lock-ok", c.node) {
					continue
				}
				out = append(out, c.pkg.diag("deadlocklint", c.node,
					"%s calls %s (reaches the RBIO/netmux fabric) while holding %s; a lock held across a remote call convoys under backpressure — release it first or annotate //socrates:lock-ok <reason>",
					fn.Name(), c.callee.Name(), labels[c.held[0]]))
			}
		}
	}

	out = append(out, l.reportCycles(edges, labels)...)
	return out
}

// analyzeFunc runs the held-set dataflow over one function's CFG.
func (l *deadlockLint) analyzeFunc(pkg *Package, fn *ast.FuncDecl, labels map[*types.Var]string) *lockFacts {
	ff := &lockFacts{acquires: make(map[*types.Var]bool)}
	cfg := buildCFG(fn.Body)
	seenEdge := make(map[string]bool)
	seenSite := make(map[ast.Node]bool)
	acquired := make(map[ast.Node]*types.Var) // check 3: acquisition sites
	released := make(map[*types.Var]bool)
	flag := func(node ast.Node, format string, args ...any) {
		if !pkg.directiveAt("lock-ok", node) {
			ff.diags = append(ff.diags, pkg.diag("deadlocklint", node, format, args...))
		}
	}
	prob := &heldLocksProblem{
		pkg: pkg, labels: labels,
		commSends: selectSends(fn.Body),
		onAcquire: func(v *types.Var, held map[*types.Var]bool, node ast.Node) {
			ff.acquires[v] = true
			acquired[node] = v
			if len(held) == 0 || pkg.directiveAt("lock-ok", node) {
				return
			}
			for h := range held {
				key := fmt.Sprintf("%p->%p@%d", h, v, node.Pos())
				if !seenEdge[key] {
					seenEdge[key] = true
					ff.edges = append(ff.edges, lockEdge{
						from: h, to: v, pos: pkg.fset.Position(node.Pos())})
				}
			}
		},
		onRelease: func(v *types.Var) { released[v] = true },
		onSend: func(held map[*types.Var]bool, node ast.Node) {
			if len(held) > 0 && !seenSite[node] {
				seenSite[node] = true
				flag(node, "channel send while %s is held; release the lock first or annotate //socrates:lock-ok <reason>",
					heldLabel(held, labels))
			}
		},
		onCall: func(callee *types.Func, held map[*types.Var]bool, node ast.Node) {
			if len(held) == 0 || seenSite[node] {
				return
			}
			seenSite[node] = true
			if callee.Pkg() != nil && callee.Pkg().Path() != pkg.path && l.isIOPkg(callee.Pkg().Path()) {
				flag(node, "I/O call into %s while %s is held; release the lock first or annotate //socrates:lock-ok <reason>",
					callee.Pkg().Path(), heldLabel(held, labels))
			}
			snapshot := make([]*types.Var, 0, len(held))
			for h := range held {
				snapshot = append(snapshot, h)
			}
			sort.Slice(snapshot, func(i, j int) bool {
				return labels[snapshot[i]] < labels[snapshot[j]]
			})
			ff.calls = append(ff.calls, heldCall{callee: callee, held: snapshot, node: node, pkg: pkg})
		},
	}
	solveForward(cfg, prob)
	// Deferred unlocks run on every exit path: they release too.
	for _, d := range cfg.defers {
		ast.Inspect(d.Call, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok {
				if v, method, ok := prob.lockVar(call); ok && (method == "Unlock" || method == "RUnlock") {
					released[v] = true
				}
			}
			return true
		})
	}
	for node, v := range acquired {
		if !released[v] {
			flag(node, "%s is locked but never unlocked in %s; add a defer of its Unlock or annotate //socrates:lock-ok <reason>",
				labels[v], fn.Name.Name)
		}
	}
	return ff
}

// selectSends collects the sends that are a select's communications: a
// select is a scheduling point by design, so check 4 exempts them.
func selectSends(body *ast.BlockStmt) map[ast.Node]bool {
	out := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if cc, ok := n.(*ast.CommClause); ok {
			if send, ok := cc.Comm.(*ast.SendStmt); ok {
				out[send] = true
			}
		}
		return true
	})
	return out
}

// heldLabel names the lexically first lock of a held set.
func heldLabel(held map[*types.Var]bool, labels map[*types.Var]string) string {
	first := ""
	for v := range held {
		if l := labels[v]; first == "" || l < first {
			first = l
		}
	}
	return first
}

// heldLocksProblem is the may-hold forward dataflow: facts are sets of
// lock objects (map[*types.Var]bool, treated as immutable), join is
// union. Lock/RLock adds, Unlock/RUnlock removes, a deferred unlock is
// ignored (the lock stays held to function exit). Function literals and
// goroutine bodies are skipped.
type heldLocksProblem struct {
	pkg       *Package
	labels    map[*types.Var]string
	commSends map[ast.Node]bool // select communications: not reported to onSend
	onAcquire func(v *types.Var, held map[*types.Var]bool, node ast.Node)
	onRelease func(v *types.Var)
	onSend    func(held map[*types.Var]bool, node ast.Node)
	onCall    func(callee *types.Func, held map[*types.Var]bool, node ast.Node)
}

func (p *heldLocksProblem) Entry() fact { return map[*types.Var]bool{} }

func (p *heldLocksProblem) Join(a, b fact) fact {
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

func (p *heldLocksProblem) Equal(a, b fact) bool {
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

func (p *heldLocksProblem) Transfer(n ast.Node, f fact) fact {
	held := f.(map[*types.Var]bool)
	// Deferred unlocks keep the lock held; deferred *locks* (pathological)
	// are ignored too.
	if _, isDefer := n.(*ast.DeferStmt); isDefer {
		return held
	}
	mutated := false
	mutate := func() map[*types.Var]bool {
		if !mutated {
			c := make(map[*types.Var]bool, len(held)+1)
			for v := range held {
				c[v] = true
			}
			held, mutated = c, true
		}
		return held
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch e := x.(type) {
		case *ast.FuncLit:
			return false // separate schedule
		case *ast.GoStmt:
			return false
		case *ast.DeferStmt:
			return false
		case *ast.SendStmt:
			if !p.commSends[e] {
				p.onSend(held, e)
			}
		case *ast.CallExpr:
			if v, method, ok := p.lockVar(e); ok {
				switch method {
				case "Lock", "RLock", "TryLock", "TryRLock":
					p.onAcquire(v, held, e)
					mutate()[v] = true
				case "Unlock", "RUnlock":
					p.onRelease(v)
					if held[v] {
						delete(mutate(), v)
					}
				}
				return true
			}
			if callee, ok := calleeObject(p.pkg.info, e).(*types.Func); ok {
				p.onCall(callee, held, e)
			}
		}
		return true
	})
	return held
}

// lockVar resolves a Lock/Unlock-family call to the lock's defining
// object (field or variable) and records a readable label for it.
func (p *heldLocksProblem) lockVar(call *ast.CallExpr) (*types.Var, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	obj := p.pkg.info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return nil, "", false
	}
	switch obj.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock":
	default:
		return nil, "", false
	}
	v := p.resolveLockObject(sel.X)
	if v == nil {
		return nil, "", false
	}
	if _, ok := p.labels[v]; !ok {
		p.labels[v] = p.lockLabel(sel.X, v)
	}
	return v, obj.Name(), true
}

// resolveLockObject maps the lock expression (s.mu, mu, c.state.mu) to
// its variable object: the field for selectors, the var for idents.
func (p *heldLocksProblem) resolveLockObject(expr ast.Expr) *types.Var {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if v, ok := p.pkg.info.Uses[e].(*types.Var); ok {
			return v
		}
		if v, ok := p.pkg.info.Defs[e].(*types.Var); ok {
			return v
		}
	case *ast.SelectorExpr:
		if v, ok := p.pkg.info.Uses[e.Sel].(*types.Var); ok {
			return v
		}
	case *ast.StarExpr:
		return p.resolveLockObject(e.X)
	}
	return nil
}

// lockLabel renders a stable human label: "pkg.Type.field" for fields,
// "pkg.var" otherwise.
func (p *heldLocksProblem) lockLabel(expr ast.Expr, v *types.Var) string {
	if sel, ok := ast.Unparen(expr).(*ast.SelectorExpr); ok {
		if tv, ok := p.pkg.info.Types[sel.X]; ok {
			t := tv.Type
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + v.Name()
			}
		}
	}
	if v.Pkg() != nil {
		return v.Pkg().Name() + "." + v.Name()
	}
	return v.Name()
}

// isIOPkg reports whether the import path is one of the I/O packages.
func (l *deadlockLint) isIOPkg(path string) bool { return containsAny(path, l.ioPkgs) }

// isFabricCall reports whether the function is an RBIO/netmux fabric
// entry point: a Call/Send/Dial in one of the fabric packages.
func (l *deadlockLint) isFabricCall(fn *types.Func) bool {
	if fn.Pkg() == nil || !containsAny(fn.Pkg().Path(), l.fabricPkgs) {
		return false
	}
	switch fn.Name() {
	case "Call", "Send", "CallAddr", "DialTCP", "Dial":
		return true
	}
	return strings.HasPrefix(fn.Name(), "Call") || strings.HasPrefix(fn.Name(), "Send")
}

// containsAny reports whether the import path contains one of the
// patterns.
func containsAny(path string, patterns []string) bool {
	for _, p := range patterns {
		if p != "" && strings.Contains(path, p) {
			return true
		}
	}
	return false
}

// reportCycles finds strongly connected components of the lock graph and
// reports each cycle once, naming the participating locks and one closing
// acquisition site.
func (l *deadlockLint) reportCycles(edges map[*types.Var]map[*types.Var]lockEdge, labels map[*types.Var]string) []diagnostic {
	// Tarjan SCC.
	index := make(map[*types.Var]int)
	low := make(map[*types.Var]int)
	onStack := make(map[*types.Var]bool)
	var stack []*types.Var
	var sccs [][]*types.Var
	next := 0
	var strongconnect func(v *types.Var)
	strongconnect = func(v *types.Var) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for w := range edges[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []*types.Var
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			if len(scc) > 1 {
				sccs = append(sccs, scc)
			}
		}
	}
	// Deterministic iteration order for stable output.
	var nodes []*types.Var
	for v := range edges {
		nodes = append(nodes, v)
	}
	sort.Slice(nodes, func(i, j int) bool { return labels[nodes[i]] < labels[nodes[j]] })
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}

	var out []diagnostic
	for _, scc := range sccs {
		sort.Slice(scc, func(i, j int) bool { return labels[scc[i]] < labels[scc[j]] })
		inSCC := make(map[*types.Var]bool, len(scc))
		for _, v := range scc {
			inSCC[v] = true
		}
		// Render the lock set and pick the lexically first edge inside the
		// SCC as the anchor site.
		var names []string
		for _, v := range scc {
			names = append(names, labels[v])
		}
		var anchor *lockEdge
		var sites []string
		for _, v := range scc {
			for w, e := range edges[v] {
				if !inSCC[w] {
					continue
				}
				e := e
				site := fmt.Sprintf("%s→%s at %s:%d", labels[v], labels[w], e.pos.Filename, e.pos.Line)
				if e.via != "" {
					site += " (via " + e.via + ")"
				}
				sites = append(sites, site)
				if anchor == nil || e.pos.Filename < anchor.pos.Filename ||
					(e.pos.Filename == anchor.pos.Filename && e.pos.Line < anchor.pos.Line) {
					anchor = &e
				}
			}
		}
		sort.Strings(sites)
		out = append(out, diagnostic{
			Pos:  anchor.pos,
			Pass: "deadlocklint",
			Message: fmt.Sprintf("lock-order cycle among {%s}: %s; acquire these locks in one global order or annotate the reviewed site //socrates:lock-ok <reason>",
				strings.Join(names, ", "), strings.Join(sites, "; ")),
		})
	}
	return out
}
