package analysis

// A cross-package call-graph approximation shared by the dataflow-aware
// passes. It is deliberately modest — exactly what deadlocklint needs and
// no more:
//
//   - nodes are *types.Func objects (functions and methods with bodies in
//     the analyzed package set);
//   - edges are static call sites: direct calls, method calls through a
//     concrete receiver, and method values. Calls through interfaces or
//     function values are NOT resolved (an over-approximation there would
//     drown the lock-ordering analysis in impossible edges), so the graph
//     under-approximates: derived facts like "f transitively acquires lock
//     L" can miss dynamic dispatch but never invent it. Passes built on it
//     therefore produce false negatives, not false positives — the right
//     failure mode for a lint gate.
//
// Because the loader memoizes packages by import path, a function object
// seen from its defining package and from an importer are the same
// *types.Func, so edges line up across package boundaries without any
// name-based stitching.

import (
	"go/ast"
	"go/types"
)

// callGraph maps each function in the analyzed package set to its body,
// package, and static callees.
type callGraph struct {
	// decls maps a function object to its declaration (body available).
	decls map[*types.Func]*ast.FuncDecl
	// declPkg maps a function object to the Package holding its body.
	declPkg map[*types.Func]*Package
	// callees maps caller → statically resolved callees (deduplicated).
	callees map[*types.Func][]*types.Func
}

// buildCallGraph constructs the approximation over a package set.
func buildCallGraph(pkgs []*Package) *callGraph {
	g := &callGraph{
		decls:   make(map[*types.Func]*ast.FuncDecl),
		declPkg: make(map[*types.Func]*Package),
		callees: make(map[*types.Func][]*types.Func),
	}
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
				g.decls[obj] = fn
				g.declPkg[obj] = pkg
				g.callees[obj] = collectCallees(pkg, fn.Body)
			}
		}
	}
	return g
}

// collectCallees resolves the static callees of a body, including inside
// nested function literals (a closure's calls still happen on behalf of
// the enclosing function for reachability purposes — e.g. a goroutine
// launched while a lock is NOT held is the launcher's concern only for
// lock *ordering*, which deadlocklint handles separately by skipping
// GoStmt bodies during held-set tracking).
func collectCallees(pkg *Package, body ast.Node) []*types.Func {
	seen := make(map[*types.Func]bool)
	var out []*types.Func
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if obj, ok := calleeObject(pkg.info, call).(*types.Func); ok && !seen[obj] {
			seen[obj] = true
			out = append(out, obj)
		}
		return true
	})
	return out
}

// reaches computes the set of functions from which a function matching
// pred is transitively reachable — i.e. result[f] is true when f may
// (statically) end up calling a pred function. pred is consulted for
// every callee, including ones without bodies in the package set (stdlib
// and other leaves), which is how "calls into package X" predicates see
// through the module boundary.
func (g *callGraph) reaches(pred func(*types.Func) bool) map[*types.Func]bool {
	reaches := make(map[*types.Func]bool)
	// Fixpoint: iterate until no caller flips. The graph is small (one
	// module), so the naive loop is fine and avoids building a reverse
	// index.
	for changed := true; changed; {
		changed = false
		for caller, callees := range g.callees {
			if reaches[caller] {
				continue
			}
			for _, callee := range callees {
				if pred(callee) || reaches[callee] {
					reaches[caller] = true
					changed = true
					break
				}
			}
		}
	}
	return reaches
}
