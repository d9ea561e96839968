package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxLint is the "what reaches the wire" pass. End-to-end tracing needs
// every request that crosses a tier boundary to carry its trace identity in
// a context.Context, and the RPC fabric needs every request to carry a
// way to give up its in-flight slot. A context accepted anywhere but first
// position (easy to miss at call sites), a manufactured context.TODO() (it
// silently drops the caller's trace and cancellation), a raw socket, or an
// RPC minted unbounded at the wire each break one of the two.
//
// Five checks:
//
//  1. ctx-first: any function or method with a context.Context parameter
//     must take it as the first parameter (after the receiver).
//  2. no-todo: context.TODO() is banned in non-test code; wrappers that
//     genuinely have no caller context use context.Background().
//  3. inter-tier surface: exported functions in the designated inter-tier
//     packages whose body issues an RBIO call (rbio.Client / rbio.Selector
//     / rbio.Conn) must accept a context.Context so trace identity can
//     reach the wire. Background() wrappers delegating to a *Context
//     variant are recognized and exempt.
//  4. no-raw-dial: net.Dial* and (*net.Dialer).Dial* outside the fabric
//     packages. A raw socket bypasses request-ID demux, retry and the
//     in-flight cap — the failure modes the fabric owns.
//  5. deadline-at-entry: a Call/Send into the fabric whose context argument
//     is a literal context.Background() has no deadline and no
//     cancellation: a stalled peer pins the request's in-flight slot for
//     as long as it stalls. A ctx variable passed through is trusted (check 1
//     forces it to be threaded), so what is caught is the root that mints
//     an unbounded context directly at the wire; a literal TODO is check 2's.
//
// Reviewed exceptions are annotated //socrates:ctx-ok <reason> on the
// line, the line above, or the function's doc comment.
type CtxLint struct {
	// InterTierPkgs are import-path substrings whose exported surface is
	// held to check 3. The other checks apply everywhere.
	InterTierPkgs []string
}

// fabricPkgs are the transport: the only packages that may open raw
// sockets (check 4), and the ones whose Call/Send methods are the wire
// entry (check 5).
var fabricPkgs = []string{"socrates/internal/netmux", "socrates/internal/rbio"}

// DefaultCtxLint returns ctxlint configured for the Socrates tree: the
// packages whose exported functions sit on a tier boundary.
func DefaultCtxLint() *CtxLint {
	return &CtxLint{InterTierPkgs: []string{
		"socrates/internal/rbio",
		"socrates/internal/compute",
		"socrates/internal/logwriter",
		"socrates/internal/pageserver",
		"socrates/internal/xlog",
		"socrates/internal/recovery",
	}}
}

// Name implements Pass.
func (c *CtxLint) Name() string { return "ctxlint" }

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// Run implements Pass.
func (c *CtxLint) Run(pkg *Package) []Diagnostic {
	var out []Diagnostic
	interTier := containsAny(pkg.Path, c.InterTierPkgs)
	inFabric := containsAny(pkg.Path, fabricPkgs)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			out = append(out, c.checkCtxFirst(pkg, fn)...)
			if interTier {
				out = append(out, c.checkInterTier(pkg, fn)...)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if msg := checkCall(pkg, call, inFabric); msg != "" && !pkg.DirectiveAt("ctx-ok", call) {
				out = append(out, pkg.diag("ctxlint", call, "%s, or annotate //socrates:ctx-ok <reason>", msg))
			}
			return true
		})
	}
	return out
}

// checkCall applies checks 2, 4 and 5 to one call and returns the
// finding, or "" when the call is fine.
func checkCall(pkg *Package, call *ast.CallExpr, inFabric bool) string {
	obj := calleeObject(pkg.Info, call)
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	path, name := obj.Pkg().Path(), obj.Name()
	switch {
	case path == "context" && name == "TODO":
		return "context.TODO() drops the caller's trace and cancellation; thread the caller's ctx, or use context.Background() at a genuine root"
	case path == "net" && strings.HasPrefix(name, "Dial") && !inFabric:
		return "raw net." + name + " bypasses the RPC fabric (no request-ID demux, retry, in-flight cap, or backpressure); dial through internal/netmux or internal/rbio"
	case (name == "Call" || name == "Send") && containsAny(path, fabricPkgs) &&
		len(call.Args) > 0 && isBackgroundCall(pkg, call.Args[0]):
		return "context.Background() at a fabric " + name + " site has no deadline: a stalled peer pins this request's in-flight slot for as long as it stalls, and its queued callers with it; use context.WithTimeout"
	}
	return ""
}

// isBackgroundCall reports whether expr is a literal context.Background().
func isBackgroundCall(pkg *Package, expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	obj := calleeObject(pkg.Info, call)
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Background"
}

// checkCtxFirst flags context.Context parameters in non-first position.
func (c *CtxLint) checkCtxFirst(pkg *Package, fn *ast.FuncDecl) []Diagnostic {
	if fn.Type.Params == nil {
		return nil
	}
	var out []Diagnostic
	pos := 0 // parameter index, counting each name in a grouped field
	for fi, field := range fn.Type.Params.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		t := pkg.Info.TypeOf(field.Type)
		if t != nil && isContextType(t) && !(fi == 0 && pos == 0) && !pkg.DirectiveAt("ctx-ok", fn) {
			out = append(out, pkg.diag("ctxlint", field,
				"context.Context must be the first parameter of %s (found at position %d); callers scan position 0 for the request context, or annotate //socrates:ctx-ok <reason>",
				fn.Name.Name, pos))
		}
		pos += n
	}
	return out
}

// checkInterTier flags exported functions in inter-tier packages that
// issue RBIO calls without accepting a context.
func (c *CtxLint) checkInterTier(pkg *Package, fn *ast.FuncDecl) []Diagnostic {
	if !fn.Name.IsExported() || fn.Body == nil {
		return nil
	}
	// Already context-aware?
	if fn.Type.Params != nil {
		for _, field := range fn.Type.Params.List {
			if t := pkg.Info.TypeOf(field.Type); t != nil && isContextType(t) {
				return nil
			}
		}
	}
	// Background() wrapper delegating to a *Context variant is the
	// sanctioned compatibility pattern.
	if strings.HasSuffix(fn.Name.Name, "Context") {
		return nil
	}
	if delegatesToContextVariant(pkg, fn) {
		return nil
	}
	var hit ast.Node
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if hit != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := calleeObject(pkg.Info, call)
		if obj == nil || obj.Pkg() == nil {
			return true
		}
		if obj.Pkg().Path() == "socrates/internal/rbio" &&
			(obj.Name() == "Call" || obj.Name() == "Send") {
			hit = call
			return false
		}
		return true
	})
	if hit == nil {
		return nil
	}
	if pkg.DirectiveAt("ctx-ok", fn) || pkg.DirectiveAt("ctx-ok", hit) {
		return nil
	}
	return []Diagnostic{pkg.diag("ctxlint", fn,
		"exported %s issues an RBIO call but accepts no context.Context; the trace identity cannot reach the wire — add a ctx-first variant or annotate //socrates:ctx-ok <reason>",
		fn.Name.Name)}
}

// delegatesToContextVariant reports whether the function body calls a
// sibling whose name is fn's name + "Context" (the wrapper pattern
// `func X(...) { return x.XContext(context.Background(), ...) }`).
func delegatesToContextVariant(pkg *Package, fn *ast.FuncDecl) bool {
	want := fn.Name.Name + "Context"
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if obj := calleeObject(pkg.Info, call); obj != nil && obj.Name() == want {
			found = true
			return false
		}
		return true
	})
	return found
}
