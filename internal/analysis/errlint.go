package analysis

import (
	"go/ast"
	"go/types"
)

// Errlint flags discarded errors from durability-critical callees. In
// Socrates the durability contract is "never acknowledge a commit that is
// not hardened" (§4.3); an error swallowed on the WAL/XLOG/simdisk/XStore
// path breaks that contract silently — the system keeps running and
// acknowledges writes it may have lost. Related unbundled-transaction work
// (Lomet & Fekete) observes that split log/storage tiers fail through
// exactly these dropped-error paths, not through crashes.
//
// A call is flagged when (a) its callee is defined in one of the critical
// packages, (b) the callee returns an error, and (c) the error result is
// discarded — either the whole call is an expression statement or the
// error's position on the left-hand side is the blank identifier.
//
// Intentional drops (lossy feed sends, best-effort progress reports) are
// annotated //socrates:ignore-err <reason>.
type Errlint struct {
	// CriticalPkgs are import-path substrings of durability-critical
	// packages; a callee defined in any of them is in scope.
	CriticalPkgs []string
}

// DefaultErrlint returns errlint configured for the Socrates tree: every
// tier that sits on the durability or availability path, including the
// log writer that holds the commit's own durability wait
// (LogWriter.WaitHarden), the compute node around it and the engine above
// it.
func DefaultErrlint() *Errlint {
	return &Errlint{CriticalPkgs: []string{
		"socrates/internal/compute",
		"socrates/internal/logwriter",
		"socrates/internal/engine",
		"socrates/internal/wal",
		"socrates/internal/xlog",
		"socrates/internal/simdisk",
		"socrates/internal/xstore",
		"socrates/internal/rbpex",
		"socrates/internal/rbio",
		"socrates/internal/fcb",
		"socrates/internal/hadr",
		"socrates/internal/pageserver",
	}}
}

// Name implements Pass.
func (e *Errlint) Name() string { return "errlint" }

func (e *Errlint) critical(path string) bool { return containsAny(path, e.CriticalPkgs) }

// errResultIndexes reports which result positions of the call are typed
// error.
func errResultIndexes(info *types.Info, call *ast.CallExpr) []int {
	tv, ok := info.Types[call]
	if !ok {
		return nil
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		var idx []int
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				idx = append(idx, i)
			}
		}
		return idx
	default:
		if isErrorType(tv.Type) {
			return []int{0}
		}
	}
	return nil
}

// Run implements Pass.
func (e *Errlint) Run(pkg *Package) []Diagnostic {
	var out []Diagnostic
	flag := func(node ast.Node, call *ast.CallExpr) {
		if pkg.DirectiveAt("ignore-err", node) {
			return
		}
		name := "function"
		if obj := calleeObject(pkg.Info, call); obj != nil {
			name = obj.Name()
		}
		out = append(out, pkg.diag("errlint", node,
			"error from durability-critical call %s (%s) is discarded; propagate it or annotate //socrates:ignore-err <reason>",
			name, calleePkgPath(pkg.Info, call)))
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				call, ok := ast.Unparen(st.X).(*ast.CallExpr)
				if !ok {
					return true
				}
				if !e.critical(calleePkgPath(pkg.Info, call)) {
					return true
				}
				if len(errResultIndexes(pkg.Info, call)) > 0 {
					flag(st, call)
				}
			case *ast.AssignStmt:
				// Single multi-value call: a, _ := f().
				if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
					call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
					if !ok || !e.critical(calleePkgPath(pkg.Info, call)) {
						return true
					}
					for _, i := range errResultIndexes(pkg.Info, call) {
						if i < len(st.Lhs) && isBlank(st.Lhs[i]) {
							flag(st, call)
							break
						}
					}
					return true
				}
				// Parallel assignment: _ = f(), possibly mixed.
				for i, rhs := range st.Rhs {
					if i >= len(st.Lhs) || !isBlank(st.Lhs[i]) {
						continue
					}
					call, ok := ast.Unparen(rhs).(*ast.CallExpr)
					if !ok || !e.critical(calleePkgPath(pkg.Info, call)) {
						continue
					}
					if idx := errResultIndexes(pkg.Info, call); len(idx) == 1 && idx[0] == 0 {
						flag(st, call)
					}
				}
			}
			return true
		})
	}
	return out
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
