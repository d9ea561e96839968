package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// lsnLint flags raw arithmetic and ordering comparisons on LSN-typed values
// outside approved helpers. The log tier's core invariant is that LSNs form
// one monotonic space managed by the primary (§4.3-§4.4): watermarks only
// advance, redo applies a record only when record.LSN > page.LSN, and a
// hardened prefix never has holes. Scattered raw `lsn+1` / `a < b`
// expressions are where that invariant silently erodes (an off-by-one in a
// watermark comparison is a lost-write, not a crash), so ordering logic is
// funneled through the page.LSN methods (Next, Prev, Before, AtLeast, ...)
// or through functions explicitly blessed as watermark helpers with a
// //socrates:lsn-helper <reason> doc directive.
//
// Approved contexts, in which raw expressions are allowed:
//   - methods declared on the LSN type itself (they ARE the helpers);
//   - functions carrying //socrates:lsn-helper in their doc comment;
//   - a single expression annotated //socrates:lsn-ok <reason>.
//
// Equality (== / !=) is always allowed: it carries no ordering assumption.
type lsnLint struct {
	// typeName is the named type to protect (default "LSN").
	typeName string
}

// newLSNLint returns the pass with the default LSN type name.
func newLSNLint() *lsnLint { return &lsnLint{typeName: "LSN"} }

// Name implements lintPass.
func (l *lsnLint) Name() string { return "lsnlint" }

// isLSN reports whether t (or its pointer-elem) is a named type called
// typeName with an integer underlying type.
func (l *lsnLint) isLSN(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	if named.Obj().Name() != l.typeName {
		return false
	}
	basic, ok := named.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsInteger != 0
}

func (l *lsnLint) exprIsLSN(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && l.isLSN(tv.Type)
}

var lsnArithOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true, token.MUL: true, token.QUO: true, token.REM: true,
	token.ADD_ASSIGN: true, token.SUB_ASSIGN: true, token.MUL_ASSIGN: true,
	token.QUO_ASSIGN: true, token.REM_ASSIGN: true,
}

var lsnOrderOps = map[token.Token]bool{
	token.LSS: true, token.LEQ: true, token.GTR: true, token.GEQ: true,
}

// lsnMethod reports whether fn is a method on the LSN type: those ARE the
// helpers.
func (l *lsnLint) lsnMethod(pkg *Package, fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return false
	}
	tv, ok := pkg.info.Types[fn.Recv.List[0].Type]
	if !ok {
		return false
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return l.isLSN(t)
}

// Run implements lintPass.
func (l *lsnLint) Run(pkg *Package) []diagnostic {
	var out []diagnostic
	for _, f := range pkg.files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || l.lsnMethod(pkg, fn) {
				continue
			}
			flag := func(node ast.Node, what, op string) {
				if pkg.funcDirective(fn, "lsn-helper") || pkg.directiveAt("lsn-ok", node) {
					return
				}
				out = append(out, pkg.diag("lsnlint", node,
					"raw LSN %s (%s) outside an approved helper; use the page.LSN methods or annotate the helper //socrates:lsn-helper <reason>",
					what, op))
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch e := n.(type) {
				case *ast.BinaryExpr:
					if !l.exprIsLSN(pkg.info, e.X) && !l.exprIsLSN(pkg.info, e.Y) {
						return true
					}
					if lsnArithOps[e.Op] {
						flag(e, "arithmetic", e.Op.String())
					} else if lsnOrderOps[e.Op] {
						flag(e, "ordering comparison", e.Op.String())
					}
				case *ast.AssignStmt:
					if lsnArithOps[e.Tok] && len(e.Lhs) == 1 && l.exprIsLSN(pkg.info, e.Lhs[0]) {
						flag(e, "arithmetic", e.Tok.String())
					}
				case *ast.IncDecStmt:
					if l.exprIsLSN(pkg.info, e.X) {
						flag(e, "arithmetic", e.Tok.String())
					}
				}
				return true
			})
		}
	}
	return out
}
