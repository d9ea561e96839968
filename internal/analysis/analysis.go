// Package analysis is the socrates-vet static-analysis suite: seven
// domain-specific passes, each guarding a cross-tier invariant the paper's
// architecture depends on that no test or other tool guards. Four AST
// passes cover durability-before-ack (errlint), LSN monotonicity
// (lsnlint), no sleep-polling (sleeplint), and what reaches the wire
// (ctxlint: context first, no TODO, no raw dials, no unbounded context
// minted at a fabric call). Three dataflow-aware passes — deadlocklint
// (lock discipline: cross-package lock-ordering cycles, fabric calls,
// sends and I/O under locks, leaked critical sections), leaklint
// (goroutine stop paths, resource closers on every exit path), and
// waitlint (blocking sites in the instrumented tiers must be
// wait-accounted or reviewed) — build on the package's CFG (cfg.go),
// generic forward dataflow solver (dataflow.go), and static call graph
// (callgraph.go). Everything is pure stdlib — go/ast + go/types — and
// runs over type-checked packages produced by the loader.
//
// Intentional violations are annotated in source with directives of the form
//
//	//socrates:<name> <reason>
//
// placed on the offending line, the line above it, above any enclosing
// statement (so annotations stick to multi-line constructs), or (for
// function-scoped directives such as lsn-helper or sleep-ok) in the
// function's doc comment. A directive without a reason is itself a
// diagnostic: the allowlist is only useful if every entry says why.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// diagnostic is one finding from one pass.
type diagnostic struct {
	Pos     token.Position
	Pass    string
	Message string
}

func (d diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Pass, d.Message)
}

// lintPass is one analyzer.
type lintPass interface {
	Name() string
	Run(pkg *Package) []diagnostic
}

// programPass is a pass that needs the whole package set at once (e.g.
// deadlocklint's cross-package lock-ordering graph). Run applies it to
// the full set in one call instead of per package.
type programPass interface {
	lintPass
	RunProgram(pkgs []*Package) []diagnostic
}

// Package is one type-checked package ready for analysis.
type Package struct {
	path  string // import path ("socrates/internal/xlog")
	fset  *token.FileSet
	files []*ast.File
	pkg   *types.Package
	info  *types.Info

	directives map[*ast.File]map[int]directive // line -> directive, per file
	used       map[token.Pos]bool              // directives a lookup has matched
}

// directive is one //socrates:<name> <reason> annotation.
type directive struct {
	name   string
	reason string
	pos    token.Pos
}

const directivePrefix = "//socrates:"

// parseDirective extracts a directive from one comment, if present.
func parseDirective(c *ast.Comment) (directive, bool) {
	text := c.Text
	if !strings.HasPrefix(text, directivePrefix) {
		return directive{}, false
	}
	rest := strings.TrimPrefix(text, directivePrefix)
	name := rest
	reason := ""
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		name, reason = rest[:i], strings.TrimSpace(rest[i+1:])
	}
	return directive{name: name, reason: reason, pos: c.Pos()}, true
}

// fileDirectives lazily builds the line -> directive map for a file.
func (p *Package) fileDirectives(f *ast.File) map[int]directive {
	if p.directives == nil {
		p.directives = make(map[*ast.File]map[int]directive)
	}
	if m, ok := p.directives[f]; ok {
		return m
	}
	m := make(map[int]directive)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if d, ok := parseDirective(c); ok {
				m[p.fset.Position(c.Pos()).Line] = d
			}
		}
	}
	p.directives[f] = m
	return m
}

// fileOf returns the *ast.File containing pos.
func (p *Package) fileOf(pos token.Pos) *ast.File {
	for _, f := range p.files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

// directiveAt reports whether a //socrates:<name> directive covers the node:
// on the node's line, on the line above it, on the first line of (or the
// line above) any enclosing statement, or in the doc comment of the
// enclosing function declaration. A pass asks only where it would
// otherwise report a finding, so a directive that matches is recorded as
// used (see unusedDirectives).
//
// The enclosing-statement rule is what makes directives attach to
// multi-line constructs: a pass may flag an inner node of a composite
// literal or chained call whose position is several lines below the
// statement's first line, and the directive naturally sits above the
// statement, not above the buried subexpression.
func (p *Package) directiveAt(name string, node ast.Node) bool {
	f := p.fileOf(node.Pos())
	if f == nil {
		return false
	}
	m := p.fileDirectives(f)
	covers := func(line int) bool {
		if d, ok := m[line]; ok && d.name == name {
			return p.use(d)
		}
		// Walk up through a contiguous stack of directive lines: several
		// passes may each require an annotation on the same statement
		// (sleep-ok stacked on ignore-err, say), and every directive in
		// the stack binds to it.
		for l := line - 1; ; l-- {
			d, ok := m[l]
			if !ok {
				return false
			}
			if d.name == name {
				return p.use(d)
			}
		}
	}
	if covers(p.fset.Position(node.Pos()).Line) {
		return true
	}
	for _, line := range p.enclosingStmtLines(f, node.Pos()) {
		if covers(line) {
			return true
		}
	}
	if fn := p.enclosingFunc(f, node.Pos()); fn != nil {
		return p.funcDirective(fn, name)
	}
	return false
}

// use records that d covered a finding.
func (p *Package) use(d directive) bool {
	if p.used == nil {
		p.used = make(map[token.Pos]bool)
	}
	p.used[d.pos] = true
	return true
}

// enclosingStmtLines reports the starting lines of every statement
// enclosing pos (innermost to outermost), deduplicated.
func (p *Package) enclosingStmtLines(f *ast.File, pos token.Pos) []int {
	var lines []int
	seen := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if n.Pos() > pos || pos >= n.End() {
			return false // pos not inside; skip subtree
		}
		if _, ok := n.(ast.Stmt); ok {
			if line := p.fset.Position(n.Pos()).Line; !seen[line] {
				seen[line] = true
				lines = append(lines, line)
			}
		}
		return true
	})
	return lines
}

// funcDirective reports whether the package's function declaration fn
// carries the named directive in its doc comment, recording a match as
// used like DirectiveAt does.
func (p *Package) funcDirective(fn *ast.FuncDecl, name string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if d, ok := parseDirective(c); ok && d.name == name {
			return p.use(d)
		}
	}
	return false
}

// enclosingFunc finds the function declaration containing pos.
func (p *Package) enclosingFunc(f *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, decl := range f.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Pos() <= pos && pos <= fn.End() {
			return fn
		}
	}
	return nil
}

// diag builds a diagnostic at the node's position.
func (p *Package) diag(pass string, node ast.Node, format string, args ...any) diagnostic {
	return diagnostic{
		Pos:     p.fset.Position(node.Pos()),
		Pass:    pass,
		Message: fmt.Sprintf(format, args...),
	}
}

// knownDirectives maps every directive name to the pass that consumes it;
// anything else spelled //socrates:... is a typo worth flagging.
var knownDirectives = map[string]string{
	"ignore-err": "errlint",      // intentionally dropped error
	"lsn-helper": "lsnlint",      // function is an approved LSN-ordering helper
	"lsn-ok":     "lsnlint",      // one approved raw-LSN expression
	"lock-ok":    "deadlocklint", // reviewed lock-discipline exception
	"sleep-ok":   "sleeplint",    // intentional sleep (pacing, backoff, simulation)
	"ctx-ok":     "ctxlint",      // reviewed context or fabric exception
	"hotpath":    "waitlint",     // opts in: lock acquisitions in the function are wait sites
	"leak-ok":    "leaklint",     // reviewed goroutine/resource lifetime exception
	"wait-ok":    "waitlint",     // reviewed benign wait (idle loop, cadence tick, accounted elsewhere)
}

// unusedDirectives reports every waiver in the package that no lookup
// matched although its pass ran: it suppresses nothing, so it has outlived
// the code it was written for. hotpath is exempt — it opts a function in
// rather than waiving a finding.
func (p *Package) unusedDirectives(ran map[string]bool) []diagnostic {
	var out []diagnostic
	for _, f := range p.files {
		for _, d := range p.fileDirectives(f) {
			pass := knownDirectives[d.name]
			if d.name == "hotpath" || !ran[pass] || p.used[d.pos] {
				continue
			}
			out = append(out, diagnostic{
				Pos:     p.fset.Position(d.pos),
				Pass:    "directive",
				Message: fmt.Sprintf("//socrates:%s suppresses no %s finding; delete it", d.name, pass),
			})
		}
	}
	return out
}

// checkDirectives validates every //socrates: annotation in the package:
// unknown names and missing reasons are diagnostics, so the allowlist
// itself stays auditable.
func checkDirectives(pkg *Package) []diagnostic {
	var out []diagnostic
	for _, f := range pkg.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c)
				if !ok {
					continue
				}
				if knownDirectives[d.name] == "" {
					out = append(out, diagnostic{
						Pos:     pkg.fset.Position(d.pos),
						Pass:    "directive",
						Message: fmt.Sprintf("unknown directive //socrates:%s", d.name),
					})
					continue
				}
				if d.reason == "" {
					out = append(out, diagnostic{
						Pos:     pkg.fset.Position(d.pos),
						Pass:    "directive",
						Message: fmt.Sprintf("//socrates:%s needs a reason", d.name),
					})
				}
			}
		}
	}
	return out
}

// AllPasses returns the full suite in its default (repo) configuration.
func AllPasses() []lintPass {
	return []lintPass{
		defaultErrlint(),
		newLSNLint(),
		defaultSleeplint(),
		defaultCtxLint(),
		newDeadlockLint(),
		newLeakLint(),
		newWaitLint(),
	}
}

// Run applies the passes (plus directive validation) to every package and
// returns the combined, position-sorted findings. ProgramPasses see the
// whole package set in one call; ordinary passes run per package. Once
// they have run, every waiver of a pass that ran and suppressed nothing is
// a finding too.
func Run(pkgs []*Package, passes []lintPass) []diagnostic {
	var out []diagnostic
	for _, pkg := range pkgs {
		out = append(out, checkDirectives(pkg)...)
	}
	ran := make(map[string]bool)
	for _, pass := range passes {
		ran[pass.Name()] = true
		if pp, ok := pass.(programPass); ok {
			out = append(out, pp.RunProgram(pkgs)...)
			continue
		}
		for _, pkg := range pkgs {
			out = append(out, pass.Run(pkg)...)
		}
	}
	for _, pkg := range pkgs {
		out = append(out, pkg.unusedDirectives(ran)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Pass < b.Pass
	})
	return out
}

// --- shared type helpers ---

// calleeObject resolves the called function/method object, or nil.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		return info.Uses[fn.Sel]
	}
	return nil
}

// calleePkgPath reports the defining package path of the callee ("" for
// builtins and type conversions).
func calleePkgPath(info *types.Info, call *ast.CallExpr) string {
	obj := calleeObject(info, call)
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
