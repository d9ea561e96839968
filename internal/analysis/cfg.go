package analysis

// Control-flow graph construction: the shared skeleton under the
// dataflow-aware passes (leaklint's all-exit-paths resource checks,
// deadlocklint's held-set propagation, waitlint's open-region facts).
//
// The model follows golang.org/x/tools/go/cfg in spirit but stays inside
// this package's pure-stdlib charter: a CFG is a set of basic blocks whose
// nodes slices hold the straight-line work of the function in execution
// order. Control statements contribute their *evaluated parts* to the
// block in which they execute — an IfStmt contributes its Cond expression,
// a SwitchStmt its Tag, a RangeStmt itself (as the header) — while their
// bodies become successor blocks. Clients therefore never need to recurse
// into nested control flow when transferring facts across a block: every
// executed expression/statement appears in exactly one block's Nodes.
//
// Panics and runtime.Goexit are not modeled: an exit path in this CFG is a
// return or falling off the end of the function. Deferred calls are
// collected in cfg.defers (they run on every exit path, in reverse order)
// and additionally appear as DeferStmt nodes in their registration block.

import (
	"go/ast"
	"go/token"
)

// cfgBlock is one basic block.
type cfgBlock struct {
	// nodes are the straight-line AST parts executed in this block, in
	// order: plain statements, condition expressions of enclosing control
	// statements, range/select/type-switch headers.
	nodes []ast.Node
	succs []*cfgBlock
	preds []*cfgBlock
}

// cfg is the control-flow graph of one function body.
type cfg struct {
	entry  *cfgBlock
	exit   *cfgBlock // synthetic: every return and fall-off-the-end leads here
	blocks []*cfgBlock
	// defers are the DeferStmts of the function in registration order;
	// they execute on every exit path in reverse order.
	defers []*ast.DeferStmt
}

// reachesExit reports whether any path from the entry reaches the exit
// block — false for bodies that provably loop forever. This is a real
// reachability walk, not a predecessor count: dead-code blocks (after a
// `for {}`, after a return) are linked to the exit for navigability but
// are themselves unreachable from the entry.
func (c *cfg) reachesExit() bool {
	seen := make(map[*cfgBlock]bool, len(c.blocks))
	stack := []*cfgBlock{c.entry}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b == c.exit {
			return true
		}
		if seen[b] {
			continue
		}
		seen[b] = true
		stack = append(stack, b.succs...)
	}
	return false
}

type cfgLoop struct {
	breakTo    *cfgBlock
	continueTo *cfgBlock
	label      string
}

type cfgBuilder struct {
	cfg    *cfg
	cur    *cfgBlock
	loops  []cfgLoop // innermost last; also covers switch/select break targets (continueTo nil)
	labels map[string]*cfgBlock
	gotos  []struct {
		from  *cfgBlock
		label string
	}
	// fallthroughTo is the next case block while building a switch body.
	fallthroughTo *cfgBlock
}

// buildCFG constructs the CFG of a function body. The body may come from a
// FuncDecl or a FuncLit; nested function literals are NOT descended into
// (their bodies execute on their own schedule and get their own CFGs).
func buildCFG(body *ast.BlockStmt) *cfg {
	b := &cfgBuilder{
		cfg:    &cfg{},
		labels: make(map[string]*cfgBlock),
	}
	b.cfg.entry = b.newBlock()
	b.cfg.exit = b.newBlock()
	b.cur = b.cfg.entry
	b.stmts(body.List)
	// Falling off the end of the body returns.
	b.link(b.cur, b.cfg.exit)
	// Resolve pending gotos now that every label has a block.
	for _, g := range b.gotos {
		if target, ok := b.labels[g.label]; ok {
			b.link(g.from, target)
		}
	}
	return b.cfg
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{}
	b.cfg.blocks = append(b.cfg.blocks, blk)
	return blk
}

// link adds an edge a→z. Edges out of a detached (dead-code) block are
// still recorded so the block structure stays navigable, but a nil source
// is ignored.
func (b *cfgBuilder) link(a, z *cfgBlock) {
	if a == nil || z == nil {
		return
	}
	a.succs = append(a.succs, z)
	z.preds = append(z.preds, a)
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// isPanicCall recognizes a call statement that never returns: the builtin
// panic, or os.Exit / log.Fatal-shaped terminators by name.
func isPanicCall(s ast.Stmt) bool {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name == "panic"
	case *ast.SelectorExpr:
		if pkg, ok := fn.X.(*ast.Ident); ok {
			switch {
			case pkg.Name == "os" && fn.Sel.Name == "Exit":
				return true
			case pkg.Name == "log" && (fn.Sel.Name == "Fatal" || fn.Sel.Name == "Fatalf" || fn.Sel.Name == "Fatalln"):
				return true
			}
		}
	}
	return false
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch st := s.(type) {
	case *ast.BlockStmt:
		b.stmts(st.List)

	case *ast.ReturnStmt:
		b.cur.nodes = append(b.cur.nodes, st)
		b.link(b.cur, b.cfg.exit)
		b.cur = b.newBlock()

	case *ast.BranchStmt:
		b.branch(st)

	case *ast.LabeledStmt:
		// The labeled statement gets its own block so gotos land on it.
		target := b.newBlock()
		b.link(b.cur, target)
		b.cur = target
		b.labels[st.Label.Name] = target
		switch inner := st.Stmt.(type) {
		case *ast.ForStmt:
			b.forStmt(inner, st.Label.Name)
		case *ast.RangeStmt:
			b.rangeStmt(inner, st.Label.Name)
		case *ast.SwitchStmt:
			b.switchStmt(inner, st.Label.Name)
		case *ast.TypeSwitchStmt:
			b.typeSwitchStmt(inner, st.Label.Name)
		case *ast.SelectStmt:
			b.selectStmt(inner, st.Label.Name)
		default:
			b.stmt(st.Stmt)
		}

	case *ast.IfStmt:
		if st.Init != nil {
			b.stmt(st.Init)
		}
		b.cur.nodes = append(b.cur.nodes, st.Cond)
		cond := b.cur
		then := b.newBlock()
		after := b.newBlock()
		b.link(cond, then)
		b.cur = then
		b.stmts(st.Body.List)
		b.link(b.cur, after)
		if st.Else != nil {
			els := b.newBlock()
			b.link(cond, els)
			b.cur = els
			b.stmt(st.Else)
			b.link(b.cur, after)
		} else {
			b.link(cond, after)
		}
		b.cur = after

	case *ast.ForStmt:
		b.forStmt(st, "")

	case *ast.RangeStmt:
		b.rangeStmt(st, "")

	case *ast.SwitchStmt:
		b.switchStmt(st, "")

	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(st, "")

	case *ast.SelectStmt:
		b.selectStmt(st, "")

	case *ast.DeferStmt:
		b.cfg.defers = append(b.cfg.defers, st)
		b.cur.nodes = append(b.cur.nodes, st)

	default:
		// Straight-line statement (incl. ExprStmt, AssignStmt, GoStmt,
		// SendStmt, IncDecStmt, DeclStmt, EmptyStmt).
		b.cur.nodes = append(b.cur.nodes, s)
		if isPanicCall(s) {
			// Terminates the function; successors are dead code. We link to
			// exit so deferred cleanups are still "reached", matching how
			// leaklint treats a deliberate crash as an exit path.
			b.link(b.cur, b.cfg.exit)
			b.cur = b.newBlock()
		}
	}
}

func (b *cfgBuilder) branch(st *ast.BranchStmt) {
	b.cur.nodes = append(b.cur.nodes, st)
	label := ""
	if st.Label != nil {
		label = st.Label.Name
	}
	switch st.Tok {
	case token.BREAK:
		for i := len(b.loops) - 1; i >= 0; i-- {
			l := b.loops[i]
			if label == "" || l.label == label {
				b.link(b.cur, l.breakTo)
				break
			}
		}
	case token.CONTINUE:
		for i := len(b.loops) - 1; i >= 0; i-- {
			l := b.loops[i]
			if l.continueTo != nil && (label == "" || l.label == label) {
				b.link(b.cur, l.continueTo)
				break
			}
		}
	case token.GOTO:
		b.gotos = append(b.gotos, struct {
			from  *cfgBlock
			label string
		}{b.cur, label})
	case token.FALLTHROUGH:
		b.link(b.cur, b.fallthroughTo)
	}
	b.cur = b.newBlock()
}

func (b *cfgBuilder) forStmt(st *ast.ForStmt, label string) {
	if st.Init != nil {
		b.stmt(st.Init)
	}
	head := b.newBlock()
	body := b.newBlock()
	after := b.newBlock()
	post := head
	if st.Post != nil {
		post = b.newBlock()
	}
	b.link(b.cur, head)
	if st.Cond != nil {
		head.nodes = append(head.nodes, st.Cond)
		b.link(head, body)
		b.link(head, after)
	} else {
		// for {}: after is reachable only via break.
		b.link(head, body)
	}
	b.loops = append(b.loops, cfgLoop{breakTo: after, continueTo: post, label: label})
	b.cur = body
	b.stmts(st.Body.List)
	if st.Post != nil {
		b.link(b.cur, post)
		b.cur = post
		b.stmt(st.Post)
	}
	b.link(b.cur, head)
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(st *ast.RangeStmt, label string) {
	head := b.newBlock()
	head.nodes = append(head.nodes, st) // the header: X evaluation + iteration
	body := b.newBlock()
	after := b.newBlock()
	b.link(b.cur, head)
	b.link(head, body)
	b.link(head, after) // ranges terminate (a closed channel, an exhausted seq)
	b.loops = append(b.loops, cfgLoop{breakTo: after, continueTo: head, label: label})
	b.cur = body
	b.stmts(st.Body.List)
	b.link(b.cur, head)
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = after
}

func (b *cfgBuilder) switchStmt(st *ast.SwitchStmt, label string) {
	if st.Init != nil {
		b.stmt(st.Init)
	}
	if st.Tag != nil {
		b.cur.nodes = append(b.cur.nodes, st.Tag)
	}
	b.caseClauses(st.Body.List, label, func(cc *ast.CaseClause, blk *cfgBlock) {
		for _, e := range cc.List {
			blk.nodes = append(blk.nodes, e)
		}
	})
}

func (b *cfgBuilder) typeSwitchStmt(st *ast.TypeSwitchStmt, label string) {
	if st.Init != nil {
		b.stmt(st.Init)
	}
	b.cur.nodes = append(b.cur.nodes, st.Assign)
	b.caseClauses(st.Body.List, label, func(cc *ast.CaseClause, blk *cfgBlock) {})
}

// caseClauses builds the shared switch/type-switch shape: the dispatch
// block fans out to one block per case; each case flows to after (or to
// the next case via fallthrough). A missing default adds a direct
// dispatch→after edge.
func (b *cfgBuilder) caseClauses(list []ast.Stmt, label string, header func(*ast.CaseClause, *cfgBlock)) {
	dispatch := b.cur
	after := b.newBlock()
	// Pre-create case blocks so fallthrough can target the next one.
	blocks := make([]*cfgBlock, len(list))
	hasDefault := false
	for i, c := range list {
		blocks[i] = b.newBlock()
		if cc, ok := c.(*ast.CaseClause); ok && cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.link(dispatch, after)
	}
	b.loops = append(b.loops, cfgLoop{breakTo: after, label: label})
	for i, c := range list {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		b.link(dispatch, blocks[i])
		header(cc, blocks[i])
		b.cur = blocks[i]
		if i+1 < len(blocks) {
			b.fallthroughTo = blocks[i+1]
		} else {
			b.fallthroughTo = nil
		}
		b.stmts(cc.Body)
		b.link(b.cur, after)
	}
	b.fallthroughTo = nil
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = after
}

func (b *cfgBuilder) selectStmt(st *ast.SelectStmt, label string) {
	dispatch := b.cur
	after := b.newBlock()
	b.loops = append(b.loops, cfgLoop{breakTo: after, label: label})
	for _, c := range st.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.newBlock()
		b.link(dispatch, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.stmts(cc.Body)
		b.link(b.cur, after)
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = after
}
