package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseBody wraps a statement list in a function and returns its body.
func parseBody(t *testing.T, body string) *ast.BlockStmt {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f.Decls[0].(*ast.FuncDecl).Body
}

func TestCFGReachesExit(t *testing.T) {
	cases := []struct {
		name string
		body string
		want bool
	}{
		{"straight_line", "x := 1\n_ = x", true},
		{"forever", "for {\n}", false},
		{"forever_with_work", "x := 0\nfor {\nx++\n}", false},
		{"forever_then_dead_code", "for {\n}\nprintln(1)", false},
		{"loop_with_break", "for {\nbreak\n}", true},
		{"loop_with_cond", "for i := 0; i < 3; i++ {\n}", true},
		{"range_terminates", "xs := []int{1}\nfor range xs {\n}", true},
		{"select_case_returns", "for {\nselect {\ncase <-make(chan int):\nreturn\n}\n}", true},
		{"select_no_return", "for {\nselect {\ncase <-make(chan int):\nprintln(1)\n}\n}", false},
		{"if_both_return", "if true {\nreturn\n} else {\nreturn\n}", true},
		{"return_then_dead_forever", "return\nfor {\n}", true},
		{"labeled_break_out", "outer:\nfor {\nfor {\nbreak outer\n}\n}", true},
		{"goto_out_of_loop", "for {\ngoto done\n}\ndone:\nprintln(1)", true},
		{"switch_falls_through_to_exit", "switch 1 {\ncase 1:\nprintln(1)\n}", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := buildCFG(parseBody(t, tc.body))
			if got := cfg.reachesExit(); got != tc.want {
				t.Fatalf("ReachesExit = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestCFGCollectsDefers(t *testing.T) {
	cfg := buildCFG(parseBody(t, "defer println(1)\nif true {\ndefer println(2)\n}"))
	if len(cfg.defers) != 2 {
		t.Fatalf("got %d defers, want 2", len(cfg.defers))
	}
}

// assignedVars is a toy flow problem: the set of variable names assigned
// so far, joined by union.
type assignedVars struct{}

func (assignedVars) Entry() fact { return map[string]bool{} }

func (assignedVars) Transfer(n ast.Node, f fact) fact {
	set := f.(map[string]bool)
	as, ok := n.(*ast.AssignStmt)
	if !ok {
		return f
	}
	out := make(map[string]bool, len(set)+1)
	for k := range set {
		out[k] = true
	}
	for _, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			out[id.Name] = true
		}
	}
	return out
}

func (assignedVars) Join(a, b fact) fact {
	as, bs := a.(map[string]bool), b.(map[string]bool)
	out := make(map[string]bool, len(as)+len(bs))
	for k := range as {
		out[k] = true
	}
	for k := range bs {
		out[k] = true
	}
	return out
}

func (assignedVars) Equal(a, b fact) bool {
	as, bs := a.(map[string]bool), b.(map[string]bool)
	if len(as) != len(bs) {
		return false
	}
	for k := range as {
		if !bs[k] {
			return false
		}
	}
	return true
}

func TestSolveForwardJoinsBranches(t *testing.T) {
	body := parseBody(t, `
x := 1
if x > 0 {
	y := 2
	_ = y
} else {
	z := 3
	_ = z
}
`)
	cfg := buildCFG(body)
	out := solveForward(cfg, assignedVars{})
	exit := exitFact(cfg, assignedVars{}, out)
	if exit == nil {
		t.Fatal("exit unreachable")
	}
	got := exit.(map[string]bool)
	for _, want := range []string{"x", "y", "z"} {
		if !got[want] {
			t.Fatalf("exit fact missing %q: %v", want, got)
		}
	}
}

func TestSolveForwardLoopFixpoint(t *testing.T) {
	body := parseBody(t, `
i := 0
for i < 10 {
	j := i
	_ = j
	i = i + 1
}
`)
	cfg := buildCFG(body)
	out := solveForward(cfg, assignedVars{})
	exit := exitFact(cfg, assignedVars{}, out)
	got := exit.(map[string]bool)
	if !got["i"] || !got["j"] {
		t.Fatalf("loop facts did not converge: %v", got)
	}
}

func TestSolveForwardForeverLoopHasNilExit(t *testing.T) {
	cfg := buildCFG(parseBody(t, "x := 1\nfor {\n_ = x\n}"))
	out := solveForward(cfg, assignedVars{})
	if exit := exitFact(cfg, assignedVars{}, out); exit != nil {
		t.Fatalf("want nil exit fact for forever loop, got %v", exit)
	}
}
