package analysis

import "go/ast"

// Sleeplint flags time.Sleep in non-test code. A sleep-poll loop either
// wastes a full tick of latency per wakeup (page-server catch-up waits
// stack those ticks directly onto GetPage@LSN tail latency) or burns CPU
// re-checking state that a sync.Cond broadcast or channel close would
// deliver instantly. BtrLog's low-latency logging work makes the same
// point for the log path: signal, don't poll.
//
// Legitimate sleeps exist — simulated device latency (the simdisk
// package's whole purpose), token-bucket pacing, retry backoff — and are
// either in an exempt package or annotated //socrates:sleep-ok <reason>
// (on the line or in the function's doc comment).
type Sleeplint struct {
	// ExemptPkgs are import-path substrings where sleeping is the point.
	ExemptPkgs []string
}

// DefaultSleeplint returns sleeplint configured for the Socrates tree.
func DefaultSleeplint() *Sleeplint {
	return &Sleeplint{ExemptPkgs: []string{"socrates/internal/simdisk"}}
}

// Name implements Pass.
func (s *Sleeplint) Name() string { return "sleeplint" }

// Run implements Pass.
func (s *Sleeplint) Run(pkg *Package) []Diagnostic {
	if containsAny(pkg.Path, s.ExemptPkgs) {
		return nil
	}
	var out []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := calleeObject(pkg.Info, call)
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" || obj.Name() != "Sleep" {
				return true
			}
			if pkg.DirectiveAt("sleep-ok", call) {
				return true
			}
			out = append(out, pkg.diag("sleeplint", call,
				"time.Sleep polling in non-test code; signal with a sync.Cond or channel instead, or annotate //socrates:sleep-ok <reason>"))
			return true
		})
	}
	return out
}
