package analysis

import "go/ast"

// sleeplint flags time.Sleep in non-test code. A sleep-poll loop either
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
type sleeplint struct {
	// exemptPkgs are import-path substrings where sleeping is the point.
	exemptPkgs []string
}

// defaultSleeplint returns sleeplint configured for the Socrates tree.
func defaultSleeplint() *sleeplint {
	return &sleeplint{exemptPkgs: []string{"socrates/internal/simdisk"}}
}

// Name implements lintPass.
func (s *sleeplint) Name() string { return "sleeplint" }

// Run implements lintPass.
func (s *sleeplint) Run(pkg *Package) []diagnostic {
	if containsAny(pkg.path, s.exemptPkgs) {
		return nil
	}
	var out []diagnostic
	for _, f := range pkg.files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			obj := calleeObject(pkg.info, call)
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" || obj.Name() != "Sleep" {
				return true
			}
			if pkg.directiveAt("sleep-ok", call) {
				return true
			}
			out = append(out, pkg.diag("sleeplint", call,
				"time.Sleep polling in non-test code; signal with a sync.Cond or channel instead, or annotate //socrates:sleep-ok <reason>"))
			return true
		})
	}
	return out
}
