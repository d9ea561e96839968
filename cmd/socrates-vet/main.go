// Command socrates-vet runs the Socrates-specific static-analysis suite
// (internal/analysis) over the repo. The suite has seven passes: four AST
// passes — errlint, lsnlint, sleeplint, ctxlint — and three dataflow-aware
// passes built on the CFG/dataflow core: deadlocklint (lock discipline:
// cross-package lock-ordering cycles, fabric calls, sends and I/O under
// locks, leaked critical sections), leaklint (goroutine stop paths,
// Ticker/Timer/conn lifetimes) and waitlint (blocking sites must be
// wait-accounted). Each encodes one of the paper's cross-tier invariants; a
// lock copied by value is go vet's copylocks check, and allocation budgets
// are the AllocsPerRun contracts `make allocs` runs.
//
// Every run runs every pass, and then reports each //socrates: waiver that
// suppressed nothing.
//
// Usage:
//
//	socrates-vet [-json] [patterns...]
//
// Patterns are package directories or "dir/..." subtrees (default "./...").
//
// -json emits the findings as a JSON array (machine-readable, stable
// schema: file, line, col, pass, message) instead of file:line:col lines.
//
// Exit status: 0 clean, 1 findings, 2 load/usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"socrates/internal/analysis"
)

// jsonDiag is the stable machine-readable finding schema.
type jsonDiag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Pass    string `json:"pass"`
	Message string `json:"message"`
}

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: socrates-vet [-json] [patterns...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		fatal(err)
	}
	dirs, err := loader.Expand(patterns)
	if err != nil {
		fatal(err)
	}
	var pkgs []*analysis.Package
	for _, dir := range dirs {
		importPath, err := loader.ImportPathFor(dir)
		if err != nil {
			fatal(err)
		}
		pkg, err := loader.LoadDir(dir, importPath)
		if err != nil {
			fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}

	diags := analysis.Run(pkgs, analysis.AllPasses())
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			File:    relPath(cwd, d.Pos.Filename),
			Line:    d.Pos.Line,
			Col:     d.Pos.Column,
			Pass:    d.Pass,
			Message: d.Message,
		})
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range out {
			fmt.Printf("%s:%d:%d: [%s] %s\n", d.File, d.Line, d.Col, d.Pass, d.Message)
		}
	}
	if len(out) > 0 {
		fmt.Fprintf(os.Stderr, "socrates-vet: %d finding(s) in %d package(s)\n", len(out), len(pkgs))
		os.Exit(1)
	}
}

// relPath shortens filename to a cwd-relative path when possible, so
// reports and problem-matcher output are machine-independent.
func relPath(cwd, filename string) string {
	rel, err := filepath.Rel(cwd, filename)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filename
	}
	return rel
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "socrates-vet:", err)
	os.Exit(2)
}
