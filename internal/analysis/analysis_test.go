package analysis_test

import (
	"path/filepath"
	"strings"
	"testing"

	"socrates/internal/analysis"
)

// loadFixture type-checks one fixture package under testdata/src.
func loadFixture(t *testing.T, loader *analysis.Loader, rel string) *analysis.Package {
	t.Helper()
	dir := filepath.Join("testdata", "src", filepath.FromSlash(rel))
	pkg, err := loader.LoadDir(dir, "fixture/"+rel)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", rel, err)
	}
	return pkg
}

func newLoader(t *testing.T) *analysis.Loader {
	t.Helper()
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	return loader
}

// runFixturePair asserts the pass fires on the bad fixture (at least
// wantBad findings, each containing wantSubstr) and stays silent on the
// clean one — including directive validation, so the clean fixture's
// annotations must carry reasons.
func runFixturePair(t *testing.T, pass analysis.Pass, name string, wantBad int, wantSubstr string) {
	t.Helper()
	loader := newLoader(t)

	bad := loadFixture(t, loader, name+"/bad")
	badDiags := pass.Run(bad)
	if len(badDiags) < wantBad {
		t.Fatalf("%s on bad fixture: got %d findings, want >= %d:\n%s",
			pass.Name(), len(badDiags), wantBad, render(badDiags))
	}
	for _, d := range badDiags {
		if d.Pass != pass.Name() {
			t.Errorf("finding from wrong pass: %s", d)
		}
		if !strings.Contains(d.Message, wantSubstr) {
			t.Errorf("finding message %q missing %q", d.Message, wantSubstr)
		}
	}

	clean := loadFixture(t, loader, name+"/clean")
	cleanDiags := append(pass.Run(clean), analysis.CheckDirectives(clean)...)
	if len(cleanDiags) != 0 {
		t.Fatalf("%s on clean fixture: want 0 findings, got:\n%s",
			pass.Name(), render(cleanDiags))
	}
}

func render(diags []analysis.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteString("\n")
	}
	return b.String()
}

func TestErrlintFixtures(t *testing.T) {
	pass := &analysis.Errlint{CriticalPkgs: []string{"fixture/errlint"}}
	runFixturePair(t, pass, "errlint", 3, "durability-critical")
}

func TestLSNLintFixtures(t *testing.T) {
	runFixturePair(t, analysis.NewLSNLint(), "lsnlint", 4, "raw LSN")
}

func TestSleeplintFixtures(t *testing.T) {
	runFixturePair(t, analysis.DefaultSleeplint(), "sleeplint", 1, "time.Sleep")
}

func TestCtxLintFixtures(t *testing.T) {
	pass := &analysis.CtxLint{InterTierPkgs: []string{"fixture/ctxlint"}}
	runFixturePair(t, pass, "ctxlint", 9, "//socrates:ctx-ok")
}

// TestCtxLintFindsExactSites pins each ctxlint failure mode to the fixture
// so one check's regression cannot hide behind another.
func TestCtxLintFindsExactSites(t *testing.T) {
	loader := newLoader(t)
	bad := loadFixture(t, loader, "ctxlint/bad")
	diags := (&analysis.CtxLint{InterTierPkgs: []string{"fixture/ctxlint"}}).Run(bad)
	var notFirst, todo, noCtx, rawDial, noDeadline int
	for _, d := range diags {
		switch {
		case strings.Contains(d.Message, "first parameter"):
			notFirst++
		case strings.Contains(d.Message, "context.TODO"):
			todo++
		case strings.Contains(d.Message, "accepts no context.Context"):
			noCtx++
		case strings.Contains(d.Message, "raw net.Dial"):
			rawDial++
		case strings.Contains(d.Message, "no deadline"):
			noDeadline++
		}
	}
	// Refresh trips both the TODO check and the missing-context check, Ping
	// both the missing-context check and the deadline check.
	if notFirst != 1 || todo != 1 || noCtx != 2 || rawDial != 2 || noDeadline != 3 {
		t.Fatalf("ctxlint check coverage: notFirst=%d todo=%d noCtx=%d rawDial=%d noDeadline=%d\n%s",
			notFirst, todo, noCtx, rawDial, noDeadline, render(diags))
	}
}

// TestMuxLintFixtures holds ctxlint's fabric checks (4 and 5, which began as
// a pass of their own) to ctxlint's fixture pair: each fabric case of the bad
// fixture is reported, and the clean fixture is silent under Run, whose
// stale-waiver check proves warm's ctx-ok is what suppresses check 5 there.
func TestMuxLintFixtures(t *testing.T) {
	loader := newLoader(t)
	pass := &analysis.CtxLint{InterTierPkgs: []string{"fixture/ctxlint"}}
	var fabric []analysis.Diagnostic
	for _, d := range pass.Run(loadFixture(t, loader, "ctxlint/bad")) {
		if strings.Contains(d.Message, "fabric") {
			fabric = append(fabric, d)
		}
	}
	if len(fabric) != 5 {
		t.Fatalf("fabric checks on bad fixture: got %d findings, want 5:\n%s", len(fabric), render(fabric))
	}
	clean := loadFixture(t, loader, "ctxlint/clean")
	if diags := analysis.Run([]*analysis.Package{clean}, []analysis.Pass{pass}); len(diags) != 0 {
		t.Fatalf("ctxlint on clean fixture: want 0 findings, got:\n%s", render(diags))
	}
}

// TestMuxLintFindsExactSites pins each fabric finding of ctxlint/bad to its
// line: the two raw dials, the three unbounded wire calls, and Refresh's TODO
// at a fabric Call, which is check 2's alone and so is reported once.
func TestMuxLintFindsExactSites(t *testing.T) {
	bad := loadFixture(t, newLoader(t), "ctxlint/bad")
	got := make(map[int][]string)
	for _, d := range (&analysis.CtxLint{InterTierPkgs: []string{"fixture/ctxlint"}}).Run(bad) {
		got[d.Pos.Line] = append(got[d.Pos.Line], d.Message)
	}
	want := map[int]string{
		27: "context.TODO",
		35: "no deadline",
		41: "raw net.Dial ",
		46: "raw net.DialTimeout ",
		51: "no deadline",
		57: "no deadline",
	}
	for line, substr := range want {
		if len(got[line]) != 1 || !strings.Contains(got[line][0], substr) {
			t.Errorf("bad.go:%d: want one finding containing %q, got %q", line, substr, got[line])
		}
	}
}

// TestDirectiveValidation ensures malformed annotations are themselves
// diagnostics.
func TestDirectiveValidation(t *testing.T) {
	loader := newLoader(t)
	pkg := loadFixture(t, loader, "directives/bad")
	diags := analysis.CheckDirectives(pkg)
	var unknown, missing int
	for _, d := range diags {
		switch {
		case strings.Contains(d.Message, "unknown directive"):
			unknown++
		case strings.Contains(d.Message, "needs a reason"):
			missing++
		}
	}
	if unknown != 1 || missing != 1 {
		t.Fatalf("directive validation: unknown=%d missing=%d\n%s", unknown, missing, render(diags))
	}
}

// TestUnusedDirectives pins the stale-waiver check: a waiver whose pass ran
// and matched nothing is a finding, one whose pass did not run is not, and
// every waiver of the clean fixture — on a statement, at the end of a line,
// in a doc comment — is used.
func TestUnusedDirectives(t *testing.T) {
	run := func(rel string, passes []analysis.Pass) []analysis.Diagnostic {
		return analysis.Run([]*analysis.Package{loadFixture(t, newLoader(t), rel)}, passes)
	}
	var unused []analysis.Diagnostic
	for _, d := range run("directives/bad", analysis.AllPasses()) {
		if strings.Contains(d.Message, "suppresses no") {
			unused = append(unused, d)
		}
	}
	if len(unused) != 1 || unused[0].Pos.Line != 18 || !strings.Contains(unused[0].Message, "sleep-ok suppresses no sleeplint finding") {
		t.Fatalf("want the one stale sleep-ok in Stale reported:\n%s", render(unused))
	}
	for _, d := range run("directives/bad", []analysis.Pass{analysis.NewLSNLint()}) {
		if strings.Contains(d.Message, "suppresses no") {
			t.Fatalf("reported a waiver whose pass did not run: %s", d)
		}
	}
	if diags := run("directives/clean", analysis.AllPasses()); len(diags) != 0 {
		t.Fatalf("clean directive fixture: want 0 findings, got:\n%s", render(diags))
	}
}

// TestRunOrdersFindings checks the combined runner sorts by position.
func TestRunOrdersFindings(t *testing.T) {
	loader := newLoader(t)
	bad := loadFixture(t, loader, "lsnlint/bad")
	diags := analysis.Run([]*analysis.Package{bad}, []analysis.Pass{analysis.NewLSNLint()})
	for i := 1; i < len(diags); i++ {
		if diags[i].Pos.Filename == diags[i-1].Pos.Filename && diags[i].Pos.Line < diags[i-1].Pos.Line {
			t.Fatalf("findings out of order:\n%s", render(diags))
		}
	}
	if len(diags) == 0 {
		t.Fatal("expected findings from lsnlint/bad")
	}
}

// TestLoaderLoadsRepoPackage proves the module-aware loader type-checks a
// real cross-importing package of this repo.
func TestLoaderLoadsRepoPackage(t *testing.T) {
	loader := newLoader(t)
	dir := filepath.Join(loader.Root, "internal", "pageserver")
	pkg, err := loader.LoadDir(dir, loader.Module+"/internal/pageserver")
	if err != nil {
		t.Fatalf("loading internal/pageserver: %v", err)
	}
	if pkg.Pkg.Name() != "pageserver" {
		t.Fatalf("got package %q", pkg.Pkg.Name())
	}
}
