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
	pass := analysis.NewErrlint([]string{"fixture/errlint"})
	runFixturePair(t, pass, "errlint", 3, "durability-critical")
}

func TestLSNLintFixtures(t *testing.T) {
	runFixturePair(t, analysis.NewLSNLint(), "lsnlint", 4, "raw LSN")
}

func TestSleeplintFixtures(t *testing.T) {
	runFixturePair(t, analysis.DefaultSleeplint(), "sleeplint", 1, "time.Sleep")
}

func TestAtomicLintFixtures(t *testing.T) {
	runFixturePair(t, analysis.NewAtomicLint(), "atomiclint", 2, "sync/atomic")
}

func TestCtxLintFixtures(t *testing.T) {
	pass := analysis.NewCtxLint([]string{"fixture/ctxlint"})
	runFixturePair(t, pass, "ctxlint", 3, "context.")
}

func TestObsLintFixtures(t *testing.T) {
	pass := analysis.NewObsLint([]string{"fixture/obslint"})
	runFixturePair(t, pass, "obslint", 6, "naming contract")
}

// TestObsLintFindsExactSites pins each obslint failure shape to the fixture
// so one check's regression cannot hide behind another: the bad fixture
// carries exactly six violations (capitalized, namespace-less, mixed-case
// segment, empty segment, named constant, digit-leading segment).
func TestObsLintFindsExactSites(t *testing.T) {
	loader := newLoader(t)
	bad := loadFixture(t, loader, "obslint/bad")
	diags := analysis.NewObsLint([]string{"fixture/obslint"}).Run(bad)
	if len(diags) != 6 {
		t.Fatalf("obslint on bad fixture: got %d findings, want exactly 6:\n%s",
			len(diags), render(diags))
	}
	wantNames := []string{"CommitCount", "pages", "lz.Write.Lat", "lz..latency", "CommitLSN", "compute.9lsn"}
	for _, name := range wantNames {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, `"`+name+`"`) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no finding for bad name %q:\n%s", name, render(diags))
		}
	}
}

// TestCtxLintFindsExactSites pins each ctxlint failure mode to the fixture
// so one check's regression cannot hide behind another.
func TestCtxLintFindsExactSites(t *testing.T) {
	loader := newLoader(t)
	bad := loadFixture(t, loader, "ctxlint/bad")
	diags := analysis.NewCtxLint([]string{"fixture/ctxlint"}).Run(bad)
	var notFirst, todo, noCtx int
	for _, d := range diags {
		switch {
		case strings.Contains(d.Message, "first parameter"):
			notFirst++
		case strings.Contains(d.Message, "context.TODO"):
			todo++
		case strings.Contains(d.Message, "accepts no context.Context"):
			noCtx++
		}
	}
	// Refresh trips both the TODO check and the missing-context check.
	if notFirst != 1 || todo != 1 || noCtx != 2 {
		t.Fatalf("ctxlint check coverage: notFirst=%d todo=%d noCtx=%d\n%s",
			notFirst, todo, noCtx, render(diags))
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

func TestMuxLintFixtures(t *testing.T) {
	runFixturePair(t, analysis.DefaultMuxLint(), "muxlint", 5, "fabric")
}

// TestMuxLintFindsExactSites pins each muxlint failure mode to the
// fixture sites that exercise it.
func TestMuxLintFindsExactSites(t *testing.T) {
	loader := newLoader(t)
	bad := loadFixture(t, loader, "muxlint/bad")
	diags := analysis.DefaultMuxLint().Run(bad)
	var rawDial, noDeadline int
	for _, d := range diags {
		switch {
		case strings.Contains(d.Message, "raw net.Dial"):
			rawDial++
		case strings.Contains(d.Message, "no deadline"):
			noDeadline++
		}
	}
	if rawDial != 2 || noDeadline != 3 {
		t.Fatalf("muxlint check coverage: rawDial=%d noDeadline=%d\n%s",
			rawDial, noDeadline, render(diags))
	}
}
