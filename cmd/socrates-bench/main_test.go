package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"socrates/internal/experiments"
)

// TestUnknownExperimentExits2 runs the built command: a name -exp does not
// know must stop it with exit 2 and the registry's names on stderr, before
// anything runs (`-exp tabel6` used to run nothing and exit 0), also when
// the typo sits beside a good name.
func TestUnknownExperimentExits2(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "socrates-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, exp := range []string{"tabel6", experiments.All[0].Name + ",tabel6", "cache", ""} {
		var stderr strings.Builder
		cmd := exec.Command(bin, "-exp", exp)
		cmd.Stderr = &stderr
		stdout, err := cmd.Output()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("-exp %q: err = %v, want exit status 2", exp, err)
		}
		if len(stdout) != 0 {
			t.Errorf("-exp %q ran something before rejecting the name:\n%s", exp, stdout)
		}
		for _, e := range experiments.All {
			if !strings.Contains(stderr.String(), e.Name) {
				t.Errorf("-exp %q: stderr does not list %q:\n%s", exp, e.Name, stderr.String())
			}
		}
	}
}
