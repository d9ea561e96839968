package main

import (
	"path/filepath"
	"testing"
)

func TestRelPath(t *testing.T) {
	if got := relPath("/repo", "/repo/internal/x/x.go"); got != filepath.Join("internal", "x", "x.go") {
		t.Errorf("relPath inside cwd: %q", got)
	}
	if got := relPath("/repo", "/elsewhere/y.go"); got != "/elsewhere/y.go" {
		t.Errorf("relPath outside cwd should stay absolute: %q", got)
	}
}
