package analysis

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// loader parses and type-checks packages of one Go module without any
// third-party machinery: module-local imports are resolved by recursively
// loading the corresponding directory, everything else (the stdlib) is
// delegated to go/importer.
type loader struct {
	fset   *token.FileSet
	module string // module path from go.mod
	root   string // module root directory

	std        types.Importer
	cache      map[string]*Package
	inProgress map[string]bool
}

// NewLoader builds a loader rooted at the module containing dir.
func NewLoader(dir string) (*loader, error) {
	root, module, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	return &loader{
		fset:       token.NewFileSet(),
		module:     module,
		root:       root,
		std:        importer.Default(),
		cache:      make(map[string]*Package),
		inProgress: make(map[string]bool),
	}, nil
}

// findModule walks upward from dir to the enclosing go.mod.
func findModule(dir string) (root, module string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if name, ok := strings.CutPrefix(line, "module "); ok {
					return dir, strings.TrimSpace(name), nil
				}
			}
			return "", "", fmt.Errorf("analysis: no module line in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Import implements types.Importer: module-local paths load from disk,
// everything else goes to the stdlib importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.module), "/")
		pkg, err := l.LoadDir(filepath.Join(l.root, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return pkg.pkg, nil
	}
	return l.std.Import(path)
}

// LoadDir parses and type-checks the non-test Go files in dir under the
// given import path. Results are memoized by import path.
func (l *loader) LoadDir(dir, importPath string) (*Package, error) {
	if pkg, ok := l.cache[importPath]; ok {
		return pkg, nil
	}
	if l.inProgress[importPath] {
		return nil, fmt.Errorf("analysis: import cycle through %s", importPath)
	}
	l.inProgress[importPath] = true
	defer delete(l.inProgress, importPath)

	names, err := goSources(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	tpkg, _ := conf.Check(importPath, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", importPath, typeErrs[0])
	}
	pkg := &Package{
		path:  importPath,
		fset:  l.fset,
		files: files,
		pkg:   tpkg,
		info:  info,
	}
	l.cache[importPath] = pkg
	return pkg, nil
}

// goSources lists the buildable, non-test Go files in dir (sorted).
func goSources(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		ignore, err := buildIgnored(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		if ignore {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// buildIgnored reports whether the file opts out of the build via a
// "//go:build ignore"-style constraint before the package clause.
func buildIgnored(path string) (bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "package ") {
			return false, nil
		}
		if !strings.HasPrefix(line, "//go:build") {
			continue
		}
		expr, err := constraint.Parse(line)
		if err != nil {
			// Malformed constraint: let the compiler complain, not us.
			return false, nil
		}
		// Evaluate against the default build configuration: host
		// GOOS/GOARCH, gc, and no custom tags — so tag-gated fault
		// injections (e.g. chaosfault) and their !tag twins resolve the
		// same way a plain `go build` does, instead of both files landing
		// in one type-check and colliding.
		ok := expr.Eval(func(tag string) bool {
			return tag == runtime.GOOS || tag == runtime.GOARCH ||
				tag == runtime.Compiler || tag == "go1"
		})
		return !ok, nil
	}
	return false, nil
}

// Expand resolves package patterns to directories: "./..." (or "dir/...")
// walks the subtree; anything else names a single directory. Directories
// without buildable Go files, testdata trees, and hidden directories are
// skipped.
func (l *loader) Expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		if base, ok := strings.CutSuffix(pat, "/..."); ok {
			if base == "." || base == "" {
				base = l.root
			}
			err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if name == "testdata" || (len(name) > 1 && (name[0] == '.' || name[0] == '_')) {
					return filepath.SkipDir
				}
				names, err := goSources(path)
				if err != nil {
					return err
				}
				if len(names) > 0 {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		add(pat)
	}
	return dirs, nil
}

// ImportPathFor maps a directory to its module import path.
func (l *loader) ImportPathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.root, abs)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.module, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, l.module)
	}
	return l.module + "/" + filepath.ToSlash(rel), nil
}
