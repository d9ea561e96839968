package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestTestOnlySurface lists every exported function and method whose name
// no non-test file of the module uses, and holds that list to
// testdata/testonly.golden. The scan is by name: a method whose name is
// used on any other type, or through an interface, counts as used, so the
// list undercounts. Wiring or deleting a listed function drops its line;
// a new function that only tests call adds one. Either way, edit the golden
// in the same change.
func TestTestOnlySurface(t *testing.T) {
	root := moduleRoot(t)
	got := testOnlySurface(t, root)
	raw, err := os.ReadFile(filepath.Join("testdata", "testonly.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			want[line] = true
		}
	}
	var add, drop []string
	for name := range got {
		if !want[name] {
			add = append(add, name)
		}
	}
	for name := range want {
		if !got[name] {
			drop = append(drop, name)
		}
	}
	if len(add)+len(drop) == 0 {
		return
	}
	sort.Strings(add)
	sort.Strings(drop)
	var b strings.Builder
	for _, name := range add {
		b.WriteString("\n  add:  " + name)
	}
	for _, name := range drop {
		b.WriteString("\n  drop: " + name)
	}
	t.Fatalf("testdata/testonly.golden is out of date (%d names now have no non-test caller):%s",
		len(got), b.String())
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}

// testOnlySurface parses every non-test .go file under root (testdata and
// hidden directories excluded) and returns "dir Func" or "dir Type.Method"
// for each exported declaration whose name appears nowhere else.
func testOnlySurface(t *testing.T, root string) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	used := map[string]bool{}
	declared := map[*ast.Ident]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		decls := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			key := fn.Name.Name
			if fn.Recv != nil {
				key = recvName(fn.Recv.List[0].Type) + "." + key
			}
			declared[fn.Name] = filepath.ToSlash(rel) + " " + key
			decls[fn.Name] = true
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !decls[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for id, key := range declared {
		if !used[id.Name] {
			out[key] = true
		}
	}
	return out
}

func recvName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
