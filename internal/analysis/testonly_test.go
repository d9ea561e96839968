package analysis_test

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"socrates/internal/analysis"
)

// TestTestOnlySurface lists every function and method, exported or not,
// that no non-test file of the module reaches, and holds that list to
// testdata/testonly.golden. Reach is resolved by type (see reachable), so
// a name shared with a field, a variable or another type's method hides
// nothing. Each golden line carries, after a "#", the reason the name
// stays (goldenTag). Wiring or deleting a listed function drops its line;
// a new function that only tests call adds one. Either way, edit the
// golden in the same change.
func TestTestOnlySurface(t *testing.T) {
	got := testOnlySurface(t, moduleRoot(t))
	raw, err := os.ReadFile(filepath.Join("testdata", "testonly.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, "#")
		if !goldenTag(strings.TrimSpace(reason)) {
			t.Errorf("testdata/testonly.golden: %q has no reason tag (the header lists them)", line)
		}
		want[strings.TrimSpace(name)] = true
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

// goldenTag reports whether reason is one of the reason tags the golden's
// header defines: "public API", "fault hook", "test seam", "bench/", or
// "ROADMAP item " and the item's number.
func goldenTag(reason string) bool {
	switch reason {
	case "public API", "fault hook", "test seam", "bench/":
		return true
	}
	item, ok := strings.CutPrefix(reason, "ROADMAP item ")
	return ok && item != ""
}

// TestTestOnlySurfaceRules pins each reach rule on the module under
// testdata/reach: only the names its fixture marks as test-only are listed.
func TestTestOnlySurfaceRules(t *testing.T) {
	got := testOnlySurface(t, filepath.Join("testdata", "reach"))
	want := []string{
		". Applied",   // a field elsewhere shares the name; nothing reaches the function
		". countdown", // only its own body calls it
		". decodeKey", // only reach_test.go calls it
	}
	var names []string
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	if strings.Join(names, "\n") != strings.Join(want, "\n") {
		t.Fatalf("test-only surface of testdata/reach:\n got  %q\n want %q", names, want)
	}
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

// implicitMethods are the std interfaces a program satisfies without
// naming them: fmt calls String and Format, errors.Is/As/Unwrap call
// Error, Unwrap and Is, encoding/json calls MarshalJSON, net/http calls
// ServeHTTP, and io's helpers find Close, Read and Write by assertion.
var implicitMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true,
	"Error": true, "Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "ServeHTTP": true,
	"Close": true, "Read": true, "Write": true,
}

// testOnlySurface type-checks every non-test package of the module rooted
// at root (testdata and hidden directories excluded) and returns
// "dir Func" or "dir Type.Method" for each function or method that
// nothing reaches.
func testOnlySurface(t *testing.T, root string) map[string]bool {
	t.Helper()
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := loader.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*analysis.Package
	for _, dir := range dirs {
		path, err := loader.ImportPathFor(dir)
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := loader.LoadDir(dir, path)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	used := reachable(pkgs)
	out := map[string]bool{}
	for _, pkg := range pkgs {
		rel, err := filepath.Rel(loader.Root, pkg.Dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv == nil && (fn.Name.Name == "main" || fn.Name.Name == "init") || fn.Name.Name == "_" {
					continue
				}
				obj := pkg.Info.Defs[fn.Name].(*types.Func)
				if used[obj] {
					continue
				}
				key := fn.Name.Name
				if fn.Recv != nil {
					key = recvName(fn.Recv.List[0].Type) + "." + key
				}
				out[filepath.ToSlash(rel)+" "+key] = true
			}
		}
	}
	return out
}

// reachable returns the functions and methods of pkgs that a program
// reaches: some declaration other than the function's own names it (a
// call, a method value, a promoted selector, an instantiation of a generic
// one), or it is a method of a type that satisfies an interface the
// module's code mentions and the interface has a method of that name, or
// it is one of the implicitMethods.
func reachable(pkgs []*analysis.Package) map[*types.Func]bool {
	used := map[*types.Func]bool{}
	ifaces := map[*types.Interface]bool{}
	var named []*types.Named
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				self, _ := pkg.Info.Defs[declName(decl)].(*types.Func)
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := pkg.Info.Uses[id].(*types.Func); ok && fn.Origin() != self {
							used[fn.Origin()] = true
						}
					}
					return true
				})
			}
		}
		for _, tv := range pkg.Info.Types {
			collectInterfaces(tv.Type, ifaces, map[types.Type]bool{})
		}
		for _, obj := range pkg.Info.Defs {
			if obj == nil {
				continue
			}
			collectInterfaces(obj.Type(), ifaces, map[types.Type]bool{})
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok {
					named = append(named, n)
				}
			}
		}
	}
	for _, n := range named {
		if _, ok := n.Underlying().(*types.Interface); ok {
			continue
		}
		mark := func(name string) {
			obj, _, _ := types.LookupFieldOrMethod(n, true, n.Obj().Pkg(), name)
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
		for i := 0; i < n.NumMethods(); i++ {
			if implicitMethods[n.Method(i).Name()] {
				mark(n.Method(i).Name())
			}
		}
		ptr := types.NewPointer(n)
		for iface := range ifaces {
			if !types.Implements(n, iface) && !types.Implements(ptr, iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				mark(iface.Method(i).Name())
			}
		}
	}
	return used
}

// collectInterfaces adds every non-empty interface that t is or is built
// from (pointers, slices, maps, channels, signatures and struct fields).
func collectInterfaces(t types.Type, out map[*types.Interface]bool, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch u := t.(type) {
	case *types.Named:
		if iface, ok := u.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
			out[iface] = true
		}
	case *types.Interface:
		if u.NumMethods() > 0 {
			out[u] = true
		}
	case *types.Pointer:
		collectInterfaces(u.Elem(), out, seen)
	case *types.Slice:
		collectInterfaces(u.Elem(), out, seen)
	case *types.Array:
		collectInterfaces(u.Elem(), out, seen)
	case *types.Chan:
		collectInterfaces(u.Elem(), out, seen)
	case *types.Map:
		collectInterfaces(u.Key(), out, seen)
		collectInterfaces(u.Elem(), out, seen)
	case *types.Signature:
		for _, tuple := range []*types.Tuple{u.Params(), u.Results()} {
			for i := 0; i < tuple.Len(); i++ {
				collectInterfaces(tuple.At(i).Type(), out, seen)
			}
		}
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			collectInterfaces(u.Field(i).Type(), out, seen)
		}
	}
}

func declName(decl ast.Decl) *ast.Ident {
	if fn, ok := decl.(*ast.FuncDecl); ok {
		return fn.Name
	}
	return nil
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
