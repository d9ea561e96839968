package analysis_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"socrates/internal/analysis"
)

// TestTestOnlySurface lists every function and method, exported or not,
// that no non-test file of the module reaches, and every struct field and
// package-level variable that no non-test file reads, and holds that list
// to testdata/testonly.golden. Uses are resolved by type (see reachable
// and readVars), so a name shared with a field, a variable or another
// type's method hides nothing. Each golden line carries, after a "#", the
// reason the name stays (goldenTag). Wiring or deleting a listed name
// drops its line; a new one that only tests use adds one. Either way, edit
// the golden in the same change.
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
	t.Fatalf("testdata/testonly.golden is out of date (%d names now have no non-test use):%s",
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
		". Applied",      // a field elsewhere shares the name; nothing reaches the function
		". Stats.Keyed",  // only a composite literal's key names it
		". Stats.Misses", // only assigned and incremented
		". Stats.tested", // only reach_test.go reads it
		". countdown",    // only its own body calls it
		". decodeKey",    // only reach_test.go calls it
		". lastSeen",     // only assigned, directly and by a range clause
		". testedVar",    // only reach_test.go reads it
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
// nothing reaches, and "dir Var" or "dir Type.Field" for each
// package-level variable or field of a package-level struct type that
// nothing reads.
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
	read := readVars(pkgs)
	out := map[string]bool{}
	for i, pkg := range pkgs {
		rel, err := filepath.Rel(loader.Root, dirs[i])
		if err != nil {
			t.Fatal(err)
		}
		list := func(key string) { out[filepath.ToSlash(rel)+" "+key] = true }
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Recv == nil && (decl.Name.Name == "main" || decl.Name.Name == "init") || decl.Name.Name == "_" {
						continue
					}
					if used[pkg.Info.Defs[decl.Name].(*types.Func)] {
						continue
					}
					key := decl.Name.Name
					if decl.Recv != nil {
						key = recvName(decl.Recv.List[0].Type) + "." + key
					}
					list(key)
				case *ast.GenDecl:
					listUnread(decl, pkg.Info, read, list)
				}
			}
		}
	}
	return out
}

// listUnread lists "Var" for each variable decl declares and "Type.Field"
// for each named field of a struct type it declares that read lacks. A
// field with a struct tag counts as read: encoding/json reads it.
func listUnread(decl *ast.GenDecl, info *types.Info, read map[*types.Var]bool, list func(string)) {
	unread := func(name *ast.Ident) bool { return name.Name != "_" && !read[info.Defs[name].(*types.Var)] }
	for _, spec := range decl.Specs {
		switch spec := spec.(type) {
		case *ast.ValueSpec:
			for _, name := range spec.Names {
				if decl.Tok == token.VAR && unread(name) {
					list(name.Name)
				}
			}
		case *ast.TypeSpec:
			st, ok := spec.Type.(*ast.StructType)
			if !ok {
				continue
			}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					if field.Tag == nil && unread(name) {
						list(spec.Name.Name + "." + name.Name)
					}
				}
			}
		}
	}
}

// readVars returns the struct fields and package-level variables of pkgs
// that some non-test file reads. Every use of one is a read but a write:
// the whole target of an assignment, an increment or a range clause, or
// the key of a struct literal. So x.f.g = v reads f and writes g, and
// &x.f, x.f.M() and x.f[i] = v read f.
func readVars(pkgs []*analysis.Package) map[*types.Var]bool {
	read := map[*types.Var]bool{}
	for _, pkg := range pkgs {
		written := map[*ast.Ident]bool{}
		target := func(e ast.Expr) {
			switch e := ast.Unparen(e).(type) {
			case *ast.Ident:
				written[e] = true
			case *ast.SelectorExpr:
				written[e.Sel] = true
			}
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						target(lhs)
					}
				case *ast.IncDecStmt:
					target(n.X)
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN {
						target(n.Key)
						target(n.Value)
					}
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						if v, ok := pkg.Info.Uses[id].(*types.Var); ok && v.IsField() {
							written[id] = true
						}
					}
				}
				return true
			})
		}
		for id, obj := range pkg.Info.Uses {
			if v, ok := obj.(*types.Var); ok && !written[id] {
				read[v.Origin()] = true
			}
		}
	}
	return read
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
