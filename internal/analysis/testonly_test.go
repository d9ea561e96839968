package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestTestOnlySurface lists every function and method, exported or not,
// that no non-test file of the module reaches, and every struct field and
// package-level variable that no non-test file reads, and holds that list
// to testdata/testonly.golden. Uses are resolved by type (see reachable
// and readVars), so a name shared with a field, a variable or another
// type's method hides nothing. Each golden line carries, after a "#", the
// reason the name stays (testOnlyTag). Wiring or deleting a listed name
// drops its line; a new one that only tests use adds one. Either way, edit
// the golden in the same change.
func TestTestOnlySurface(t *testing.T) {
	got := testOnlySurface(repoModule(t))
	t.Logf("test-only surface: %d names", len(got))
	checkGolden(t, "testonly.golden", got, testOnlyTag)
}

// TestOwnPackageSurface lists every exported name of the module's non-main
// packages that no non-test file outside its own package names (see
// ownPackageSurface) and holds that list to testdata/ownpackage.golden,
// each line with its reason (ownPackageTag). A name that only its own
// package uses is unexported instead of listed; one that loses its last
// use is deleted.
func TestOwnPackageSurface(t *testing.T) {
	m := repoModule(t)
	got := ownPackageSurface(m)
	t.Logf("own-package surface: %d of %d exported names", len(got), len(exportedNames(m)))
	checkGolden(t, "ownpackage.golden", got, ownPackageTag)
}

// checkGolden holds got to testdata/<file>: one "name # reason" line per
// name, each reason one that tag accepts, "#" lines a header.
func checkGolden(t *testing.T, file string, got map[string]bool, tag func(string) bool) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, "#")
		if !tag(strings.TrimSpace(reason)) {
			t.Errorf("testdata/%s: %q has no reason tag (the header lists them)", file, line)
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
	t.Fatalf("testdata/%s is out of date (%d names listed now):%s", file, len(got), b.String())
}

// testOnlyTag reports whether reason is one of the reason tags
// testonly.golden's header defines: "public API", "fault hook", "test
// seam", "bench/", or "ROADMAP item " and the item's number.
func testOnlyTag(reason string) bool {
	switch reason {
	case "public API", "bench/":
		return true
	}
	return ownPackageTag(reason)
}

// ownPackageTag reports whether reason is one of the reason tags
// ownpackage.golden's header defines: "fault hook", "test seam",
// "socrates-vet", or "ROADMAP item " and the item's number.
func ownPackageTag(reason string) bool {
	switch reason {
	case "fault hook", "test seam", "socrates-vet":
		return true
	}
	item, ok := strings.CutPrefix(reason, "ROADMAP item ")
	return ok && item != ""
}

// TestTestOnlySurfaceRules pins each reach rule on the module under
// testdata/reach: only the names its fixture marks as test-only are listed.
func TestTestOnlySurfaceRules(t *testing.T) {
	got := testOnlySurface(loadModule(t, filepath.Join("testdata", "reach")))
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
	checkList(t, "test-only", got, want)
}

// TestOwnPackageSurfaceRules pins each rule of the own-package scan on the
// module under testdata/reach, whose package lib has one name per rule.
func TestOwnPackageSurfaceRules(t *testing.T) {
	got := ownPackageSurface(loadModule(t, filepath.Join("testdata", "reach")))
	want := []string{
		"lib Counter.Home", // only lib reads it
		"lib HomeOnly",     // only lib calls it
		"lib TestedOnly",   // only package main's test names it
		// not listed: Used and Counter.Hits (main names them), Counter.Sized
		// (main's Sizer requires it), Counter.Tagged (tagged) and Row.Cell
		// (main re-exports Row by an alias)
	}
	checkList(t, "own-package", got, want)
}

func checkList(t *testing.T, scan string, got map[string]bool, want []string) {
	t.Helper()
	var names []string
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	if strings.Join(names, "\n") != strings.Join(want, "\n") {
		t.Fatalf("%s surface of testdata/reach:\n got  %q\n want %q", scan, names, want)
	}
}

// module is one type-checked load of a module's non-test packages; dirs[i]
// is pkgs[i]'s directory relative to the module root, slash-separated.
type module struct {
	dirs []string
	pkgs []*Package
}

var repo struct {
	once sync.Once
	m    *module
}

// repoModule loads the module this package sits in, once for every test
// that scans it.
func repoModule(t *testing.T) *module {
	t.Helper()
	repo.once.Do(func() { repo.m = loadModule(t, ".") })
	if repo.m == nil {
		t.Fatal("the module failed to load")
	}
	return repo.m
}

// loadModule type-checks every non-test package of the module that holds
// dir (testdata and hidden directories excluded).
func loadModule(t *testing.T, dir string) *module {
	t.Helper()
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := loader.Expand([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	m := &module{}
	for _, dir := range dirs {
		path, err := loader.ImportPathFor(dir)
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := loader.LoadDir(dir, path)
		if err != nil {
			t.Fatal(err)
		}
		rel, err := filepath.Rel(loader.root, dir)
		if err != nil {
			t.Fatal(err)
		}
		m.dirs = append(m.dirs, filepath.ToSlash(rel))
		m.pkgs = append(m.pkgs, pkg)
	}
	return m
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

// testOnlySurface returns "dir Func" or "dir Type.Method" for each
// function or method of m that nothing reaches, and "dir Var" or "dir
// Type.Field" for each package-level variable or field of a package-level
// struct type that nothing reads ("." is the module root).
func testOnlySurface(m *module) map[string]bool {
	used := reachable(m.pkgs)
	read := readVars(m.pkgs)
	out := map[string]bool{}
	for i, pkg := range m.pkgs {
		list := func(key string) { out[m.dirs[i]+" "+key] = true }
		for _, f := range pkg.files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Recv == nil && (decl.Name.Name == "main" || decl.Name.Name == "init") || decl.Name.Name == "_" {
						continue
					}
					if !used[pkg.info.Defs[decl.Name].(*types.Func)] {
						list(funcKey(decl))
					}
				case *ast.GenDecl:
					listUnread(decl, pkg.info, read, list)
				}
			}
		}
	}
	return out
}

// ownPackageSurface returns the exported names of m's non-main packages
// (the root package, the public API, and internal/testutil, which only
// tests import, excluded) that no non-test file outside their package
// names: "dir Name" for a package-level func, type, var or const, "dir
// Type.Method" for a method and "dir Type.Field" for a field of a
// package-level struct type. It does not list a method that an interface
// requires of its type (see required), a field with a struct tag, which
// encoding/json reads by reflection, nor a field or method of a type the
// root package re-exports by an alias (see reexported).
func ownPackageSurface(m *module) map[string]bool {
	outside := map[types.Object]bool{}
	for _, pkg := range m.pkgs {
		for _, obj := range pkg.info.Uses {
			if obj.Pkg() != nil && obj.Pkg() != pkg.pkg {
				outside[origin(obj)] = true
			}
		}
	}
	for i, pkg := range m.pkgs {
		if m.dirs[i] == "." {
			reexported(pkg.pkg, outside)
		}
	}
	req := required(m.pkgs)
	out := map[string]bool{}
	for i, pkg := range m.pkgs {
		if m.dirs[i] == "." || m.dirs[i] == "internal/testutil" || strings.HasPrefix(m.dirs[i], "internal/testutil/") {
			continue
		}
		eachExported(pkg, func(key string, id *ast.Ident, tagged bool) {
			obj := pkg.info.Defs[id]
			if fn, ok := obj.(*types.Func); ok && req[fn] || tagged || outside[obj] {
				return
			}
			out[m.dirs[i]+" "+key] = true
		})
	}
	return out
}

// reexported marks the fields and methods of each type that root
// re-exports by an alias as used outside: they are the public API too.
func reexported(root *types.Package, outside map[types.Object]bool) {
	for _, name := range root.Scope().Names() {
		tn, ok := root.Scope().Lookup(name).(*types.TypeName)
		if !ok || !tn.IsAlias() {
			continue
		}
		n, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < n.NumMethods(); i++ {
			outside[n.Method(i)] = true
		}
		if st, ok := n.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				outside[st.Field(i)] = true
			}
		}
	}
}

// exportedNames returns every name ownPackageSurface weighs, listed or not.
func exportedNames(m *module) []string {
	var names []string
	for i, pkg := range m.pkgs {
		eachExported(pkg, func(key string, _ *ast.Ident, _ bool) { names = append(names, m.dirs[i]+" "+key) })
	}
	return names
}

// eachExported calls yield with the key, the defining identifier and
// whether it is a tagged field, for each exported package-level name,
// method and named field of a package-level struct type that pkg declares.
// A main package exports nothing.
func eachExported(pkg *Package, yield func(key string, id *ast.Ident, tagged bool)) {
	if pkg.pkg.Name() == "main" {
		return
	}
	for _, f := range pkg.files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Name.IsExported() {
					yield(funcKey(decl), decl.Name, false)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							if name.IsExported() {
								yield(name.Name, name, false)
							}
						}
					case *ast.TypeSpec:
						if spec.Name.IsExported() {
							yield(spec.Name.Name, spec.Name, false)
						}
						st, ok := spec.Type.(*ast.StructType)
						if !ok {
							continue
						}
						for _, field := range st.Fields.List {
							for _, name := range field.Names {
								if name.IsExported() {
									yield(spec.Name.Name+"."+name.Name, name, field.Tag != nil)
								}
							}
						}
					}
				}
			}
		}
	}
}

func origin(obj types.Object) types.Object {
	switch obj := obj.(type) {
	case *types.Func:
		return obj.Origin()
	case *types.Var:
		return obj.Origin()
	}
	return obj
}

func funcKey(decl *ast.FuncDecl) string {
	if decl.Recv == nil {
		return decl.Name.Name
	}
	return recvName(decl.Recv.List[0].Type) + "." + decl.Name.Name
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
func readVars(pkgs []*Package) map[*types.Var]bool {
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
		for _, f := range pkg.files {
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
						if v, ok := pkg.info.Uses[id].(*types.Var); ok && v.IsField() {
							written[id] = true
						}
					}
				}
				return true
			})
		}
		for id, obj := range pkg.info.Uses {
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
// one), or an interface requires it (see required).
func reachable(pkgs []*Package) map[*types.Func]bool {
	used := required(pkgs)
	for _, pkg := range pkgs {
		for _, f := range pkg.files {
			for _, decl := range f.Decls {
				self, _ := pkg.info.Defs[declName(decl)].(*types.Func)
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := pkg.info.Uses[id].(*types.Func); ok && fn.Origin() != self {
							used[fn.Origin()] = true
						}
					}
					return true
				})
			}
		}
	}
	return used
}

// required returns the methods of pkgs' types that an interface requires:
// the type satisfies an interface the module's code mentions and the
// interface has a method of that name, or the method is one of the
// implicitMethods.
func required(pkgs []*Package) map[*types.Func]bool {
	req := map[*types.Func]bool{}
	ifaces := map[*types.Interface]bool{}
	var named []*types.Named
	for _, pkg := range pkgs {
		for _, tv := range pkg.info.Types {
			collectInterfaces(tv.Type, ifaces, map[types.Type]bool{})
		}
		for _, obj := range pkg.info.Defs {
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
				req[fn.Origin()] = true
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
	return req
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
