package streambox_test

// The surface ratchet: every exported name under internal/ needs a caller
// outside test files, and every exported field of a config struct needs a
// setter outside test files, unless testdata/surface_allow.txt names it with
// a reason. The scan type-checks the module and the nested benchmark module
// (which counts as a caller) from source with the standard library only.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const surfaceAllowFile = "testdata/surface_allow.txt"

// surfaceAllowMax caps the allowlist: it may only shrink.
const surfaceAllowMax = 16

func TestNoTestOnlySurface(t *testing.T) {
	allow, err := os.ReadFile(surfaceAllowFile)
	if err != nil {
		t.Fatal(err)
	}
	flagged, stale, err := checkSurface(".", string(allow))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range flagged {
		t.Errorf("%s: no non-test code uses or sets it; give it a caller or setter, move it into a _test.go file, or add it to %s with a reason", name, surfaceAllowFile)
	}
	for _, name := range stale {
		t.Errorf("%s: %s is no longer flagged; delete its line", surfaceAllowFile, name)
	}
}

// TestSurfaceCheckerFlags runs the checker over a small module that holds
// one of each case it must tell apart.
func TestSurfaceCheckerFlags(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module surfmod\n\ngo 1.24\n",
		"internal/lib/lib.go": `package lib

// Namer is used by non-test code (Describe), so Dog.Name is referenced.
type Namer interface{ Name() string }

func Describe(n Namer) string { return "a " + n.Name() }

type Dog struct{}

func (Dog) Name() string { return "dog" }

// OnlyTests is called by lib_test.go alone.
func OnlyTests() int { return 1 }

type Config struct {
	Used      int
	TestOnly  int
	Defaulted int
}

// New only fills in Defaulted, which does not set it.
func New(c Config) Config {
	if c.Defaulted == 0 {
		c.Defaulted = 4
	}
	return c
}
`,
		"internal/lib/lib_test.go": `package lib

import "testing"

func TestLib(t *testing.T) {
	if OnlyTests() != 1 || (Config{TestOnly: 2}).TestOnly != 2 {
		t.Fatal()
	}
}
`,
		"cmd/app/main.go": `package main

import (
	"fmt"

	"surfmod/internal/lib"
)

func main() {
	c := lib.New(lib.Config{Used: 1})
	fmt.Println(lib.Describe(lib.Dog{}), c.Used, c.TestOnly, c.Defaulted)
}
`,
	}
	for name, body := range files {
		p := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	allow := "# comment\nsurfmod/internal/lib.Gone  deleted long ago\n"
	flagged, stale, err := checkSurface(dir, allow)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"surfmod/internal/lib.Config.Defaulted", "surfmod/internal/lib.Config.TestOnly", "surfmod/internal/lib.OnlyTests"}
	if fmt.Sprint(flagged) != fmt.Sprint(want) {
		t.Errorf("flagged %v, want %v", flagged, want)
	}
	if fmt.Sprint(stale) != "[surfmod/internal/lib.Gone]" {
		t.Errorf("stale %v, want [surfmod/internal/lib.Gone]", stale)
	}
	if _, _, err := checkSurface(dir, "surfmod/internal/lib.OnlyTests\n"); err == nil {
		t.Error("an allowlist line without a reason was accepted")
	}
}

// checkSurface scans the module at root and returns the flagged names that
// allow does not list and the allow lines whose names are not flagged.
func checkSurface(root, allow string) (flagged, stale []string, err error) {
	allowed := map[string]bool{}
	for i, line := range strings.Split(allow, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return nil, nil, fmt.Errorf("allowlist line %d names %s without a reason", i+1, f[0])
		}
		allowed[f[0]] = true
	}
	if len(allowed) > surfaceAllowMax {
		return nil, nil, fmt.Errorf("allowlist has %d entries, more than %d", len(allowed), surfaceAllowMax)
	}
	names, err := scanSurface(root)
	if err != nil {
		return nil, nil, err
	}
	found := map[string]bool{}
	for _, n := range names {
		found[n] = true
		if !allowed[n] {
			flagged = append(flagged, n)
		}
	}
	for n := range allowed {
		if !found[n] {
			stale = append(stale, n)
		}
	}
	sort.Strings(stale)
	return flagged, stale, nil
}

type surfacePkg struct {
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
	err   error
}

// surfaceImporter type-checks the module's packages from source on first
// import and takes everything else from the compiler's export data.
type surfaceImporter struct {
	fset *token.FileSet
	pkgs map[string]*surfacePkg
	std  types.Importer
}

func (im *surfaceImporter) Import(path string) (*types.Package, error) {
	p, ok := im.pkgs[path]
	if !ok {
		return im.std.Import(path)
	}
	if p.pkg == nil && p.err == nil {
		p.info = &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: im}
		p.pkg, p.err = conf.Check(path, im.fset, p.files, p.info)
	}
	return p.pkg, p.err
}

// loadSurface parses the non-test files of every package under root,
// nested modules included, keyed by import path.
func loadSurface(fset *token.FileSet, root string) (module string, pkgs map[string]*surfacePkg, err error) {
	pkgs = map[string]*surfacePkg{}
	paths := map[string]string{} // dir → import path
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if mod, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			for _, line := range strings.Split(string(mod), "\n") {
				if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
					paths[dir] = f[1]
				}
			}
		} else if parent, ok := paths[filepath.Dir(dir)]; ok {
			paths[dir] = parent + "/" + name
		}
		path, ok := paths[dir]
		if !ok {
			return fmt.Errorf("%s: no module path", dir)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range ents {
			fn := e.Name()
			if e.IsDir() || !strings.HasSuffix(fn, ".go") || strings.HasSuffix(fn, "_test.go") {
				continue
			}
			if ok, err := build.Default.MatchFile(dir, fn); err != nil || !ok {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, fn), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			if pkgs[path] == nil {
				pkgs[path] = &surfacePkg{}
			}
			pkgs[path].files = append(pkgs[path].files, f)
		}
		return nil
	})
	return paths[root], pkgs, err
}

// stdExports maps each imported package outside the scanned tree to its
// export data file, in one go list call.
func stdExports(root string, pkgs map[string]*surfacePkg) (map[string]string, error) {
	want := map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, imp := range f.Imports {
				if path := strings.Trim(imp.Path.Value, `"`); pkgs[path] == nil {
					want[path] = true
				}
			}
		}
	}
	args := []string{"list", "-export", "-f", "{{.ImportPath}}={{.Export}}"}
	for path := range want {
		args = append(args, path)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	out, err := cmd.Output()
	if ee, ok := err.(*exec.ExitError); ok {
		return nil, fmt.Errorf("go list -export: %v\n%s", err, ee.Stderr)
	} else if err != nil {
		return nil, fmt.Errorf("go list -export: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, "="); ok {
			exports[path] = file
		}
	}
	return exports, nil
}

func surfaceOrigin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// scanSurface returns, sorted, (a) the exported names declared under
// internal/ that no non-test code references, and (b) the exported fields of
// the config structs (internal/ *Config structs, the root RunConfig) that no
// non-test code sets.
func scanSurface(root string) ([]string, error) {
	fset := token.NewFileSet()
	module, pkgs, err := loadSurface(fset, root)
	if err != nil {
		return nil, err
	}
	exports, err := stdExports(root, pkgs)
	if err != nil {
		return nil, err
	}
	im := &surfaceImporter{fset: fset, pkgs: pkgs, std: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})}
	var order []string
	for path := range pkgs {
		order = append(order, path)
	}
	sort.Strings(order)
	used := map[types.Object]bool{}
	set := map[types.Object]bool{}
	for _, path := range order {
		if _, err := im.Import(path); err != nil {
			return nil, err
		}
		p := pkgs[path]
		for _, f := range p.files {
			markSurfaceUses(f, p.pkg, p.info, used, set)
		}
	}
	markInterfaceMethods(pkgs, used)

	var names []string
	for _, path := range order {
		internal := strings.HasPrefix(path, module+"/internal/")
		if !internal && path != module {
			continue
		}
		scope := pkgs[path].pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if internal && obj.Exported() && !used[obj] {
				names = append(names, path+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if internal {
				names = append(names, unusedMethods(path+"."+name, tn, used)...)
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok && obj.Exported() &&
				(internal && strings.HasSuffix(name, "Config") || !internal && name == "RunConfig") {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() && !f.Embedded() && !set[f] {
						names = append(names, path+"."+name+"."+f.Name())
					}
				}
			}
		}
	}
	sort.Strings(names)
	return names, nil
}

func unusedMethods(prefix string, tn *types.TypeName, used map[types.Object]bool) []string {
	var names []string
	named := tn.Type().(*types.Named)
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Exported() && !used[m] {
			names = append(names, prefix+"."+m.Name())
		}
	}
	if it, ok := named.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumExplicitMethods(); i++ {
			if m := it.ExplicitMethod(i); m.Exported() && !used[m] {
				names = append(names, prefix+"."+m.Name())
			}
		}
	}
	return names
}

// markSurfaceUses records every object f's identifiers refer to, except a
// declaration's references to itself and a method's to its receiver type,
// and every struct field f sets: a composite-literal key anywhere, or an
// assignment, an increment or an address taken outside pkg, the package
// that declares the field. A package filling in its own default
// (`if cfg.X == 0 { cfg.X = … }`) does not set the field.
func markSurfaceUses(f *ast.File, pkg *types.Package, info *types.Info, used, set map[types.Object]bool) {
	setField := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() && v.Pkg() != pkg {
				set[v.Origin()] = true
			}
		}
	}
	walk := func(n ast.Node, skip ast.Node, self map[types.Object]bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			if n == skip {
				return false
			}
			switch n := n.(type) {
			case *ast.Ident:
				if obj := info.Uses[n]; obj != nil && !self[surfaceOrigin(obj)] {
					used[surfaceOrigin(obj)] = true
				}
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					setField(l)
				}
			case *ast.IncDecStmt:
				setField(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					setField(n.X)
				}
			case *ast.CompositeLit:
				t := info.Types[n].Type
				if t == nil {
					break
				}
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							if v, ok := info.Uses[id].(*types.Var); ok {
								set[v.Origin()] = true
							}
						}
					} else {
						set[st.Field(i).Origin()] = true
					}
				}
			}
			return true
		})
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			walk(d, d.Recv, map[types.Object]bool{info.Defs[d.Name]: true})
		case *ast.GenDecl:
			for _, s := range d.Specs {
				self := map[types.Object]bool{}
				switch s := s.(type) {
				case *ast.TypeSpec:
					self[info.Defs[s.Name]] = true
				case *ast.ValueSpec:
					for _, n := range s.Names {
						self[info.Defs[n]] = true
					}
				}
				walk(s, nil, self)
			}
		}
	}
}

// markInterfaceMethods marks as used every method through which a scanned
// type satisfies an interface: the named interfaces of every loaded package,
// the interface literals in the scanned code, and error.
func markInterfaceMethods(pkgs map[string]*surfacePkg, used map[types.Object]bool) {
	byMethod := map[string][]*types.Interface{}
	seenIface := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seenIface[it] || !it.IsMethodSet() || it.NumMethods() == 0 {
			return
		}
		if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		seenIface[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seenPkg := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seenPkg[p] {
			return
		}
		seenPkg[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	var named []*types.Named
	for _, p := range pkgs {
		visit(p.pkg)
		for _, tv := range p.info.Types {
			addIface(tv.Type)
		}
		for _, obj := range p.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 && !types.IsInterface(n) {
					named = append(named, n)
				}
			}
		}
	}
	for _, n := range named {
		ptr := types.NewPointer(n)
		ms := types.NewMethodSet(ptr)
		for i := 0; i < ms.Len(); i++ {
			for _, it := range byMethod[ms.At(i).Obj().Name()] {
				if !types.Implements(ptr, it) {
					continue
				}
				for j := 0; j < it.NumMethods(); j++ {
					m := it.Method(j)
					if sel := ms.Lookup(m.Pkg(), m.Name()); sel != nil {
						used[surfaceOrigin(sel.Obj())] = true
					}
				}
			}
		}
	}
}
