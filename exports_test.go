package repro_test

import (
	"fmt"
	"go/ast"
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
	"strconv"
	"strings"
	"sync"
	"testing"
)

// testOnlyExports are the exported names of internal/ that no
// production file references and that stay anyway, each with the reason
// it stays: a test oracle or reference that no production API answers.
var testOnlyExports = map[string]string{
	"cache.(*Cache).CheckInvariants": "the CheckInvariants family: the tag store's structural oracle under random streams",
	"gpu.(*GPU).CheckInvariants":     "the CheckInvariants family: the device's structural oracle in the gpu, qos and spart tests",
	"core.WithEventWheel":            "selects the per-cycle reference loop the wheel-equivalence tests compare the event wheel against",
	"core.(*IsolatedCache).Len":      "the core tests count the baselines a fill leaves: a failed, canceled or panicked measurement must leave none",
	"gpu.(*GPU).EpochIndex":          "the qos elastic-epoch tests hold traced epoch rolls and the epoch counters to the device's own roll count",
	"gpu.(*GPU).NextEpochAt":         "the qos tests check that a forced roll pushes the next scheduled roll a full epoch out",
	"gpu.New":                        "gpu.Rebuild's nil case: a fresh device for the gpu, qos, spart, power and workloads tests",
	"isa.Instr.Validate":             "the kern tests validate every generated instruction against the ISA's encoding rules",
	"journal.(*Journal).Synced":      "the fleet restart test cuts journals where their flushed prefix ends",
	"kern.MustBuild":                 "builds fixed profiles in the kern and sm tests, where a build error is a bug",
	"qos.(*Manager).Alpha":           "the controller state the qos tests read and the conservation checker will (ROADMAP 2(a))",
	"qos.(*Manager).CounterFor":      "the controller state the qos tests read and the conservation checker will (ROADMAP 2(a))",
	"qos.(*Manager).Quota":           "the controller state the qos tests read and the conservation checker will (ROADMAP 2(a))",
	"workloads.Micro":                "the micro-kernel profiles the root, core, sm and workloads tests run",
}

// TestNoExportOnlyTestsCall: production code holds only what a binary
// reaches. Every exported func, method, type, alias, var and const
// declared in a non-test file under internal/ must be referenced by some
// non-test file of the module (cmd/ and benchmark/ count, and a method
// that implements an interface some package declares counts as
// referenced), or carry a reason in testOnlyExports. The tree is
// type-checked from source, the standard library from its export data,
// so a reference is a use the compiler resolved, not a matching name.
// The interface rule can excuse a method nothing calls (any Flush()
// satisfies http.Flusher); it never flags one something calls.
func TestNoExportOnlyTestsCall(t *testing.T) {
	m := checkModule(t)
	used := make(map[types.Object]bool)
	for _, obj := range m.info.Uses {
		used[origin(obj)] = true
	}
	ifaces := m.interfacesByMethod(t)

	// referenced maps each exported name of internal/ to whether
	// production code reaches it; pos says where it is declared.
	referenced := make(map[string]bool)
	pos := make(map[string]token.Position)
	note := func(obj types.Object, reached bool) {
		name := exportName(obj)
		referenced[name] = reached
		pos[name] = m.fset.Position(obj.Pos())
	}
	for _, pkg := range m.internal {
		scope := pkg.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if obj.Exported() {
				note(obj, used[obj])
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if fn := named.Method(i); fn.Exported() {
					note(fn, used[fn] || implementsAny(named, fn.Name(), ifaces))
				}
			}
		}
	}

	for name := range testOnlyExports {
		reached, ok := referenced[name]
		switch {
		case !ok:
			t.Errorf("testOnlyExports names %s, which is not an exported name of internal/: drop the entry", name)
		case reached:
			t.Errorf("testOnlyExports names %s, which production code references: drop the entry", name)
		}
	}
	var unused []string
	for name, reached := range referenced {
		if _, ok := testOnlyExports[name]; !reached && !ok {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s: %s is exported but only tests reference it: delete it, or give testOnlyExports a reason", pos[name], name)
	}
}

// module is the type-checked production code of this module: every
// non-test file, with one Uses and one Types map across all packages.
type module struct {
	fset     *token.FileSet
	info     *types.Info
	files    map[string][]*ast.File // import path -> non-test files
	pkgs     map[string]*types.Package
	internal []*types.Package
	std      types.Importer
}

// moduleOnce type-checks the module once per test binary: the exports
// rule and the doc rule read the same result.
var (
	moduleOnce sync.Once
	moduleVal  *module
	moduleErr  error
)

func checkModule(t *testing.T) *module {
	t.Helper()
	moduleOnce.Do(func() { moduleVal, moduleErr = loadModule() })
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return moduleVal
}

func loadModule() (*module, error) {
	m := &module{
		fset: token.NewFileSet(),
		info: &types.Info{
			Uses:  make(map[*ast.Ident]types.Object),
			Types: make(map[ast.Expr]types.TypeAndValue),
		},
		files: make(map[string][]*ast.File),
		pkgs:  make(map[string]*types.Package),
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(m.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := "repro/" + filepath.ToSlash(filepath.Dir(path))
		m.files[ip] = append(m.files[ip], f)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// One go list for every standard library package the module imports:
	// the default importer would run one per package, ten times slower.
	std := make(map[string]bool)
	for _, files := range m.files {
		for _, f := range files {
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); m.files[p] == nil {
					std[p] = true
				}
			}
		}
	}
	args := []string{"list", "-export", "-f", "{{.ImportPath}}={{.Export}}"}
	for p := range std {
		args = append(args, p)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v", err)
	}
	exports := make(map[string]string) // import path -> export data file
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		p, file, _ := strings.Cut(line, "=")
		exports[p] = file
	}
	m.std = importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	})

	paths := make([]string, 0, len(m.files))
	for p := range m.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		pkg, err := m.Import(p)
		if err != nil {
			return nil, err
		}
		if strings.HasPrefix(p, "repro/internal/") {
			m.internal = append(m.internal, pkg)
		}
	}
	return m, nil
}

// Import type-checks a package of this module and hands every other
// path to the standard library's export data.
func (m *module) Import(path string) (*types.Package, error) {
	if pkg, ok := m.pkgs[path]; ok {
		return pkg, nil
	}
	files, ok := m.files[path]
	if !ok {
		return m.std.Import(path)
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = pkg
	return pkg, nil
}

// stdProtocols are the interfaces the standard library asserts with an
// interface literal, which no package scope declares: errors.Is, As and
// Unwrap reach these methods of an error value.
const stdProtocols = `package protocols

type (
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser           interface{ Is(error) bool }
	aser           interface{ As(any) bool }
)
`

// interfacesByMethod indexes, by the names of their methods, error, the
// stdProtocols, every interface declared at package level in the module
// or anywhere it imports, and every interface literal in production code.
func (m *module) interfacesByMethod(t *testing.T) map[string][]*types.Interface {
	t.Helper()
	byName := make(map[string][]*types.Interface)
	add := func(typ types.Type) {
		iface, ok := typ.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			n := iface.Method(i).Name()
			byName[n] = append(byName[n], iface)
		}
	}
	addScope := func(scope *types.Scope) {
		for _, n := range scope.Names() {
			if tn, ok := scope.Lookup(n).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	f, err := parser.ParseFile(m.fset, "protocols.go", stdProtocols, 0)
	if err != nil {
		t.Fatal(err)
	}
	protocols, err := new(types.Config).Check("protocols", m.fset, []*ast.File{f}, nil)
	if err != nil {
		t.Fatal(err)
	}
	addScope(protocols.Scope())
	seen := make(map[*types.Package]bool)
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		addScope(pkg.Scope())
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range m.pkgs {
		visit(pkg)
	}
	for _, tv := range m.info.Types {
		if _, ok := tv.Type.(*types.Interface); ok {
			add(tv.Type)
		}
	}
	return byName
}

// implementsAny reports whether T or *T implements an indexed interface
// that has a method called method.
func implementsAny(named *types.Named, method string, ifaces map[string][]*types.Interface) bool {
	ptr := types.NewPointer(named)
	for _, iface := range ifaces[method] {
		if types.Implements(named, iface) || types.Implements(ptr, iface) {
			return true
		}
	}
	return false
}

// origin maps a use inside an instantiated generic back to the object
// its declaration made.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// exportName names obj the way a reader writes it: qos.Manager,
// qos.(*Manager).Quota, kern.Op.Name.
func exportName(obj types.Object) string {
	short := strings.TrimPrefix(obj.Pkg().Path(), "repro/internal/")
	fn, ok := obj.(*types.Func)
	if !ok {
		return short + "." + obj.Name()
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return short + "." + obj.Name()
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		return short + ".(*" + p.Elem().(*types.Named).Obj().Name() + ")." + obj.Name()
	}
	return short + "." + rt.(*types.Named).Obj().Name() + "." + obj.Name()
}
