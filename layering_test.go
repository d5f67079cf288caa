package repro_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// simulatorPkgs are the packages of the cycle-level simulator and the
// paper's mechanism; servingPkgs are the admission, placement, journal,
// stream and sweep machinery built on top of them.
var (
	simulatorPkgs = []string{"isa", "kern", "mem", "cache", "sm", "gpu", "qos", "spart", "preempt", "power", "metrics", "trace", "config", "workloads", "rng", "core"}
	servingPkgs   = []string{"server", "fleet", "verdict", "journal", "stream", "exp"}
)

// TestSimulatorImportsNoServingPackage: the simulator stands on its
// own. No non-test file of a simulator package imports a serving
// package, so the paper's mechanism in internal/qos reads without the
// serving stack, and the serving stack can change without touching the
// simulator. Only the import clauses are parsed.
func TestSimulatorImportsNoServingPackage(t *testing.T) {
	serving := make(map[string]bool, len(servingPkgs))
	for _, p := range servingPkgs {
		serving["repro/internal/"+p] = true
	}
	fset := token.NewFileSet()
	for _, pkg := range simulatorPkgs {
		dir := filepath.Join("internal", pkg)
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("simulator package %s has no Go files: update the list", dir)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatal(err)
				}
				if serving[path] {
					t.Errorf("%s: simulator package %s imports serving package %s", fset.Position(imp.Pos()), pkg, path)
				}
			}
		}
	}
	for _, p := range servingPkgs {
		if _, err := os.Stat(filepath.Join("internal", p)); err != nil {
			t.Errorf("serving package internal/%s: %v: update the list", p, err)
		}
	}
}
