package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// runModuleFixture runs a module-scoped analyzer over the named
// packages, loaded in order (dependencies first) into one Module. A
// name holding a "/" is a real package of this module, loaded from
// its source; any other is a fixture directory under testdata/src.
// Each loaded package is seeded into the loader's dependency cache, so
// a fixture can import another fixture by the import path its
// directory name claims — that is how an untrusted fixture package
// gets to call a fake trusted-partition one.
func runModuleFixture(t *testing.T, names []string, a *Analyzer) {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, name := range names {
		dir := filepath.Join("testdata", "src", name)
		pkgPath := strings.ReplaceAll(name, "__", "/")
		if strings.Contains(name, "/") {
			dir = filepath.Join(loader.ModuleRoot, strings.TrimPrefix(name, loader.ModuleName+"/"))
			pkgPath = name
		}
		pkg, err := loader.LoadDir(dir, pkgPath)
		if err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
		loader.deps[pkgPath] = pkg.Types
		pkgs = append(pkgs, pkg)
	}
	checkWants(t, pkgs, RunModuleAnalyzers(NewModule(pkgs), []*Analyzer{a}, nil))
}

func TestTrustFlowFixtures(t *testing.T) {
	// Dependency order: the fake mem layer first, the fake approved
	// trampoline second, the untrusted user last.
	runModuleFixture(t, []string{
		"alloystack__internal__mem",
		"alloystack__internal__asstd",
		"trustflow_user",
	}, TrustFlow)
}

// TestTrustFlowRawFixtures runs trustflow over an untrusted package
// using the real mem and mpk packages: every raw call and every gated
// method taken as a value is reported at its own site, with the
// method's fix hint.
func TestTrustFlowRawFixtures(t *testing.T) {
	runModuleFixture(t, []string{
		"alloystack/internal/mem",
		"alloystack/internal/mpk",
		"trustflow_raw",
	}, TrustFlow)
}

// TestTrustFlowTrustedPackageExempt: the identical raw calls under a
// trusted import path must be silent; the fixture has no wants.
func TestTrustFlowTrustedPackageExempt(t *testing.T) {
	runModuleFixture(t, []string{
		"alloystack/internal/mem",
		"alloystack/internal/mpk",
		"alloystack__internal__core",
	}, TrustFlow)
}

func TestLockPairFixtures(t *testing.T) {
	runFixture(t, "lockpair_user", LockPair)
}

func TestLockOrderFixtures(t *testing.T) {
	runModuleFixture(t, []string{"lockorder_user"}, LockOrder)
}

func TestGoLeakFixtures(t *testing.T) {
	runModuleFixture(t, []string{"alloystack__internal__gateway"}, GoLeak)
}

// TestUnreachableFixtures: the library fixture is internal/metrics'
// ResourceMeter as the parent of the PR that added the analyzer had it,
// next to one live symbol of every kind the analyzer exempts.
func TestUnreachableFixtures(t *testing.T) {
	runModuleFixture(t, []string{
		"alloystack__internal__meter",
		"unreachable_main",
	}, Unreachable)
}

func TestGoLeakOutOfScopePackageExempt(t *testing.T) {
	// The same spin-forever shapes must stay silent outside the
	// long-lived package list: re-analyze the gateway fixture under a
	// benchmark import path and expect zero findings.
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "src", "alloystack__internal__gateway")
	pkg, err := loader.LoadDir(dir, "alloystack/internal/bench/fixturecopy")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range RunModuleAnalyzers(NewModule([]*Package{pkg}), []*Analyzer{GoLeak}, nil) {
		t.Errorf("goleak fired outside its package scope: %s", d)
	}
}

// TestCallGraphShape sanity-checks the graph the module analyzers walk:
// direct call, method value (EdgeRef) and the approved-trampoline
// fixture edges must all be present with the expected kinds.
func TestCallGraphShape(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, dirName := range []string{
		"alloystack__internal__mem", "alloystack__internal__asstd", "trustflow_user",
	} {
		pkg, err := loader.LoadDir(filepath.Join("testdata", "src", dirName),
			strings.ReplaceAll(dirName, "__", "/"))
		if err != nil {
			t.Fatal(err)
		}
		loader.deps[pkg.PkgPath] = pkg.Types
		pkgs = append(pkgs, pkg)
	}
	g := BuildCallGraph(pkgs)

	edge := func(from, to string) *CGEdge {
		n := g.Nodes[from]
		if n == nil {
			t.Fatalf("no node %q", from)
		}
		for _, e := range n.Out {
			if e.To.ID == to {
				return e
			}
		}
		return nil
	}
	if e := edge("trustflow_user.directRaw", "alloystack/internal/mem.Space.ReadAt"); e == nil || e.Kind != EdgeCall {
		t.Errorf("directRaw -> ReadAt: want EdgeCall, got %+v", e)
	}
	if e := edge("trustflow_user.methodValue", "alloystack/internal/mem.Space.WriteAt"); e == nil || e.Kind != EdgeRef {
		t.Errorf("methodValue -> WriteAt: want EdgeRef, got %+v", e)
	}
	if e := edge("trustflow_user.throughTrampoline", "alloystack/internal/asstd.Read"); e == nil || e.Kind != EdgeCall {
		t.Errorf("throughTrampoline -> asstd.Read: want EdgeCall, got %+v", e)
	}
	if e := edge("alloystack/internal/asstd.Read", "alloystack/internal/mem.Space.ReadAt"); e == nil || e.Kind != EdgeCall {
		t.Errorf("asstd.Read -> ReadAt: want EdgeCall, got %+v", e)
	}
	if e := edge("trustflow_user.transitiveRaw", "trustflow_user.directRaw"); e == nil || e.Kind != EdgeCall {
		t.Errorf("transitiveRaw -> directRaw: want EdgeCall, got %+v", e)
	}
}
