package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// realTreeSeeds holds one seeded defect per analyzer. Each is a whole
// file added to a real package of a copy of this module; a package
// variable references the seeded function so that unreachable stays
// quiet about every seed but its own.
var realTreeSeeds = []struct {
	analyzer, dir, src, want string
}{
	{"trustflow", "internal/visor", `package visor

import "alloystack/internal/mem"

var _ = seedRawRead

func seedRawRead(s *mem.Space, p []byte) error {
	return s.ReadAt(nil, 0, p)
}
`, `untrusted visor.seedRawRead calls raw alloystack/internal/mem.Space.ReadAt outside the trusted partition`},

	{"pkrupair", "internal/asstd", `package asstd

var _ = (*Env).seedNoLeave

func (e *Env) seedNoLeave() {
	e.enterSys()
}
`, `enterSys switches the PKRU domain but leaveSys is not called on all paths`},

	{"senterr", "internal/journal", `package journal

var _ = seedIsSealed

func seedIsSealed(err error) bool {
	return err == ErrSealed
}
`, `sentinel error ErrSealed compared with ==`},

	{"wallclock", "internal/sched", `package sched

import "time"

var _ = seedNow

func seedNow() int64 {
	return time.Now().UnixNano()
}
`, `wall-clock read time.Now in determinism-critical package alloystack/internal/sched`},

	{"spanend", "internal/visor", `package visor

import "alloystack/internal/trace"

var _ = seedSpan

func seedSpan(tr *trace.Tracer) {
	sp := tr.Start("seed", trace.CatInvoke)
	sp.SetAttr("seed", 1)
}
`, `span "sp" started here is not Ended on all paths to return`},

	{"lockpair", "internal/pool", `package pool

import "sync"

type seedLocked struct {
	mu sync.Mutex
	n  int
}

var _ = (*seedLocked).seedLeak

func (s *seedLocked) seedLeak(fail bool) int {
	s.mu.Lock()
	if fail {
		return 0
	}
	s.mu.Unlock()
	return s.n
}
`, `s.mu.Lock is not Unlocked on all paths to return`},

	{"lockorder", "internal/cluster", `package cluster

import "sync"

type seedPair struct{ a, b sync.Mutex }

var _, _ = (*seedPair).seedAB, (*seedPair).seedBA

func (p *seedPair) seedAB() {
	p.a.Lock()
	p.b.Lock()
	p.b.Unlock()
	p.a.Unlock()
}

func (p *seedPair) seedBA() {
	p.b.Lock()
	p.a.Lock()
	p.a.Unlock()
	p.b.Unlock()
}
`, `lock-order cycle \(potential deadlock\): cluster.seedPair.a -> cluster.seedPair.b`},

	{"goleak", "internal/gateway", `package gateway

import "runtime"

var _ = seedSpin

func seedSpin() {
	go func() {
		for {
			runtime.Gosched()
		}
	}()
}
`, `goroutine has no reachable termination path`},

	{"unreachable", "internal/xfer", `package xfer

func seedUnused() {}
`, `seedUnused is unreachable`},
}

// TestRealTree proves the suite on this module rather than on
// fixtures. It copies the module's non-test Go files into a temporary
// directory, adds one seeded-defect file per analyzer to a real
// package, and loads the copy once. TablesResolve fails closed on a
// table name that matches nothing (a renamed method would otherwise
// silently disable its check); SeededDefects requires each seed to
// yield exactly its diagnostic and the rest of the tree none.
func TestRealTree(t *testing.T) {
	root := copyModule(t)
	for _, s := range realTreeSeeds {
		path := filepath.Join(root, s.dir, "seed_"+s.analyzer+".go")
		if err := os.WriteFile(path, []byte(s.src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		t.Fatalf("load the seeded copy: %v", err)
	}
	mod := NewModule(pkgs)

	t.Run("TablesResolve", func(t *testing.T) { checkTablesResolve(t, mod) })

	t.Run("SeededDefects", func(t *testing.T) {
		diags := RunModuleAnalyzers(mod, Analyzers(), nil)
		for _, pkg := range pkgs {
			diags = append(diags, RunAnalyzers(pkg, Analyzers(), nil)...)
		}
		got := make(map[string][]Diagnostic) // seed file -> findings
		for _, d := range diags {
			rel, _ := filepath.Rel(root, d.Pos.Filename)
			got[rel] = append(got[rel], d)
		}
		for _, s := range realTreeSeeds {
			file := filepath.Join(s.dir, "seed_"+s.analyzer+".go")
			ds := got[file]
			delete(got, file)
			if len(ds) != 1 || ds[0].Analyzer != s.analyzer || !regexp.MustCompile(s.want).MatchString(ds[0].Message) {
				t.Errorf("%s: want exactly one %s finding matching %q, got %v", file, s.analyzer, s.want, ds)
			}
		}
		for file, ds := range got {
			for _, d := range ds {
				t.Errorf("untouched tree: %s: unexpected finding %s", file, d)
			}
		}
	})
}

// checkTablesResolve requires every name the analyzers key on to name
// something in the module.
func checkTablesResolve(t *testing.T, mod *Module) {
	pkgs := make(map[string]*Package)
	for _, p := range mod.Packages {
		pkgs[p.PkgPath] = p
	}
	funcs := map[string]string{} // node ID -> table
	for id := range trustflowGated {
		funcs[id] = "trustflowGated"
	}
	for m := range spanLocalMethods {
		funcs[traceSpan+"."+m] = "spanLocalMethods"
	}
	funcs[traceTracer+".Start"] = "spanStart"
	funcs[traceSpan+".Child"] = "spanStart"
	funcs[traceSpan+".Syscall"] = "spanStart"
	funcs[mpkContext+".WritePKRU"] = "mpkContext"
	funcs[mpkContext+".ReadPKRU"] = "mpkContext"
	packages := map[string]string{} // import path -> table
	for path := range trustflowTrusted {
		packages[path] = "trustflowTrusted"
	}
	for entry := range trustflowApproved {
		if path, whole := strings.CutSuffix(entry, ".*"); whole {
			packages[path] = "trustflowApproved"
		} else {
			funcs[entry] = "trustflowApproved"
		}
	}
	for path := range goleakScope {
		packages[path] = "goleakScope"
	}
	for path := range wallclockScope {
		packages[path] = "wallclockScope"
	}

	for id, table := range funcs {
		if n := mod.Graph.Nodes[id]; n == nil || n.Decl == nil {
			t.Errorf("%s: %s is declared nowhere in the module", table, id)
		}
	}
	for path, table := range packages {
		if pkgs[path] == nil {
			t.Errorf("%s: package %s is not in the module", table, path)
		}
	}
	for path, prefixes := range wallclockScope {
		for _, prefix := range prefixes {
			found := false
			for _, name := range pkgs[path].Filenames {
				found = found || strings.HasPrefix(filepath.Base(name), prefix)
			}
			if !found {
				t.Errorf("wallclockScope: no file of %s starts with %q", path, prefix)
			}
		}
	}
}

// copyModule copies the module's go.mod and non-test Go files into a
// temporary directory and returns its path.
func copyModule(t *testing.T) string {
	t.Helper()
	src, _, err := findModule(".")
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	dirs, err := PackageDirs(src)
	if err != nil {
		t.Fatal(err)
	}
	copyFile := func(rel string) {
		data, err := os.ReadFile(filepath.Join(src, rel))
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, rel), data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	copyFile("go.mod")
	for _, dir := range dirs {
		rel, err := filepath.Rel(src, dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(dst, rel), 0o755); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if name := e.Name(); !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
				copyFile(filepath.Join(rel, name))
			}
		}
	}
	return dst
}
