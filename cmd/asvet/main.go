// Command asvet is AlloyStack's project-specific static checker: a
// multichecker driving the internal/lint analyzers over the module.
// It machine-enforces the isolation and determinism invariants of the
// paper's §6 threat model on the host code (internal/scan's verifier
// covers guest images) and runs as a CI gate next to go vet.
//
// The per-package analyzers (pkrupair, senterr, wallclock, spanend,
// lockpair) check one type-checked package at a time; the
// module-scoped analyzers (trustflow, lockorder, goleak, unreachable)
// load the whole module once — full bodies, dependency order, every
// package checked exactly once — and walk the interprocedural call
// graph.
//
// Usage:
//
//	asvet ./...                  check every package in the module
//	asvet ./internal/visor       check one package
//	asvet -run senterr,spanend ./...
//	asvet -tests=false ./...     skip _test.go analysis units
//	asvet -json ./...            one JSON diagnostic per line
//	asvet -github ./...          also emit GitHub ::error annotations
//	asvet -list                  print the analyzers and exit
//
// Exit status: 0 clean, 1 findings reported, 2 usage or load failure.
// Findings can be waived in place with
// `//asvet:allow <analyzer> -- reason`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"alloystack/internal/lint"
)

func main() {
	run := flag.String("run", "", "comma-separated analyzers to run (default all)")
	tests := flag.Bool("tests", true, "also analyze _test.go units")
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "print diagnostics as JSON, one object per line")
	github := flag.Bool("github", false, "also emit GitHub Actions ::error annotations")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: asvet [-run a,b] [-tests=false] [-json] [-github] <packages>\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			scope := "package"
			if a.RunModule != nil {
				scope = "module"
			}
			fmt.Printf("%-10s [%s] %s\n", a.Name, scope, a.Doc)
		}
		return
	}
	analyzers, err := lint.ByName(*run)
	if err != nil {
		fatal("%v", err)
	}
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal("%v", err)
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fatal("%v", err)
	}

	var dirs []string
	for _, pattern := range flag.Args() {
		switch {
		case pattern == "./...":
			expanded, err := lint.PackageDirs(loader.ModuleRoot)
			if err != nil {
				fatal("expand %s: %v", pattern, err)
			}
			dirs = append(dirs, expanded...)
		case strings.HasSuffix(pattern, "/..."):
			expanded, err := lint.PackageDirs(strings.TrimSuffix(pattern, "/..."))
			if err != nil {
				fatal("expand %s: %v", pattern, err)
			}
			dirs = append(dirs, expanded...)
		default:
			dirs = append(dirs, pattern)
		}
	}

	needModule := false
	for _, a := range analyzers {
		if a.RunModule != nil {
			needModule = true
		}
	}

	emit := func(d lint.Diagnostic) {
		d.Pos.Filename = relPath(cwd, d.Pos.Filename)
		if *jsonOut {
			out, err := json.Marshal(struct {
				File     string `json:"file"`
				Line     int    `json:"line"`
				Col      int    `json:"col"`
				Analyzer string `json:"analyzer"`
				Message  string `json:"message"`
			}{d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message})
			if err != nil {
				fatal("encode diagnostic: %v", err)
			}
			fmt.Println(string(out))
		} else {
			fmt.Println(d)
		}
		if *github {
			// The workflow-command format GitHub turns into PR-diff
			// annotations, same as the bench comparator's.
			fmt.Printf("::error file=%s,line=%d,col=%d,title=asvet/%s::%s\n",
				d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
	}

	found := 0

	// Module-scoped analyzers: one whole-module load (full bodies,
	// dependency order — the load also warms the cache the per-package
	// passes below reuse), findings restricted to the requested dirs.
	if needModule {
		pkgs, err := loader.LoadModule()
		if err != nil {
			fatal("load module: %v", err)
		}
		mod := lint.NewModule(pkgs)
		inTarget := make(map[string]bool)
		for _, dir := range dirs {
			if abs, err := filepath.Abs(dir); err == nil {
				inTarget[abs] = true
			}
		}
		onlyFiles := make(map[string]bool)
		for _, pkg := range pkgs {
			if !inTarget[pkg.Dir] {
				continue
			}
			for _, name := range pkg.Filenames {
				onlyFiles[name] = true
			}
		}
		for _, d := range lint.RunModuleAnalyzers(mod, analyzers, onlyFiles) {
			emit(d)
			found++
		}
	}

	for _, dir := range dirs {
		var pkgs []*lint.Package
		var only []map[string]bool
		if *tests {
			var err error
			pkgs, only, err = loader.LoadDirUnits(dir)
			if err != nil {
				fatal("load %s: %v", dir, err)
			}
		} else {
			pkg, err := loader.LoadDir(dir, "")
			if err != nil {
				fatal("load %s: %v", dir, err)
			}
			pkgs, only = []*lint.Package{pkg}, []map[string]bool{nil}
		}
		for i, pkg := range pkgs {
			for _, d := range lint.RunAnalyzers(pkg, analyzers, only[i]) {
				emit(d)
				found++
			}
		}
	}
	if found > 0 {
		fmt.Fprintf(os.Stderr, "asvet: %d finding(s)\n", found)
		os.Exit(1)
	}
}

func relPath(base, path string) string {
	if rel, err := filepath.Rel(base, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "asvet: "+format+"\n", args...)
	os.Exit(2)
}
