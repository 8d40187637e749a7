// Package lint is AlloyStack's static-analysis suite: a small
// go/analysis-shaped framework built on the standard library's go/ast
// and go/types, plus the project-specific analyzers that machine-check
// the isolation and determinism invariants of the paper's §6 threat
// model on the *host* side (the guest side is internal/scan's ASVM
// verifier).
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis —
// an Analyzer runs over one type-checked package via a Pass and reports
// position-tagged Diagnostics — so the analyzers can migrate to the
// upstream driver wholesale if the dependency ever becomes available.
// It is self-contained because this repository carries no third-party
// modules.
//
// The shipped analyzers:
//
//	pkrupair  every PKRU domain switch has a matching restore on all
//	          control-flow paths (defer or explicit)
//	senterr   sentinel errors must be compared with errors.Is, never
//	          == / != (retry classification breaks through wrapping)
//	wallclock determinism-critical packages must not read the wall
//	          clock or the global math/rand source outside approved
//	          injection points
//	spanend   every trace span started must be ended on all paths
//	lockpair  every sync Lock/RLock must be released on all
//	          control-flow paths, or the obligation explicitly
//	          transferred (defer, unlock closure, helper)
//	trustflow (module-scoped) raw mem.Space.ReadAt/WriteAt/Fork and
//	          mpk PKRU mutation, called or taken as a value, are legal
//	          only inside the trusted partition (mem, mpk, asstd,
//	          libos, core), and untrusted code may reach them only
//	          through an approved trampoline export
//	lockorder (module-scoped) named mutexes must be acquired in one
//	          consistent module-wide order — cycles in the
//	          acquisition graph are potential deadlocks
//	goleak    (module-scoped) goroutines spawned in long-lived
//	          packages must have a reachable termination path
//	unreachable (module-scoped) functions in internal/... must be
//	          reachable from a main, an init or an exported symbol
//	          that non-test code outside the package references
//
// pkrupair, spanend and lockpair are three specs on one obligation
// engine (obligation.go): an acquisition must be released on every
// path to return unless it provably moves elsewhere.
//
// The module-scoped analyzers run over the whole module at once and
// walk the interprocedural call graph (see callgraph.go) instead of a
// single package.
//
// A finding can be waived in place with a trailing or preceding
// comment:
//
//	//asvet:allow <analyzer> -- <why this use is the approved exception>
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Analyzer is one static check, named so findings and waivers can refer
// to it.
type Analyzer struct {
	Name string
	Doc  string
	// Run analyzes one type-checked package at a time. Module-scoped
	// analyzers leave it nil and set RunModule instead.
	Run func(*Pass)
	// RunModule analyzes the whole module at once — it sees every
	// compiled package plus the interprocedural call graph, which is
	// what the reachability proofs (trustflow), the lock-order graph
	// (lockorder) and goroutine-shutdown checks (goleak) need.
	RunModule func(*ModulePass)
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	// Filenames holds the file path of each entry in Files.
	Filenames []string
	Pkg       *types.Package
	// PkgPath is the import path under analysis. For external test
	// packages it carries the "_test" suffix.
	PkgPath string
	Info    *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the go-vet style "file:line:col: analyzer: message".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzers returns the full suite in a stable order: the per-package
// analyzers first, then the module-scoped (interprocedural) ones.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		PKRUPair,
		SentErr,
		WallClock,
		SpanEnd,
		LockPair,
		TrustFlow,
		LockOrder,
		GoLeak,
		Unreachable,
	}
}

// ByName resolves a comma-separated analyzer list ("" means all).
func ByName(names string) ([]*Analyzer, error) {
	all := Analyzers()
	if names == "" {
		return all, nil
	}
	idx := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		idx[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := idx[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// allowRe matches waiver comments: "//asvet:allow name1,name2 -- reason".
var allowRe = regexp.MustCompile(`^//\s*asvet:allow\s+([a-z0-9_,\s]+?)(?:\s*(?:--|—).*)?$`)

// allowedLines maps line number -> analyzer names waived on that line,
// collected from the file's comments. A waiver on line N covers
// findings on N and N+1, so it can trail the flagged statement or sit
// on its own line directly above.
func allowedLines(fset *token.FileSet, f *ast.File) map[int]map[string]bool {
	out := make(map[int]map[string]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := allowRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			line := fset.Position(c.Pos()).Line
			for _, name := range strings.FieldsFunc(m[1], func(r rune) bool { return r == ',' || r == ' ' || r == '\t' }) {
				if name == "" {
					continue
				}
				for _, l := range []int{line, line + 1} {
					if out[l] == nil {
						out[l] = make(map[string]bool)
					}
					out[l][name] = true
				}
			}
		}
	}
	return out
}

// RunAnalyzers applies the analyzers to pkg and returns the surviving
// findings sorted by position. Waived findings are dropped. onlyFiles, when
// non-nil, keeps findings in those files only — the driver uses it to
// avoid double-reporting non-test files when it re-checks a package
// together with its in-package test files.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer, onlyFiles map[string]bool) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.Run == nil {
			continue // module-scoped: driven by RunModuleAnalyzers
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Filenames: pkg.Filenames,
			Pkg:       pkg.Types,
			PkgPath:   pkg.PkgPath,
			Info:      pkg.Info,
			diags:     &diags,
		}
		a.Run(pass)
	}

	allowed := make(map[string]map[int]map[string]bool) // filename -> line -> names
	for i, f := range pkg.Files {
		allowed[pkg.Filenames[i]] = allowedLines(pkg.Fset, f)
	}
	return filterAndSort(diags, allowed, onlyFiles)
}
