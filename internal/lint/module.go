package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Module is the whole-program analysis unit: every compiled (non-test)
// package of the enclosing module, loaded with full bodies and
// consistent cross-package type identity (see Loader.LoadModule), plus
// the call graph the interprocedural analyzers walk.
//
// _test.go files are deliberately absent — the module pass proves
// properties of the shipped runtime (reachability of raw memory ops,
// lock order, goroutine shutdown), and test binaries are neither long
// lived nor part of the trusted-computing-base argument.
type Module struct {
	Fset     *token.FileSet
	Packages []*Package
	Graph    *CallGraph
}

// NewModule assembles a Module from fully-checked packages and builds
// the call graph over them.
func NewModule(pkgs []*Package) *Module {
	m := &Module{Packages: pkgs}
	if len(pkgs) > 0 {
		m.Fset = pkgs[0].Fset
	}
	m.Graph = BuildCallGraph(pkgs)
	return m
}

// ModulePass carries the whole module through one module-scoped
// analyzer.
type ModulePass struct {
	Analyzer *Analyzer
	Module   *Module

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Module.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunModuleAnalyzers applies the module-scoped analyzers (those with a
// RunModule hook) to mod and returns the surviving findings sorted by
// position. Waivers (`//asvet:allow <name> -- reason`) anywhere in the
// module's files are honoured exactly as in the per-package driver.
// onlyFiles, when non-nil, keeps findings in those files only — the
// driver uses it to restrict module-wide findings to the packages the
// user actually asked about.
func RunModuleAnalyzers(mod *Module, analyzers []*Analyzer, onlyFiles map[string]bool) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		a.RunModule(&ModulePass{Analyzer: a, Module: mod, diags: &diags})
	}

	allowed := make(map[string]map[int]map[string]bool)
	for _, pkg := range mod.Packages {
		for i, f := range pkg.Files {
			allowed[pkg.Filenames[i]] = allowedLines(pkg.Fset, f)
		}
	}
	return filterAndSort(diags, allowed, onlyFiles)
}

// filterAndSort drops waived findings and findings in out-of-scope
// files, then orders the rest by position. Shared by the per-package
// and module drivers.
func filterAndSort(diags []Diagnostic, allowed map[string]map[int]map[string]bool,
	onlyFiles map[string]bool) []Diagnostic {
	kept := diags[:0]
	for _, d := range diags {
		if onlyFiles != nil && !onlyFiles[d.Pos.Filename] {
			continue
		}
		if lines := allowed[d.Pos.Filename]; lines != nil {
			if names := lines[d.Pos.Line]; names[d.Analyzer] {
				continue
			}
		}
		kept = append(kept, d)
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return kept
}
