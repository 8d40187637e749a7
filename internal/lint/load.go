package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked analysis unit: a package's compiled
// files, or the package re-checked together with its _test.go files.
type Package struct {
	PkgPath   string
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Filenames []string
	Types     *types.Package
	Info      *types.Info
}

// Loader type-checks packages of the enclosing module from source. It
// resolves module-internal imports by walking the repository and
// delegates standard-library imports to go/importer's source importer,
// so it needs no pre-compiled export data and no network — the
// constraint this repo's toolchain runs under.
type Loader struct {
	ModuleRoot string
	ModuleName string

	fset *token.FileSet
	std  types.Importer
	deps map[string]*types.Package
	// full caches fully-body-checked packages by import path. LoadModule
	// fills it in dependency order (seeding deps with the same
	// *types.Package objects), so every module package is type-checked at
	// most once per asvet invocation: the module-wide pass, the
	// per-package analyzers and the _test.go re-checks all share one set
	// of type objects, which also keeps cross-package object identity
	// stable for the call graph.
	full map[string]*Package
}

// NewLoader builds a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	root, name, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: root,
		ModuleName: name,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		deps:       make(map[string]*types.Package),
		full:       make(map[string]*Package),
	}, nil
}

// Fset returns the loader's shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

func findModule(dir string) (root, name string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, rerr := os.ReadFile(filepath.Join(d, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
	}
}

// Import implements types.Importer: module-internal packages come from
// the repository source (signatures only — bodies are not analyzed for
// dependencies), everything else from the source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModuleName || strings.HasPrefix(path, l.ModuleName+"/") {
		if pkg, ok := l.deps[path]; ok {
			return pkg, nil
		}
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModuleName), "/")
		dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
		files, _, err := l.parseDir(dir, includeCompiled)
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("lint: no Go files in %s", dir)
		}
		conf := types.Config{Importer: l, IgnoreFuncBodies: true}
		pkg, err := conf.Check(path, l.fset, files, nil)
		if err != nil {
			return nil, fmt.Errorf("lint: type-check dependency %s: %w", path, err)
		}
		l.deps[path] = pkg
		return pkg, nil
	}
	return l.std.Import(path)
}

// file classes for parseDir.
const (
	includeCompiled      = iota // non-test files only
	includeExtTest              // package foo_test _test.go files only
	includeInPkgTestOnly        // same-package _test.go files only
)

func (l *Loader) parseDir(dir string, class int) ([]*ast.File, []string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		isTest := strings.HasSuffix(e.Name(), "_test.go")
		switch class {
		case includeCompiled:
			if isTest {
				continue
			}
		case includeExtTest, includeInPkgTestOnly:
			if !isTest {
				continue
			}
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	var files []*ast.File
	var paths []string
	var basePkg string
	for _, name := range names {
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(l.fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, nil, err
		}
		pkgName := f.Name.Name
		isTest := strings.HasSuffix(name, "_test.go")
		ext := strings.HasSuffix(pkgName, "_test")
		switch class {
		case includeCompiled, includeInPkgTestOnly:
			if isTest && ext {
				continue // external test package: separate unit
			}
		case includeExtTest:
			if !ext {
				continue
			}
		}
		if basePkg == "" {
			basePkg = pkgName
		} else if pkgName != basePkg {
			return nil, nil, fmt.Errorf("lint: %s: package %s conflicts with %s", path, pkgName, basePkg)
		}
		files = append(files, f)
		paths = append(paths, path)
	}
	return files, paths, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

func (l *Loader) check(pkgPath string, files []*ast.File, names []string, dir string) (*Package, error) {
	info := newInfo()
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(pkgPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-check %s: %w", pkgPath, err)
	}
	return &Package{
		PkgPath:   pkgPath,
		Dir:       dir,
		Fset:      l.fset,
		Files:     files,
		Filenames: names,
		Types:     tpkg,
		Info:      info,
	}, nil
}

// LoadDir type-checks the package in dir (with full bodies and type
// info) under the given import path. pkgPath "" derives the path from
// the directory's location in the module. Packages already checked by
// LoadModule are returned from the cache without re-checking.
func (l *Loader) LoadDir(dir, pkgPath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if pkgPath == "" {
		pkgPath = l.pathFor(abs)
	}
	if pkg, ok := l.full[pkgPath]; ok && pkg.Dir == abs {
		return pkg, nil
	}
	files, names, err := l.parseDir(abs, includeCompiled)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", abs)
	}
	return l.check(pkgPath, files, names, abs)
}

// LoadModule parses every package directory under the module root,
// orders them by their module-internal import edges, and full-body
// type-checks each exactly once, seeding the dependency cache as it
// goes. The returned packages power the module-wide analyzers; later
// LoadDir/LoadDirUnits calls for the same paths reuse them instead of
// re-typechecking shared dependencies per root.
func (l *Loader) LoadModule() ([]*Package, error) {
	dirs, err := PackageDirs(l.ModuleRoot)
	if err != nil {
		return nil, err
	}
	type parsed struct {
		dir     string
		pkgPath string
		files   []*ast.File
		names   []string
		imports []string
	}
	byPath := make(map[string]*parsed, len(dirs))
	var order []string
	for _, dir := range dirs {
		files, names, err := l.parseDir(dir, includeCompiled)
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			continue // test-only directory
		}
		p := &parsed{dir: dir, pkgPath: l.pathFor(dir), files: files, names: names}
		for _, f := range files {
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				if path == l.ModuleName || strings.HasPrefix(path, l.ModuleName+"/") {
					p.imports = append(p.imports, path)
				}
			}
		}
		byPath[p.pkgPath] = p
		order = append(order, p.pkgPath)
	}

	// Topological order over module-internal imports: dependencies are
	// checked before their importers, so conf.Check never needs to
	// signature-check a module package on its own — Import always hits
	// the cache of full checks.
	var pkgs []*Package
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(path string) error
	visit = func(path string) error {
		p, ok := byPath[path]
		if !ok || state[path] == 2 {
			return nil
		}
		if state[path] == 1 {
			return fmt.Errorf("lint: import cycle through %s", path)
		}
		state[path] = 1
		for _, dep := range p.imports {
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[path] = 2
		pkg, err := l.check(path, p.files, p.names, p.dir)
		if err != nil {
			return err
		}
		l.full[path] = pkg
		l.deps[path] = pkg.Types
		pkgs = append(pkgs, pkg)
		return nil
	}
	for _, path := range order {
		if err := visit(path); err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}

// LoadDirUnits returns every analysis unit in dir: the plain package,
// the package re-checked with its in-package _test.go files (when any
// exist), and the external "_test" package (when one exists). The
// second return per unit lists the _test.go files, so the driver can
// restrict reporting to them and avoid duplicates.
func (l *Loader) LoadDirUnits(dir string) ([]*Package, []map[string]bool, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, nil, err
	}
	pkgPath := l.pathFor(abs)

	var units []*Package
	var only []map[string]bool

	var base []*ast.File
	var baseNames []string
	if pkg, ok := l.full[pkgPath]; ok && pkg.Dir == abs {
		// LoadModule already checked the compiled unit; reuse it and its
		// parsed files, so only the _test.go files are parsed fresh below.
		base, baseNames = pkg.Files, pkg.Filenames
		units = append(units, pkg)
		only = append(only, nil)
	} else {
		base, baseNames, err = l.parseDir(abs, includeCompiled)
		if err != nil {
			return nil, nil, err
		}
		if len(base) > 0 {
			pkg, err := l.check(pkgPath, base, baseNames, abs)
			if err != nil {
				return nil, nil, err
			}
			units = append(units, pkg)
			only = append(only, nil)
		}
	}

	inTests, itNames, err := l.parseDir(abs, includeInPkgTestOnly)
	if err != nil {
		return nil, nil, err
	}
	if len(inTests) > 0 {
		withTests := append(append([]*ast.File{}, base...), inTests...)
		wtNames := append(append([]string{}, baseNames...), itNames...)
		pkg, err := l.check(pkgPath, withTests, wtNames, abs)
		if err != nil {
			return nil, nil, err
		}
		testOnly := make(map[string]bool)
		for _, n := range itNames {
			testOnly[n] = true
		}
		units = append(units, pkg)
		only = append(only, testOnly)
	}

	ext, extNames, err := l.parseDir(abs, includeExtTest)
	if err != nil {
		return nil, nil, err
	}
	if len(ext) > 0 {
		pkg, err := l.check(pkgPath+"_test", ext, extNames, abs)
		if err != nil {
			return nil, nil, err
		}
		units = append(units, pkg)
		only = append(only, nil)
	}
	return units, only, nil
}

// pathFor maps an absolute directory to its import path in the module.
func (l *Loader) pathFor(abs string) string {
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil || rel == "." {
		return l.ModuleName
	}
	return l.ModuleName + "/" + filepath.ToSlash(rel)
}

// PackageDirs walks root and returns every directory holding a Go
// package, skipping testdata, hidden directories and vendor trees —
// the expansion of the "./..." pattern.
func PackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}
