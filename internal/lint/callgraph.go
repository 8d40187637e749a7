package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The module-wide call graph. Nodes are the module's declared functions
// and methods, keyed by a stable textual ID ("pkgpath.Func" or
// "pkgpath.Type.Method" — the same rendering methodID uses), so graph
// identity survives even if a package were type-checked twice.
//
// Soundness posture (documented in DESIGN.md §10): the module is
// reflection-free, so three edge kinds over-approximate everything that
// can actually run:
//
//   - EdgeCall: direct calls, plus method calls resolved by the static
//     receiver type when that type is concrete.
//   - EdgeDispatch: a call through an interface method links the
//     abstract method to the same-named method of every module type
//     that implements the interface — the classic class-hierarchy
//     over-approximation.
//   - EdgeRef: a function or method used as a *value* (address-taken:
//     `f := space.ReadAt`, a handler passed to a registry, a method
//     expression) edges the referencing function to the referenced one
//     at the reference site. Whoever eventually invokes the value does
//     so with a capability minted here, so reachability is charged to
//     the minting function.
//
// Package-level variable initialisers hang off a synthetic
// "pkgpath.<init>" node.

type EdgeKind int

const (
	EdgeCall EdgeKind = iota
	EdgeDispatch
	EdgeRef
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeDispatch:
		return "dispatch"
	case EdgeRef:
		return "ref"
	}
	return "call"
}

// CGNode is one function (or method) in the module call graph.
type CGNode struct {
	ID      string // "pkgpath.Func" or "pkgpath.Type.Method"
	PkgPath string
	Name    string // display name within the package ("Func", "Type.Method")
	Pos     token.Pos
	// Decl is the syntax of the function body when it is declared in the
	// module (nil for abstract interface methods and synthetic nodes).
	Decl *ast.FuncDecl
	// DeclPkg is the module package holding Decl.
	DeclPkg *Package
	Out     []*CGEdge
	In      []*CGEdge
}

// CGEdge is one may-call relationship at one site.
type CGEdge struct {
	From, To *CGNode
	Pos      token.Pos // call, reference, or dispatch-origin site
	Kind     EdgeKind
}

// CallGraph indexes the module's may-call relation.
type CallGraph struct {
	Nodes map[string]*CGNode

	// pkgs is the set of loaded package paths: only functions declared in
	// (or belonging to) these packages become nodes.
	pkgs map[string]bool
}

// funcID renders fn's stable node ID and display name. ok is false for
// functions outside any package (builtins).
func funcID(fn *types.Func) (id, pkgPath, name string, ok bool) {
	fn = fn.Origin() // unify generic instantiations with their origin
	if recv, m, isMethod := methodID(fn); isMethod {
		dot := strings.LastIndex(recv, ".")
		return recv + "." + m, recv[:dot], recv[dot+1:] + "." + m, true
	}
	if fn.Pkg() == nil {
		return "", "", "", false
	}
	return fn.Pkg().Path() + "." + fn.Name(), fn.Pkg().Path(), fn.Name(), true
}

// inModule reports whether path names one of the analyzed packages.
func (g *CallGraph) inModule(path string) bool {
	return g.pkgs[path]
}

// node interns the graph node for fn, creating it on first sight.
func (g *CallGraph) node(fn *types.Func) *CGNode {
	id, pkgPath, name, ok := funcID(fn)
	if !ok || !g.inModule(pkgPath) {
		return nil
	}
	if n, seen := g.Nodes[id]; seen {
		return n
	}
	n := &CGNode{ID: id, PkgPath: pkgPath, Name: name, Pos: fn.Pos()}
	g.Nodes[id] = n
	return n
}

// addEdge records one edge per site, so an analyzer reporting edges
// reports every site and a waiver on one covers no other.
func (g *CallGraph) addEdge(from, to *CGNode, pos token.Pos, kind EdgeKind) {
	if from == nil || to == nil || from == to {
		return
	}
	e := &CGEdge{From: from, To: to, Pos: pos, Kind: kind}
	from.Out = append(from.Out, e)
	to.In = append(to.In, e)
}

// BuildCallGraph constructs the module call graph over fully-checked
// packages (LoadModule output: cross-package type identity is
// consistent).
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{Nodes: make(map[string]*CGNode), pkgs: make(map[string]bool, len(pkgs))}
	for _, pkg := range pkgs {
		g.pkgs[pkg.PkgPath] = true
	}

	// ifaceCalls remembers interface-method call edges so dispatch
	// completion can run after every concrete method node exists.
	type ifaceCall struct {
		abstract *types.Func
		node     *CGNode
	}
	var ifaceCalls []ifaceCall

	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			var initNode *CGNode // lazily created per package
			for _, decl := range f.Decls {
				var from *CGNode
				var body ast.Node
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn, _ := pkg.Info.Defs[d.Name].(*types.Func)
					if fn == nil {
						continue
					}
					from = g.node(fn)
					if from == nil {
						continue
					}
					from.Decl, from.DeclPkg = d, pkg
					if d.Body == nil {
						continue
					}
					body = d.Body
				case *ast.GenDecl:
					if d.Tok != token.VAR {
						continue
					}
					if initNode == nil {
						id := pkg.PkgPath + ".<init>"
						if n, ok := g.Nodes[id]; ok {
							initNode = n
						} else {
							initNode = &CGNode{ID: id, PkgPath: pkg.PkgPath, Name: "<init>", Pos: d.Pos(), DeclPkg: pkg}
							g.Nodes[id] = initNode
						}
					}
					from, body = initNode, d
				default:
					continue
				}

				parents := buildParents(body)
				ast.Inspect(body, func(n ast.Node) bool {
					fn, pos, inCallPos := resolveFuncUse(pkg.Info, parents, n)
					if fn == nil {
						return true
					}
					to := g.node(fn)
					if to == nil {
						return true
					}
					switch {
					case !inCallPos:
						g.addEdge(from, to, pos, EdgeRef)
					case isAbstractMethod(fn):
						g.addEdge(from, to, pos, EdgeCall)
						ifaceCalls = append(ifaceCalls, ifaceCall{abstract: fn, node: to})
					default:
						g.addEdge(from, to, pos, EdgeCall)
					}
					return true
				})
			}
		}
	}

	// Dispatch completion: for each interface method that is actually
	// called somewhere, link it to the same-named method of every module
	// named type that implements the interface.
	if len(ifaceCalls) > 0 {
		var named []*types.Named
		for _, pkg := range pkgs {
			scope := pkg.Types.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || tn.IsAlias() {
					continue
				}
				if nt, ok := tn.Type().(*types.Named); ok {
					named = append(named, nt)
				}
			}
		}
		done := make(map[*types.Func]bool)
		for _, ic := range ifaceCalls {
			if done[ic.abstract] {
				continue
			}
			done[ic.abstract] = true
			recv := ic.abstract.Type().(*types.Signature).Recv()
			iface, ok := recv.Type().Underlying().(*types.Interface)
			if !ok {
				continue
			}
			for _, nt := range named {
				if types.IsInterface(nt) {
					continue
				}
				var impl types.Type = nt
				if !types.Implements(impl, iface) {
					impl = types.NewPointer(nt)
					if !types.Implements(impl, iface) {
						continue
					}
				}
				obj, _, _ := types.LookupFieldOrMethod(impl, true, ic.abstract.Pkg(), ic.abstract.Name())
				m, ok := obj.(*types.Func)
				if !ok {
					continue
				}
				g.addEdge(ic.node, g.node(m), ic.node.Pos, EdgeDispatch)
			}
		}
	}
	return g
}

// resolveFuncUse inspects one AST node for a use of a *types.Func and
// classifies it: inCallPos is true when the use is the operator of a
// call expression (a direct call), false when the function is taken as
// a value. Identifiers that are the Sel of a SelectorExpr are skipped
// (the selector case handles them) so each use is seen exactly once.
func resolveFuncUse(info *types.Info, parents map[ast.Node]ast.Node, n ast.Node) (fn *types.Func, pos token.Pos, inCallPos bool) {
	callPosition := func(e ast.Expr) bool {
		// Climb parentheses and generic instantiations, f[T] and
		// (f)[T] alike, to the expression a call would hold as Fun.
		for {
			switch p := parents[e].(type) {
			case *ast.ParenExpr:
				e = p
				continue
			case *ast.IndexExpr:
				if p.X == e {
					e = p
					continue
				}
			case *ast.IndexListExpr:
				if p.X == e {
					e = p
					continue
				}
			}
			break
		}
		call, ok := parents[e].(*ast.CallExpr)
		return ok && call.Fun == e
	}

	switch n := n.(type) {
	case *ast.SelectorExpr:
		var obj types.Object
		if sel, ok := info.Selections[n]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[n.Sel]
		}
		f, ok := obj.(*types.Func)
		if !ok {
			return nil, token.NoPos, false
		}
		return f, n.Pos(), callPosition(n)
	case *ast.Ident:
		if sel, ok := parents[n].(*ast.SelectorExpr); ok && sel.Sel == n {
			return nil, token.NoPos, false
		}
		f, ok := info.Uses[n].(*types.Func)
		if !ok {
			return nil, token.NoPos, false
		}
		return f, n.Pos(), callPosition(n)
	}
	return nil, token.NoPos, false
}

// isAbstractMethod reports whether fn is an interface method (no body
// anywhere — dispatch resolves it).
func isAbstractMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	return types.IsInterface(recv.Type())
}
