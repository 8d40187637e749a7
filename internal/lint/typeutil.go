package lint

import (
	"go/ast"
	"go/types"
)

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// calleeOf resolves the object a call expression invokes: a function,
// a method, or nil for indirect calls and conversions.
func calleeOf(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			return sel.Obj()
		}
		return info.Uses[fn.Sel] // package-qualified call
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := unparen(fn.X).(*ast.Ident); ok {
			return info.Uses[id]
		}
	}
	return nil
}

// methodID renders obj as "pkgpath.RecvType.Method" when obj is a
// method; ok is false otherwise.
func methodID(obj types.Object) (recv string, name string, ok bool) {
	fn, isFn := obj.(*types.Func)
	if !isFn {
		return "", "", false
	}
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return "", "", false
	}
	t := sig.Recv().Type()
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	tn := named.Obj()
	if tn.Pkg() == nil {
		return "", "", false
	}
	return tn.Pkg().Path() + "." + tn.Name(), fn.Name(), true
}

// isMethodCall reports whether call invokes pkgDotType's method named
// name (receiver matched structurally, so it works on values, pointers
// and embedded selections alike).
func isMethodCall(info *types.Info, call *ast.CallExpr, pkgDotType, name string) bool {
	obj := calleeOf(info, call)
	if obj == nil {
		return false
	}
	recv, m, ok := methodID(obj)
	return ok && recv == pkgDotType && m == name
}

var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t implements the error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorType) ||
		types.Implements(types.NewPointer(t), errorType)
}

// sentinelErrorVar reports whether e references a package-level
// variable of an error type — the shape of a sentinel like io.EOF or
// this repo's ErrX values.
func sentinelErrorVar(info *types.Info, e ast.Expr) (types.Object, bool) {
	var obj types.Object
	switch e := unparen(e).(type) {
	case *ast.Ident:
		obj = info.Uses[e]
	case *ast.SelectorExpr:
		obj = info.Uses[e.Sel]
	default:
		return nil, false
	}
	v, isVar := obj.(*types.Var)
	if !isVar || v.IsField() || v.Pkg() == nil {
		return nil, false
	}
	if v.Parent() != v.Pkg().Scope() {
		return nil, false
	}
	if !isErrorType(v.Type()) {
		return nil, false
	}
	return v, true
}

// buildParents maps every node in root to its parent.
func buildParents(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// funcBodies yields every function body in the file — declarations and
// literals — each of which gets its own CFG in the all-paths analyzers.
func funcBodies(f *ast.File, visit func(body *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				visit(n.Body)
			}
		case *ast.FuncLit:
			visit(n.Body)
		}
		return true
	})
}
