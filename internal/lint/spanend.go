package lint

import (
	"go/ast"
	"go/types"
)

// SpanEnd enforces PR 3's tracing contract: every span started with
// Tracer.Start, Span.Child or Span.Syscall must be Ended on all paths
// out of the function that created it. A leaked span never reaches the
// flight recorder, skews PhaseTotals, and desynchronises the structural
// fingerprint that the chaos suite compares across seeded runs.
//
// A span that escapes the creating function — returned, stored in a
// struct or captured by a closure — transfers the obligation to the
// escapee and is not flagged (the same contract as x/tools' lostcancel).
var SpanEnd = &Analyzer{
	Name: "spanend",
	Doc:  "every trace span started must be Ended on all control-flow paths",
	Run:  runSpanEnd,
}

const (
	traceTracer = "alloystack/internal/trace.Tracer"
	traceSpan   = "alloystack/internal/trace.Span"
)

// spanLocalMethods are the Span methods whose use does NOT transfer
// ownership: calling them keeps the End obligation in this function.
var spanLocalMethods = map[string]bool{
	"End": true, "SetAttr": true, "SetLane": true, "Event": true,
	"Complete": true, "Name": true, "Child": true, "Syscall": true,
}

// spanStart reports whether call creates a new span.
func spanStart(info *types.Info, call *ast.CallExpr) bool {
	return isMethodCall(info, call, traceTracer, "Start") ||
		isMethodCall(info, call, traceSpan, "Child") ||
		isMethodCall(info, call, traceSpan, "Syscall")
}

func runSpanEnd(pass *Pass) {
	for _, f := range pass.Files {
		funcBodies(f, func(fname string, body *ast.BlockStmt) {
			parents := buildParents(body)
			cfg := buildCFG(body)

			inspectSameFunc(body, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
					return true
				}
				call, ok := unparen(as.Rhs[0]).(*ast.CallExpr)
				if !ok || !spanStart(pass.Info, call) {
					return true
				}
				id, ok := as.Lhs[0].(*ast.Ident)
				if !ok || id.Name == "_" {
					// A span assigned to _ is started and provably never
					// ended.
					if ok {
						pass.Reportf(as.Pos(), "span started and discarded; it can never be Ended")
					}
					return true
				}
				obj := pass.Info.Defs[id]
				if obj == nil {
					obj = pass.Info.Uses[id] // plain = to an existing var
				}
				if obj == nil {
					return true
				}

				if spanEscapes(pass, body, parents, obj, id) {
					return true
				}

				isEndCall := func(n ast.Node) bool {
					c, ok := n.(*ast.CallExpr)
					if !ok {
						return false
					}
					sel, ok := unparen(c.Fun).(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "End" {
						return false
					}
					recv, ok := unparen(sel.X).(*ast.Ident)
					return ok && pass.Info.Uses[recv] == obj
				}
				if !cfg.released(as, isEndCall) {
					pass.Reportf(as.Pos(),
						"span %q started here is not Ended on all paths to return (defer %s.End())",
						id.Name, id.Name)
				}
				return true
			})
		})
	}
}

// spanEscapes reports whether the span variable leaves the creating
// function: returned, assigned elsewhere, passed as an argument,
// stored in a composite, or used inside a nested function literal.
func spanEscapes(pass *Pass, body *ast.BlockStmt, parents map[ast.Node]ast.Node,
	obj types.Object, def *ast.Ident) bool {
	escapes := false
	var litDepth func(n ast.Node) int
	litDepth = func(n ast.Node) int {
		d := 0
		for p := parents[n]; p != nil; p = parents[p] {
			if _, ok := p.(*ast.FuncLit); ok {
				d++
			}
		}
		return d
	}
	defDepth := litDepth(def)
	ast.Inspect(body, func(n ast.Node) bool {
		if escapes {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok || id == def || pass.Info.Uses[id] != obj {
			return true
		}
		// Captured by a closure: the obligation may be satisfied there.
		if litDepth(id) != defDepth {
			escapes = true
			return false
		}
		parent := parents[id]
		if sel, ok := parent.(*ast.SelectorExpr); ok && sel.X == id {
			if call, ok := parents[sel].(*ast.CallExpr); ok && call.Fun == sel &&
				spanLocalMethods[sel.Sel.Name] {
				return true // sp.End(), sp.SetAttr(...), ...
			}
		}
		escapes = true
		return false
	})
	return escapes
}
