package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// PKRUPair enforces the trampoline pairing invariant: every PKRU
// domain switch must be matched by a restore on all control-flow
// paths, deferred or explicit. A switch that can reach a return
// without restoring leaves the execution context holding elevated (or
// foreign) rights — exactly the escape hatch the §6 threat model
// forbids.
//
// Two shapes are checked:
//
//  1. Trampoline halves. A function whose body is a single raw
//     WritePKRU call is a trampoline half (asstd's enterSys /
//     leaveSys). A call to an "enter*" half must be paired with its
//     "leave*" counterpart (same name with the prefix swapped) on all
//     paths, usually via `defer`.
//  2. Raw switches. Any other WritePKRU call whose argument is not a
//     value previously saved from ReadPKRU must restore a saved value
//     on all paths to the function's exit.
//
// Initialising a fresh context belongs in mpk.NewContext(initial), not
// a post-hoc WritePKRU — construction is not a crossing.
var PKRUPair = &Analyzer{
	Name: "pkrupair",
	Doc: "every PKRU save/domain switch must have a matching restore " +
		"on all control-flow paths (defer or explicit)",
	Run: runPKRUPair,
}

const mpkContext = "alloystack/internal/mpk.Context"

// pairPrefixes maps an enter-half name prefix to its leave prefix.
var pairPrefixes = map[string]string{
	"enter":   "leave",
	"elevate": "drop",
	"acquire": "release",
}

func runPKRUPair(pass *Pass) {
	if strings.TrimSuffix(pass.PkgPath, "_test") == "alloystack/internal/mpk" {
		return // the register implementation itself
	}

	// First pass: find trampoline halves declared in this package —
	// functions whose body is exactly one raw WritePKRU statement.
	halves := make(map[types.Object]string) // func object -> name
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || len(fd.Body.List) != 1 {
				continue
			}
			es, ok := fd.Body.List[0].(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok || !isMethodCall(pass.Info, call, mpkContext, "WritePKRU") {
				continue
			}
			if obj := pass.Info.Defs[fd.Name]; obj != nil {
				halves[obj] = fd.Name.Name
			}
		}
	}

	leaveFor := func(name string) string {
		for enter, leave := range pairPrefixes {
			if rest, ok := strings.CutPrefix(name, enter); ok {
				return leave + rest
			}
		}
		return ""
	}

	for _, f := range pass.Files {
		funcBodies(f, func(fname string, body *ast.BlockStmt) {
			// Trampoline halves themselves are exempt: pairing is
			// enforced at their call sites.
			if len(body.List) == 1 {
				if es, ok := body.List[0].(*ast.ExprStmt); ok {
					if call, ok := es.X.(*ast.CallExpr); ok &&
						isMethodCall(pass.Info, call, mpkContext, "WritePKRU") {
						return
					}
				}
			}

			cfg := buildCFG(body)

			// Variables saved from ReadPKRU in this function.
			saved := make(map[types.Object]bool)
			inspectSameFunc(body, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok || len(as.Rhs) != 1 {
					return true
				}
				call, ok := unparen(as.Rhs[0]).(*ast.CallExpr)
				if !ok || !isMethodCall(pass.Info, call, mpkContext, "ReadPKRU") {
					return true
				}
				for _, lhs := range as.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if obj := pass.Info.Defs[id]; obj != nil {
							saved[obj] = true
						} else if obj := pass.Info.Uses[id]; obj != nil {
							saved[obj] = true
						}
					}
				}
				return true
			})

			isRestoreCall := func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isMethodCall(pass.Info, call, mpkContext, "WritePKRU") {
					return false
				}
				if len(call.Args) != 1 {
					return false
				}
				id, ok := unparen(call.Args[0]).(*ast.Ident)
				return ok && saved[pass.Info.Uses[id]]
			}
			inspectSameFunc(body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}

				// Shape 1: a call to an enter-half must pair with its
				// leave-half.
				if obj := calleeOf(pass.Info, call); obj != nil {
					if name, isHalf := halves[obj]; isHalf {
						leave := leaveFor(name)
						if leave == "" {
							return true // this is the leave half (or unpaired naming)
						}
						isLeaveCall := func(n ast.Node) bool {
							c, ok := n.(*ast.CallExpr)
							if !ok {
								return false
							}
							o := calleeOf(pass.Info, c)
							return o != nil && halves[o] == leave
						}
						// Deferred leaves also cover the exits a panic
						// unwinds through.
						if !cfg.released(call, isLeaveCall) {
							pass.Reportf(call.Pos(),
								"%s switches the PKRU domain but %s is not called on all paths to return (defer it)",
								name, leave)
						}
						return true
					}
				}

				// Shape 2: raw WritePKRU switches.
				if !isMethodCall(pass.Info, call, mpkContext, "WritePKRU") {
					return true
				}
				if isRestoreCall(call) {
					return true
				}
				if len(saved) == 0 || !cfg.released(call, isRestoreCall) {
					pass.Reportf(call.Pos(),
						"PKRU domain switch without a matching restore of a ReadPKRU-saved value on all paths"+
							" (save with ReadPKRU and restore via defer, or construct the context with mpk.NewContext)")
				}
				return true
			})
		})
	}
}
