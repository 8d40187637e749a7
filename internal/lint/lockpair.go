package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// LockPair proves the release discipline the -race gate can only spot
// dynamically, for the interleavings tests happen to produce: every
// sync.Mutex.Lock / RWMutex.Lock / RLock must be matched by the
// corresponding Unlock/RUnlock on all control-flow paths out of the
// acquiring function. An early return between Lock and Unlock is the
// classic shutdown-hang: the next acquirer blocks forever, and under
// load the whole shard wedges behind one lost release.
//
// The obligation transfers (and the site goes quiet) when the release
// demonstrably happens elsewhere, reusing spanend's escape pattern:
//
//   - `defer mu.Unlock()` — including inside a deferred closure;
//   - a matching Unlock inside any function literal of the same
//     function (an unlock closure stored, returned or passed on);
//   - the Unlock method itself taken as a value (`return s.mu.Unlock`);
//   - a call to a same-package helper whose body releases the same
//     field (`s.mu.Lock(); s.drainAndUnlock()`).
//
// Locks named by anything more complex than an ident/selector chain
// (`locks[i].mu`) are skipped: identity cannot be tracked textually.
var LockPair = &Analyzer{
	Name: "lockpair",
	Doc: "every sync Lock/RLock must be released on all control-flow " +
		"paths (defer the Unlock, or transfer the obligation explicitly)",
	Run: runLockPair,
}

// lockPairs maps acquire method -> matching release method.
var lockPairs = map[string]string{
	"Lock":  "Unlock",
	"RLock": "RUnlock",
}

// mutexPath renders the receiver of a Lock/Unlock call as a stable
// textual key ("s.mu", "p.cfg.mu", "globalMu"). ok is false for
// expressions whose identity cannot be tracked (index, call, deref of
// computed pointers).
func mutexPath(e ast.Expr) (string, bool) {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		return e.Name, true
	case *ast.SelectorExpr:
		base, ok := mutexPath(e.X)
		if !ok {
			return "", false
		}
		return base + "." + e.Sel.Name, true
	}
	return "", false
}

// lockCall matches a call to a sync.Mutex/RWMutex lock-family method
// and returns the receiver key and the method name.
func lockCall(info *types.Info, n ast.Node) (key, method string, ok bool) {
	call, isCall := n.(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	sel, isSel := unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	if !isSyncLockType(info.TypeOf(sel.X)) {
		return "", "", false
	}
	key, ok = mutexPath(sel.X)
	return key, sel.Sel.Name, ok
}

// isSyncLockType reports whether t is sync.Mutex or sync.RWMutex
// (possibly behind a pointer).
func isSyncLockType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// fieldUnlockers maps, per package, a helper function object to the
// set of "field suffix / method" releases its body performs
// (".mu"+"Unlock"), so `s.mu.Lock(); s.helperThatUnlocks()` discharges.
func fieldUnlockers(pass *Pass) map[types.Object]map[string]bool {
	out := make(map[types.Object]map[string]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.Info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				key, method, ok := lockCall(pass.Info, n)
				if !ok || (method != "Unlock" && method != "RUnlock") {
					return true
				}
				// Keep only the field suffix: "s.mu" -> ".mu" so the
				// caller's receiver name does not need to match.
				suffix := key
				if i := strings.Index(key, "."); i >= 0 {
					suffix = key[i:]
				}
				if out[obj] == nil {
					out[obj] = make(map[string]bool)
				}
				out[obj][suffix+"/"+method] = true
				return true
			})
		}
	}
	return out
}

func runLockPair(pass *Pass) {
	unlockers := fieldUnlockers(pass)
	for _, f := range pass.Files {
		funcBodies(f, func(fname string, body *ast.BlockStmt) {
			cfg := buildCFG(body)
			parents := buildParents(body)

			inspectSameFunc(body, func(n ast.Node) bool {
				key, method, ok := lockCall(pass.Info, n)
				if !ok {
					return true
				}
				release, isAcquire := lockPairs[method]
				if !isAcquire {
					return true
				}
				call := n.(*ast.CallExpr)

				suffix := key
				if i := strings.Index(key, "."); i >= 0 {
					suffix = key[i:]
				}
				isRelease := func(n ast.Node) bool {
					k, m, ok := lockCall(pass.Info, n)
					if ok && k == key && m == release {
						return true
					}
					// A call to a same-package helper that releases the
					// same field counts as the release.
					if c, isCall := n.(*ast.CallExpr); isCall {
						if obj := calleeOf(pass.Info, c); obj != nil {
							return unlockers[obj][suffix+"/"+release]
						}
					}
					return false
				}
				// Obligation transfer: a matching release inside any
				// nested function literal, or the release method taken
				// as a value.
				transferred := false
				ast.Inspect(body, func(n ast.Node) bool {
					if transferred {
						return false
					}
					if lit, ok := n.(*ast.FuncLit); ok {
						transferred = findNode(lit.Body, ast.Inspect, isRelease)
						return false
					}
					if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == release {
						if k, ok := mutexPath(sel.X); ok && k == key && isSyncLockType(pass.Info.TypeOf(sel.X)) {
							// Only a bare method value transfers; a call's
							// selector is the release itself and stays
							// subject to the all-paths check below.
							if call, isCall := parents[sel].(*ast.CallExpr); !isCall || unparen(call.Fun) != sel {
								transferred = true
								return false
							}
						}
					}
					return true
				})
				if !transferred && !cfg.released(call, isRelease) {
					pass.Reportf(call.Pos(),
						"%s.%s is not %sed on all paths to return (defer %s.%s())",
						key, method, release, key, release)
				}
				return true
			})
		})
	}
}
