package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// The all-paths analyzers (spanend, lockpair, pkrupair) are one engine
// and three specs. An acquisition (a span started, a mutex locked, a
// PKRU domain entered) must be released on every path out of the
// acquiring function, by a defer or explicitly, unless the obligation
// provably moves elsewhere. A spec supplies the three parts: which
// node acquires, which nodes release that particular acquisition (the
// key, a span variable or a mutex path, is bound in the matcher), and
// the escape rule, under which the acquisition is not this function's
// to release.

// acquireFunc inspects one node of a function body. For a node that
// takes on an obligation this function must release, it returns the
// matcher for the releasing nodes and the finding to report when some
// path to return misses them. For any other node, and for an
// acquisition that escapes, it returns a nil matcher.
type acquireFunc func(n ast.Node) (release func(ast.Node) bool, finding string)

// runObligations checks one spec over every function body in the
// package, literals included: spec returns the body's acquire matcher,
// or nil to skip the body. A body's CFG is built only once it holds an
// acquisition.
func runObligations(pass *Pass, spec func(body *ast.BlockStmt) acquireFunc) {
	for _, f := range pass.Files {
		funcBodies(f, func(body *ast.BlockStmt) {
			acquire := spec(body)
			if acquire == nil {
				return
			}
			var cfg *funcCFG
			inspectSameFunc(body, func(n ast.Node) bool {
				release, finding := acquire(n)
				if release == nil {
					return true
				}
				if cfg == nil {
					cfg = buildCFG(body)
				}
				if !cfg.released(n, release) {
					pass.Reportf(n.Pos(), "%s", finding)
				}
				return true
			})
		})
	}
}

// SpanEnd enforces the tracing contract: every span started with
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
	runObligations(pass, func(body *ast.BlockStmt) acquireFunc {
		return func(n ast.Node) (func(ast.Node) bool, string) {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return nil, ""
			}
			call, ok := unparen(as.Rhs[0]).(*ast.CallExpr)
			if !ok || !spanStart(pass.Info, call) {
				return nil, ""
			}
			id, ok := as.Lhs[0].(*ast.Ident)
			if !ok {
				return nil, "" // stored in a field: the obligation moves with it
			}
			if id.Name == "_" {
				pass.Reportf(as.Pos(), "span started and discarded; it can never be Ended")
				return nil, ""
			}
			obj := pass.Info.ObjectOf(id)
			if obj == nil || spanEscapes(pass.Info, body, obj, id) {
				return nil, ""
			}
			isEnd := func(n ast.Node) bool {
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
			return isEnd, fmt.Sprintf("span %q started here is not Ended on all paths to return (defer %s.End())",
				id.Name, id.Name)
		}
	})
}

// spanEscapes is spanend's escape rule: the span variable leaves the
// creating function when it is used inside a nested function literal,
// or in any way other than as the receiver of a spanLocalMethods call
// (returned, assigned elsewhere, passed as an argument, stored in a
// composite).
func spanEscapes(info *types.Info, body *ast.BlockStmt, obj types.Object, def *ast.Ident) bool {
	isUse := func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		return ok && info.Uses[id] == obj
	}
	local := map[*ast.Ident]bool{def: true}
	escapes := false
	ast.Inspect(body, func(n ast.Node) bool {
		if escapes {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			// Captured by a closure: the obligation may be met there.
			escapes = findNode(n.Body, ast.Inspect, isUse)
			return false
		case *ast.CallExpr: // sp.End(), sp.SetAttr(...), ...
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && spanLocalMethods[sel.Sel.Name] {
				if id, ok := sel.X.(*ast.Ident); ok {
					local[id] = true
				}
			}
		case *ast.Ident:
			escapes = !local[n] && isUse(n)
		}
		return !escapes
	})
	return escapes
}

// LockPair proves the release discipline the -race gate can only spot
// dynamically, for the interleavings tests happen to produce: every
// sync.Mutex.Lock / RWMutex.Lock / RLock must be matched by the
// corresponding Unlock/RUnlock on all control-flow paths out of the
// acquiring function. An early return between Lock and Unlock is the
// classic shutdown-hang: the next acquirer blocks forever, and under
// load the whole shard wedges behind one lost release.
//
// The obligation transfers (and the site goes quiet) when the release
// demonstrably happens elsewhere:
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

// fieldSuffix drops the receiver name from a mutex path ("s.mu" ->
// ".mu"), so a helper's release matches whatever its caller calls the
// receiver.
func fieldSuffix(key string) string {
	if i := strings.Index(key, "."); i >= 0 {
		return key[i:]
	}
	return key
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
				if out[obj] == nil {
					out[obj] = make(map[string]bool)
				}
				out[obj][fieldSuffix(key)+"/"+method] = true
				return true
			})
		}
	}
	return out
}

func runLockPair(pass *Pass) {
	unlockers := fieldUnlockers(pass)
	runObligations(pass, func(body *ast.BlockStmt) acquireFunc {
		return func(n ast.Node) (func(ast.Node) bool, string) {
			key, method, ok := lockCall(pass.Info, n)
			release, isAcquire := lockPairs[method]
			if !ok || !isAcquire {
				return nil, ""
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
						return unlockers[obj][fieldSuffix(key)+"/"+release]
					}
				}
				return false
			}
			if lockTransferred(pass.Info, body, key, release, isRelease) {
				return nil, ""
			}
			return isRelease, fmt.Sprintf("%s.%s is not %sed on all paths to return (defer %s.%s())",
				key, method, release, key, release)
		}
	})
}

// lockTransferred is lockpair's escape rule: a matching release inside
// any nested function literal, or the release method of the same lock
// taken as a value rather than called.
func lockTransferred(info *types.Info, body *ast.BlockStmt, key, release string, isRelease func(ast.Node) bool) bool {
	called := make(map[ast.Expr]bool)
	transferred := false
	ast.Inspect(body, func(n ast.Node) bool {
		if transferred {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			transferred = findNode(n.Body, ast.Inspect, isRelease)
			return false
		case *ast.CallExpr:
			// A call's own selector is the release itself and stays
			// subject to the all-paths check.
			called[unparen(n.Fun)] = true
		case *ast.SelectorExpr:
			if !called[n] && n.Sel.Name == release && isSyncLockType(info.TypeOf(n.X)) {
				k, ok := mutexPath(n.X)
				transferred = ok && k == key
			}
		}
		return !transferred
	})
	return transferred
}

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
//     paths, usually via `defer`. A call to a half named neither
//     enter* nor leave* is reported: its pairing cannot be checked.
//  2. Raw switches. Any other WritePKRU call whose argument is not a
//     value previously saved from ReadPKRU must restore a saved value
//     on all paths to the function's exit.
//
// Initialising a fresh context belongs in mpk.Context.Init(initial), not
// a post-hoc WritePKRU — construction is not a crossing.
var PKRUPair = &Analyzer{
	Name: "pkrupair",
	Doc: "every PKRU save/domain switch must have a matching restore " +
		"on all control-flow paths (defer or explicit)",
	Run: runPKRUPair,
}

const mpkContext = "alloystack/internal/mpk.Context"

// isHalfBody reports whether body is exactly one raw WritePKRU
// statement: the body of a trampoline half.
func isHalfBody(info *types.Info, body *ast.BlockStmt) bool {
	if body == nil || len(body.List) != 1 {
		return false
	}
	es, ok := body.List[0].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	return ok && isMethodCall(info, call, mpkContext, "WritePKRU")
}

// savedPKRU collects the variables body assigns from ReadPKRU.
func savedPKRU(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	saved := make(map[types.Object]bool)
	inspectSameFunc(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || !isMethodCall(info, call, mpkContext, "ReadPKRU") {
			return true
		}
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && info.ObjectOf(id) != nil {
				saved[info.ObjectOf(id)] = true
			}
		}
		return true
	})
	return saved
}

func runPKRUPair(pass *Pass) {
	if strings.TrimSuffix(pass.PkgPath, "_test") == "alloystack/internal/mpk" {
		return // the register implementation itself
	}
	halves := make(map[types.Object]string) // func object -> name
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && isHalfBody(pass.Info, fd.Body) {
				if obj := pass.Info.Defs[fd.Name]; obj != nil {
					halves[obj] = fd.Name.Name
				}
			}
		}
	}
	isWrite := func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		return ok && isMethodCall(pass.Info, call, mpkContext, "WritePKRU")
	}

	runObligations(pass, func(body *ast.BlockStmt) acquireFunc {
		if isHalfBody(pass.Info, body) {
			return nil // pairing is enforced at the halves' call sites
		}
		var saved map[types.Object]bool // filled at the first raw switch
		isRestore := func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isWrite(call) || len(call.Args) != 1 {
				return false
			}
			id, ok := unparen(call.Args[0]).(*ast.Ident)
			return ok && saved[pass.Info.Uses[id]]
		}
		return func(n ast.Node) (func(ast.Node) bool, string) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return nil, ""
			}
			if name, isHalf := halves[calleeOf(pass.Info, call)]; isHalf {
				if strings.HasPrefix(name, "leave") {
					return nil, "" // the restoring half
				}
				rest, isEnter := strings.CutPrefix(name, "enter")
				if !isEnter {
					pass.Reportf(call.Pos(), "%s switches the PKRU domain but is named neither enter* nor leave*,"+
						" so its restore cannot be checked (name trampoline halves enterX/leaveX)", name)
					return nil, ""
				}
				leave := "leave" + rest
				isLeave := func(n ast.Node) bool {
					c, ok := n.(*ast.CallExpr)
					return ok && halves[calleeOf(pass.Info, c)] == leave
				}
				return isLeave, fmt.Sprintf("%s switches the PKRU domain but %s is not called on all paths to return (defer it)",
					name, leave)
			}
			if !isWrite(call) {
				return nil, ""
			}
			if saved == nil {
				saved = savedPKRU(pass.Info, body)
			}
			if isRestore(call) {
				return nil, ""
			}
			return isRestore, "PKRU domain switch without a matching restore of a ReadPKRU-saved value on all paths" +
				" (save with ReadPKRU and restore via defer, or initialise the context with mpk.Context.Init)"
		}
	})
}
