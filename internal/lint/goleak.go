package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoLeak proves that background goroutines in the long-lived packages
// can shut down: every non-test `go` statement there must have a
// reachable termination path. A visor process serves traffic for weeks;
// a maintenance loop with no exit signal pins its workflow state, its
// timer and its stack forever, and N leaked loops per deploy is a slow
// memory death the -race gate never sees.
//
// Accepted termination shapes:
//
//   - a structurally terminating body (no unconditional `for` loop):
//     run-to-completion work, usually bounded by a WaitGroup;
//   - `for` with a condition or a `range` (range over a channel ends
//     when the owner closes it — the close-able stop channel idiom);
//   - an unconditional loop containing BOTH an exit statement (return,
//     or a break/goto leaving the loop) AND a termination source: a
//     receive from ctx.Done() or any other non-timer channel, a
//     ctx.Err() poll, or a blocking accept/recv-style call on a
//     closeable source (net.Listener.Accept and friends return once
//     the owner closes the listener).
//
// Timer channels (time.After, Ticker.C, Timer.C, time.Tick) are *not*
// termination sources — a ticker wakes the loop up, it never stops it.
//
// `go f()` with f declared in the module is resolved through the call
// graph and f's body is analyzed as the goroutine body. Goroutines
// running external functions (e.g. http.Server.Serve) are skipped: no
// body to prove, and their shutdown contract lives in the stdlib.
var GoLeak = &Analyzer{
	Name: "goleak",
	Doc: "goroutines in long-lived packages must have a reachable " +
		"termination path (ctx.Done, stop channel, closeable source, or bounded body)",
	RunModule: runGoLeak,
}

// goleakScope lists the long-lived packages: anything that runs inside
// a visor/gateway process serving traffic. Benchmark harnesses,
// baselines, examples and CLIs are run-to-completion and exempt.
var goleakScope = map[string]bool{
	"alloystack/internal/cluster":  true,
	"alloystack/internal/core":     true,
	"alloystack/internal/gateway":  true,
	"alloystack/internal/journal":  true,
	"alloystack/internal/kvstore":  true,
	"alloystack/internal/metrics":  true,
	"alloystack/internal/netstack": true,
	"alloystack/internal/pool":     true,
	"alloystack/internal/sched":    true,
	"alloystack/internal/trace":    true,
	"alloystack/internal/visor":    true,
	"alloystack/internal/xfer":     true,
}

// goleakBlockingCalls are method names whose blocking call on a
// closeable source ends when the owner closes it — the accept-loop
// family.
var goleakBlockingCalls = map[string]bool{
	"Accept": true, "Recv": true, "Receive": true, "Next": true,
	"ReadFrame": true, "RecvFrame": true, "Dequeue": true,
}

func runGoLeak(pass *ModulePass) {
	for _, pkg := range pass.Module.Packages {
		if !goleakScope[pkg.PkgPath] {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				body := goroutineBody(pass.Module, pkg.Info, gs)
				if body == nil {
					return true // external callee: nothing to prove here
				}
				if pos, leaky := findUnterminatedLoop(pkg.Info, body); leaky {
					pass.Reportf(gs.Pos(),
						"goroutine has no reachable termination path: unbounded loop at %s "+
							"with no exit via ctx.Done/stop channel/closeable source"+
							" (long-lived packages must shut background work down)",
						pass.Module.Fset.Position(pos))
				}
				return true
			})
		}
	}
}

// goroutineBody resolves what the spawned goroutine runs: the literal's
// body, or the body of a module-declared callee.
func goroutineBody(mod *Module, info *types.Info, gs *ast.GoStmt) *ast.BlockStmt {
	if lit, ok := unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		return lit.Body
	}
	fn, ok := calleeOf(info, gs.Call).(*types.Func)
	if !ok {
		return nil
	}
	id, _, _, ok := funcID(fn)
	if !ok {
		return nil
	}
	if node := mod.Graph.Nodes[id]; node != nil && node.Decl != nil {
		return node.Decl.Body
	}
	return nil
}

// findUnterminatedLoop scans the goroutine body (not descending into
// nested function literals — nested `go` statements are checked at
// their own sites) for an unconditional `for` loop with no termination
// path. Returns the loop position when one is found.
func findUnterminatedLoop(info *types.Info, body *ast.BlockStmt) (token.Pos, bool) {
	var leakPos token.Pos
	leaky := false
	inspectSameFunc(body, func(n ast.Node) bool {
		if leaky {
			return false
		}
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond != nil {
			return true // conditional loops have an exit edge
		}
		if !loopTerminates(info, loop) {
			leakPos, leaky = loop.Pos(), true
			return false
		}
		// The loop itself is fine; nested loops inside are scanned too.
		return true
	})
	return leakPos, leaky
}

// loopTerminates reports whether an unconditional for loop has both an
// exit statement and a termination source.
func loopTerminates(info *types.Info, loop *ast.ForStmt) bool {
	hasExit := false
	hasSource := false

	// Track break targets: a plain break inside a nested for/switch/
	// select does not leave *this* loop.
	var walk func(n ast.Node, breakable bool)
	walk = func(n ast.Node, breakExits bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				return false // other function's control flow
			case *ast.ReturnStmt:
				hasExit = true
			case *ast.BranchStmt:
				switch m.Tok {
				case token.BREAK:
					if breakExits || m.Label != nil {
						hasExit = true
					}
				case token.GOTO:
					hasExit = true // assume the label is outside; CFG-precise would verify
				}
			case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				if m != loop {
					// Plain breaks inside bind to the inner statement.
					switch inner := m.(type) {
					case *ast.ForStmt:
						if inner.Body != nil {
							walk(inner.Body, false)
						}
						if inner.Cond != nil {
							walk(inner.Cond, false)
						}
					case *ast.RangeStmt:
						walk(inner.X, breakExits)
						if inner.Body != nil {
							walk(inner.Body, false)
						}
					case *ast.SwitchStmt:
						walk(inner.Body, false)
					case *ast.TypeSwitchStmt:
						walk(inner.Body, false)
					case *ast.SelectStmt:
						walk(inner.Body, false)
					}
					return false
				}
			case *ast.UnaryExpr:
				if m.Op == token.ARROW && isTerminationChan(info, m.X) {
					hasSource = true
				}
			case *ast.CallExpr:
				if isTerminationCall(info, m) {
					hasSource = true
				}
			}
			return true
		})
	}
	walk(loop.Body, true)
	return hasExit && hasSource
}

// isTerminationChan reports whether a received-from expression is a
// plausible stop signal: any channel-typed expression that is not a
// timer. ctx.Done() and project stop channels qualify; time.After,
// Ticker.C and Timer.C do not.
func isTerminationChan(info *types.Info, e ast.Expr) bool {
	e = unparen(e)
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Chan); !ok {
		return false
	}
	switch e := e.(type) {
	case *ast.CallExpr:
		// <-ctx.Done() terminates; <-time.After(d) does not.
		if fn, ok := calleeOf(info, e).(*types.Func); ok {
			if fn.Pkg() != nil && fn.Pkg().Path() == "time" {
				return false // time.After, time.Tick
			}
		}
		return true
	case *ast.SelectorExpr:
		// t.C on *time.Ticker / *time.Timer is a wakeup, not a stop.
		owner := info.TypeOf(e.X)
		if p, ok := owner.(*types.Pointer); ok {
			owner = p.Elem()
		}
		if named, ok := owner.(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil && obj.Pkg().Path() == "time" {
				return false
			}
		}
		return true
	}
	return true
}

// isTerminationCall reports calls that observe cancellation or block on
// a closeable source: ctx.Err(), and the accept/recv family.
func isTerminationCall(info *types.Info, call *ast.CallExpr) bool {
	fn, ok := calleeOf(info, call).(*types.Func)
	if !ok {
		return false
	}
	if recv, name, ok := methodID(fn); ok && recv == "context.Context" && name == "Err" {
		return true
	}
	return goleakBlockingCalls[fn.Name()]
}
