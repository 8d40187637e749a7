package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder builds a module-wide lock-acquisition-order graph and
// reports cycles — the static shadow of lockdep. Two functions that
// nest the same pair of mutexes in opposite orders can deadlock under
// exactly the interleaving the -race test gate happens not to produce;
// the cycle report carries a witness site for every edge so both halves
// of the inversion are visible in the diagnostic.
//
// Lock identity is *instance-insensitive*: a named mutex field is keyed
// by (static type of its owner, field name) — "pkg.Pool.mu" — and a
// package-level mutex var by "pkg.varname". Two distinct instances of
// the same field therefore share a key, which is why same-key self
// edges are ignored rather than reported. Held sets propagate in source
// order through each function body; `defer` subtrees are skipped (a
// deferred Unlock releases at exit, so the lock stays held for edge
// purposes), and `go` subtrees start a fresh held set (a goroutine is
// its own thread) while still contributing their own orderings.
// Interprocedural edges come from a fixpoint over direct synchronous
// calls: holding A while calling g edges A before every lock g
// transitively acquires on the caller's thread.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "named mutexes must be acquired in a consistent module-wide " +
		"order; cycles in the acquisition graph are potential deadlocks",
	RunModule: runLockOrder,
}

// lockKey renders the identity of the mutex behind a Lock/Unlock
// receiver expression. ok is false when identity cannot be tracked
// (locals, unnamed owners, computed expressions).
func lockKey(info *types.Info, recv ast.Expr) (string, bool) {
	switch e := unparen(recv).(type) {
	case *ast.Ident:
		v, ok := info.Uses[e].(*types.Var)
		if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
			return "", false // local or parameter: aliasing unknown
		}
		return v.Pkg().Path() + "." + v.Name(), true
	case *ast.SelectorExpr:
		owner := info.TypeOf(e.X)
		if owner == nil {
			return "", false
		}
		if p, ok := owner.(*types.Pointer); ok {
			owner = p.Elem()
		}
		named, ok := owner.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return "", false
		}
		return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + e.Sel.Name, true
	}
	return "", false
}

// lockOrderEdge is one observed "A acquired before B" fact with its
// first witness.
type lockOrderEdge struct {
	from, to string
	pos      token.Pos
	where    string // "pkg.Func" or "pkg.Func calls pkg2.G"
}

// lockOrderFunc is the per-function summary pass A computes.
type lockOrderFunc struct {
	name string // display name
	// syncAcquires: locks acquired on the caller's thread (outside go
	// subtrees), the unit the interprocedural fixpoint propagates.
	syncAcquires map[string]token.Pos
	// syncCallees: direct synchronous callees, for the fixpoint.
	syncCallees []*types.Func
	// calls: every call site with the locks held there (including
	// inside go subtrees, whose held sets are goroutine-local).
	calls []lockOrderCall
	// edges: intra-function acquisition orderings.
	edges []lockOrderEdge
}

type lockOrderCall struct {
	callee *types.Func
	held   []string
	pos    token.Pos
}

func runLockOrder(pass *ModulePass) {
	funcs := make(map[*types.Func]*lockOrderFunc)

	// Pass A: per-function summaries.
	for _, pkg := range pass.Module.Packages {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				disp := fn.Name()
				if _, _, name, ok := funcID(fn); ok {
					disp = shortPkg(fn.Pkg().Path()) + "." + name
				}
				sum := &lockOrderFunc{name: disp, syncAcquires: make(map[string]token.Pos)}
				walkLockOrder(pkg.Info, fd.Body, nil, true, sum)
				funcs[fn] = sum
			}
		}
	}

	// Pass B: fixpoint — transitive synchronous acquires.
	trans := make(map[*types.Func]map[string]token.Pos)
	for fn, sum := range funcs {
		m := make(map[string]token.Pos, len(sum.syncAcquires))
		for k, p := range sum.syncAcquires {
			m[k] = p
		}
		trans[fn] = m
	}
	for changed := true; changed; {
		changed = false
		for fn, sum := range funcs {
			for _, callee := range sum.syncCallees {
				for k, p := range trans[callee.Origin()] {
					if _, ok := trans[fn][k]; !ok {
						trans[fn][k] = p
						changed = true
					}
				}
			}
		}
	}

	// Pass C: assemble the global edge set.
	edges := make(map[string]map[string]lockOrderEdge) // from -> to -> witness
	add := func(e lockOrderEdge) {
		if e.from == e.to {
			return // instance-insensitive keys: self edges are not evidence
		}
		if edges[e.from] == nil {
			edges[e.from] = make(map[string]lockOrderEdge)
		}
		if _, ok := edges[e.from][e.to]; !ok {
			edges[e.from][e.to] = e
		}
	}
	for _, sum := range funcs {
		for _, e := range sum.edges {
			add(e)
		}
		for _, c := range sum.calls {
			if len(c.held) == 0 {
				continue
			}
			for k := range trans[c.callee.Origin()] {
				for _, h := range c.held {
					add(lockOrderEdge{
						from: h, to: k, pos: c.pos,
						where: sum.name + " calls " + c.callee.Name(),
					})
				}
			}
		}
	}

	// Cycle detection: report one witness cycle per strongly connected
	// component with more than one lock.
	reportLockCycles(pass, edges)
}

// walkLockOrder walks body in source order maintaining the held stack.
// sync is false inside go-statement subtrees: acquisitions there happen
// on another goroutine, so they do not feed the caller-thread summary,
// but their internal orderings still count.
func walkLockOrder(info *types.Info, body ast.Node, held []string, sync bool, sum *lockOrderFunc) []string {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			// A deferred Unlock releases at exit: the lock stays held for
			// ordering purposes. Skip the subtree entirely.
			return false
		case *ast.GoStmt:
			// New goroutine: fresh held set, orderings still collected.
			walkLockOrder(info, n.Call, nil, false, sum)
			return false
		case *ast.CallExpr:
			sel, isSel := unparen(n.Fun).(*ast.SelectorExpr)
			if isSel && isSyncLockType(info.TypeOf(sel.X)) {
				key, ok := lockKey(info, sel.X)
				if !ok {
					return true
				}
				switch sel.Sel.Name {
				case "Lock", "RLock":
					for _, h := range held {
						sum.edges = append(sum.edges, lockOrderEdge{
							from: h, to: key, pos: n.Pos(), where: sum.name,
						})
					}
					held = append(held, key)
					if sync {
						if _, seen := sum.syncAcquires[key]; !seen {
							sum.syncAcquires[key] = n.Pos()
						}
					}
					return true
				case "Unlock", "RUnlock":
					for i := len(held) - 1; i >= 0; i-- {
						if held[i] == key {
							held = append(held[:i:i], held[i+1:]...)
							break
						}
					}
					return true
				}
			}
			if callee, ok := calleeOf(info, n).(*types.Func); ok && callee.Pkg() != nil {
				snapshot := append([]string(nil), held...)
				sum.calls = append(sum.calls, lockOrderCall{callee: callee, held: snapshot, pos: n.Pos()})
				if sync {
					sum.syncCallees = append(sum.syncCallees, callee)
				}
			}
		}
		return true
	})
	return held
}

// reportLockCycles finds strongly connected components of the lock
// graph and reports one witness cycle per component, every edge with
// its acquisition site.
func reportLockCycles(pass *ModulePass, edges map[string]map[string]lockOrderEdge) {
	keys := make([]string, 0, len(edges))
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	// Tarjan's SCC, iterative enough for lock graphs this small.
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	next := 0
	var sccs [][]string
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		tos := make([]string, 0, len(edges[v]))
		for t := range edges[v] {
			tos = append(tos, t)
		}
		sort.Strings(tos)
		for _, w := range tos {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			if len(comp) > 1 {
				sccs = append(sccs, comp)
			}
		}
	}
	for _, k := range keys {
		if _, seen := index[k]; !seen {
			strongconnect(k)
		}
	}

	for _, comp := range sccs {
		sort.Strings(comp)
		inComp := make(map[string]bool, len(comp))
		for _, k := range comp {
			inComp[k] = true
		}
		// Walk one cycle through the component starting at the smallest
		// key, always taking the smallest in-component successor.
		cycle := []string{comp[0]}
		seen := map[string]bool{comp[0]: true}
		cur := comp[0]
		for {
			tos := make([]string, 0, len(edges[cur]))
			for t := range edges[cur] {
				if inComp[t] {
					tos = append(tos, t)
				}
			}
			sort.Strings(tos)
			if len(tos) == 0 {
				break
			}
			nextKey := tos[0]
			// Prefer a successor that closes the cycle.
			for _, t := range tos {
				if t == cycle[0] {
					nextKey = t
					break
				}
			}
			if seen[nextKey] {
				cycle = append(cycle, nextKey)
				break
			}
			seen[nextKey] = true
			cycle = append(cycle, nextKey)
			cur = nextKey
		}
		if len(cycle) < 2 {
			continue
		}
		var parts []string
		for i := 0; i+1 < len(cycle); i++ {
			e := edges[cycle[i]][cycle[i+1]]
			parts = append(parts, shortPkg(e.from)+" -> "+shortPkg(e.to)+
				" in "+e.where+" at "+pass.Module.Fset.Position(e.pos).String())
		}
		first := edges[cycle[0]][cycle[1]]
		pass.Reportf(first.pos,
			"lock-order cycle (potential deadlock): %s; pick one acquisition order",
			strings.Join(parts, "; "))
	}
}

// shortPkg trims a package path, or a key that starts with one, to its
// last element for messages: "alloystack/internal/pool.Pool.mu" reads
// "pool.Pool.mu".
func shortPkg(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
