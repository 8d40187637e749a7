package lint

import (
	"go/ast"
	"go/token"
)

// The obligation engine behind lockpair, pkrupair and spanend reasons
// "on all control-flow paths" over this statement-level control-flow
// graph.
// Blocks hold the *atomic* pieces of each statement — compound
// statements (if, for, switch, ...) contribute their init/cond
// expressions to the current block and route their bodies through
// successor blocks — so scanning a block's items never sees code from a
// different path.

type cfgBlock struct {
	items []ast.Node
	succs []*cfgBlock
}

type funcCFG struct {
	entry  *cfgBlock
	exit   *cfgBlock // reached by return statements and falling off the end
	blocks []*cfgBlock
	defers []*ast.DeferStmt
}

type cfgBuilder struct {
	cfg *funcCFG
	cur *cfgBlock

	breaks    []cfgTarget
	continues []cfgTarget
	label     string // pending label for the next loop/switch statement

	gotos  []cfgGoto
	labels map[string]*cfgBlock
}

type cfgTarget struct {
	label string
	block *cfgBlock
}

type cfgGoto struct {
	from  *cfgBlock
	label string
}

func buildCFG(body *ast.BlockStmt) *funcCFG {
	cfg := &funcCFG{exit: &cfgBlock{}}
	b := &cfgBuilder{cfg: cfg, labels: make(map[string]*cfgBlock)}
	cfg.entry = b.newBlock()
	b.cur = cfg.entry
	for _, s := range body.List {
		b.stmt(s)
	}
	b.edge(b.cur, cfg.exit)
	for _, g := range b.gotos {
		if target, ok := b.labels[g.label]; ok {
			b.edge(g.from, target)
		} else {
			// Unresolvable goto (label in dead code we pruned): assume
			// it can reach the exit so violations are not hidden.
			b.edge(g.from, cfg.exit)
		}
	}
	cfg.blocks = append(cfg.blocks, cfg.exit)
	return cfg
}

func (b *cfgBuilder) newBlock() *cfgBlock {
	blk := &cfgBlock{}
	b.cfg.blocks = append(b.cfg.blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *cfgBlock) {
	if from == nil || to == nil {
		return
	}
	from.succs = append(from.succs, to)
}

func (b *cfgBuilder) item(n ast.Node) {
	if n != nil {
		b.cur.items = append(b.cur.items, n)
	}
}

func (b *cfgBuilder) takeLabel() string {
	l := b.label
	b.label = ""
	return l
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, inner := range s.List {
			b.stmt(inner)
		}

	case *ast.LabeledStmt:
		// A fresh block so gotos can land here.
		target := b.newBlock()
		b.edge(b.cur, target)
		b.cur = target
		b.labels[s.Label.Name] = target
		b.label = s.Label.Name
		b.stmt(s.Stmt)
		b.label = ""

	case *ast.IfStmt:
		b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.item(s.Cond)
		condBlk := b.cur
		join := b.newBlock()
		thenBlk := b.newBlock()
		b.edge(condBlk, thenBlk)
		b.cur = thenBlk
		b.stmt(s.Body)
		b.edge(b.cur, join)
		if s.Else != nil {
			elseBlk := b.newBlock()
			b.edge(condBlk, elseBlk)
			b.cur = elseBlk
			b.stmt(s.Else)
			b.edge(b.cur, join)
		} else {
			b.edge(condBlk, join)
		}
		b.cur = join

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock()
		b.edge(b.cur, head)
		join := b.newBlock()
		b.cur = head
		if s.Cond != nil {
			b.item(s.Cond)
			b.edge(head, join) // condition false
		}
		// An infinite loop (no cond) exits only via break.
		body := b.newBlock()
		b.edge(head, body)
		b.pushLoop(label, join, head)
		b.cur = body
		b.stmt(s.Body)
		if s.Post != nil {
			b.stmt(s.Post)
		}
		b.edge(b.cur, head)
		b.popLoop()
		b.cur = join

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		b.edge(b.cur, head)
		b.cur = head
		b.item(s.X)
		join := b.newBlock()
		b.edge(head, join) // range exhausted
		body := b.newBlock()
		b.edge(head, body)
		b.pushLoop(label, join, head)
		b.cur = body
		b.stmt(s.Body)
		b.edge(b.cur, head)
		b.popLoop()
		b.cur = join

	case *ast.SwitchStmt:
		b.caseDispatch(s.Init, s.Tag, nil, s.Body)

	case *ast.TypeSwitchStmt:
		b.caseDispatch(s.Init, nil, s.Assign, s.Body)

	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.cur
		join := b.newBlock()
		b.breaks = append(b.breaks, cfgTarget{label: label, block: join})
		// A select blocks until a case is ready: no fall-through edge,
		// default clause or not.
		for _, c := range s.Body.List {
			comm := c.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(head, blk)
			b.cur = blk
			if comm.Comm != nil {
				b.stmt(comm.Comm)
			}
			for _, inner := range comm.Body {
				b.stmt(inner)
			}
			b.edge(b.cur, join)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		if len(s.Body.List) == 0 {
			// select{} blocks forever.
			b.cur = b.newBlock()
		} else {
			b.cur = join
		}

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			b.edge(b.cur, b.findTarget(b.breaks, s.Label))
			b.cur = b.newBlock()
		case token.CONTINUE:
			b.edge(b.cur, b.findTarget(b.continues, s.Label))
			b.cur = b.newBlock()
		case token.GOTO:
			b.gotos = append(b.gotos, cfgGoto{from: b.cur, label: s.Label.Name})
			b.cur = b.newBlock()
		case token.FALLTHROUGH:
			// Handled by caseDispatch, which looks at the clause tail.
		}

	case *ast.ReturnStmt:
		b.item(s)
		b.edge(b.cur, b.cfg.exit)
		b.cur = b.newBlock()

	case *ast.ExprStmt:
		b.item(s)
		if isTerminalCall(s.X) {
			// panic / os.Exit / t.Fatal: the path ends without reaching
			// a normal return.
			b.cur = b.newBlock()
		}

	case *ast.DeferStmt:
		b.item(s)
		b.cfg.defers = append(b.cfg.defers, s)

	case *ast.GoStmt:
		b.item(s)

	case nil:

	default:
		// Assignments, declarations, sends, inc/dec, empty statements.
		b.item(s)
	}
}

// caseDispatch builds the shared switch/type-switch shape.
func (b *cfgBuilder) caseDispatch(init ast.Stmt, tag ast.Expr, assign ast.Stmt, body *ast.BlockStmt) {
	label := b.takeLabel()
	if init != nil {
		b.stmt(init)
	}
	if tag != nil {
		b.item(tag)
	}
	if assign != nil {
		b.item(assign)
	}
	head := b.cur
	join := b.newBlock()
	b.breaks = append(b.breaks, cfgTarget{label: label, block: join})

	clauses := body.List
	clauseBlocks := make([]*cfgBlock, len(clauses))
	hasDefault := false
	for i := range clauses {
		clauseBlocks[i] = b.newBlock()
		b.edge(head, clauseBlocks[i])
	}
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		b.cur = clauseBlocks[i]
		for _, e := range cc.List {
			b.item(e)
		}
		fallsThrough := false
		for _, inner := range cc.Body {
			if br, ok := inner.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
			}
			b.stmt(inner)
		}
		if fallsThrough && i+1 < len(clauses) {
			b.edge(b.cur, clauseBlocks[i+1])
			b.cur = b.newBlock()
		}
		b.edge(b.cur, join)
	}
	if !hasDefault {
		b.edge(head, join)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = join
}

func (b *cfgBuilder) pushLoop(label string, brk, cont *cfgBlock) {
	b.breaks = append(b.breaks, cfgTarget{label: label, block: brk})
	b.continues = append(b.continues, cfgTarget{label: label, block: cont})
}

func (b *cfgBuilder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

func (b *cfgBuilder) findTarget(stack []cfgTarget, label *ast.Ident) *cfgBlock {
	if len(stack) == 0 {
		return b.cfg.exit
	}
	if label == nil {
		return stack[len(stack)-1].block
	}
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].label == label.Name {
			return stack[i].block
		}
	}
	return b.cfg.exit
}

// isTerminalCall recognises calls that never return: panic, os.Exit,
// log.Fatal*, testing's Fatal/Skip family, runtime.Goexit, and this
// repo's CLI fatal helpers. Treating them as path ends keeps the
// all-paths analyzers from demanding cleanup on paths that die.
func isTerminalCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	var name string
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		name = fn.Name
	case *ast.SelectorExpr:
		name = fn.Sel.Name
	default:
		return false
	}
	switch name {
	case "panic", "Exit", "Goexit", "Fatal", "Fatalf", "Fatalln",
		"FailNow", "Skip", "Skipf", "SkipNow", "fatal", "fatalf", "usage":
		return true
	}
	return false
}

// reachesExitWithout reports whether the function's normal exit is
// reachable from just after `start` without first passing a node for
// which ok() returns true. start must be one of the CFG's items (or a
// node inside one). ok is consulted on whole items; analyzers search
// inside items themselves (skipping nested function literals).
func (c *funcCFG) reachesExitWithout(start ast.Node, ok func(ast.Node) bool) bool {
	var startBlk *cfgBlock
	startIdx := -1
	for _, blk := range c.blocks {
		for i, it := range blk.items {
			if it == start || containsNode(it, start) {
				startBlk, startIdx = blk, i
				break
			}
		}
		if startBlk != nil {
			break
		}
	}
	if startBlk == nil {
		// start not found (e.g. inside a nested literal): be silent
		// rather than wrong.
		return false
	}
	for _, it := range startBlk.items[startIdx+1:] {
		if ok(it) {
			return false
		}
	}
	seen := map[*cfgBlock]bool{}
	var walk func(blk *cfgBlock) bool
	walk = func(blk *cfgBlock) bool {
		if blk == c.exit {
			return true
		}
		if seen[blk] {
			return false
		}
		seen[blk] = true
		for _, it := range blk.items {
			if ok(it) {
				return false
			}
		}
		for _, s := range blk.succs {
			if walk(s) {
				return true
			}
		}
		return false
	}
	for _, s := range startBlk.succs {
		if walk(s) {
			return true
		}
	}
	return false
}

// released answers the question the obligation engine (obligation.go)
// asks of an acquisition at start: is it released by a defer, or
// else on every path to the function's exit? A deferred call holding a
// node release accepts covers every exit (a deferred closure's body
// included, since it runs at exit); otherwise each path from start must
// pass one in code of this function, not of a nested literal.
func (c *funcCFG) released(start ast.Node, release func(ast.Node) bool) bool {
	for _, d := range c.defers {
		if findNode(d.Call, ast.Inspect, release) {
			return true
		}
	}
	return !c.reachesExitWithout(start, func(item ast.Node) bool {
		return findNode(item, inspectSameFunc, release)
	})
}

// findNode reports whether walk, started at n, visits a node pred
// accepts.
func findNode(n ast.Node, walk func(ast.Node, func(ast.Node) bool), pred func(ast.Node) bool) bool {
	found := false
	walk(n, func(n ast.Node) bool {
		found = found || pred(n)
		return !found
	})
	return found
}

// containsNode reports whether parent's subtree contains target.
func containsNode(parent, target ast.Node) bool {
	return parent != nil && findNode(parent, ast.Inspect, func(n ast.Node) bool { return n == target })
}

// inspectSameFunc walks n but does not descend into nested function
// literals: code in a closure does not run on this path.
func inspectSameFunc(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		return f(n)
	})
}
