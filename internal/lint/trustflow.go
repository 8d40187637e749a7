package lint

import (
	"sort"
	"strings"
)

// sortedKeys returns m's keys in lexical order, for deterministic
// worklist seeding (witness paths must not vary run to run).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TrustFlow enforces the paper's §6 call-gate discipline on the host
// side, and is the static side of the window-minting proof the
// data-plane fast path (ROADMAP item 3) depends on, after ERIM's
// binary-inspection argument: only trusted code may reach a raw memory
// access or a PKRU write, directly or transitively.
//
// It walks the module call graph: it computes the set of functions
// from which a gated operation (mem.Space.ReadAt/WriteAt/Fork,
// mpk.Context.WritePKRU) is reachable without passing an approved
// trampoline, then reports every site where untrusted code enters that
// set — each raw call, each gated method taken as a value (the escape
// hatch that smuggles raw power past call-site checks), and each call
// into a trusted-partition export that wraps raw power without being
// on the approved gate list. A crossing through an export carries a
// witness path down to the gated operation.
//
// Soundness relies on the call-graph over-approximation documented in
// callgraph.go (reflection-free module; address-taken and interface
// dispatch edges are conservative).
var TrustFlow = &Analyzer{
	Name: "trustflow",
	Doc: "only trusted code (mem, mpk, asstd, libos, core) may reach raw memory access or " +
		"PKRU mutation, directly or transitively; untrusted entry must cross an approved trampoline export",
	RunModule: runTrustFlow,
}

// trustflowTrusted is the partition allowed to hold raw power: the
// address space itself, the key layer, the trampolines, the LibOS, and
// the visor core that assembles WFDs.
var trustflowTrusted = map[string]bool{
	"alloystack/internal/mem":   true,
	"alloystack/internal/mpk":   true,
	"alloystack/internal/asstd": true,
	"alloystack/internal/libos": true,
	"alloystack/internal/core":  true,
}

// trustflowGated maps each gated operation's node ID to the fix hint
// its findings carry.
var trustflowGated = map[string]string{
	"alloystack/internal/mem.Space.ReadAt":      "use asstd checked accessors or the xfer transport",
	"alloystack/internal/mem.Space.WriteAt":     "use asstd checked accessors or the xfer transport",
	"alloystack/internal/mem.Space.Fork":        "fork through core.WFD.Fork / the warm pool",
	"alloystack/internal/mpk.Context.WritePKRU": "domain switches belong to the asstd trampoline",
}

// trustflowApproved is the audited gate surface: the trampoline exports
// untrusted code is allowed to cross. An entry either names one
// function ("pkgpath.Type.Method") or a whole package's API
// ("pkgpath.*"). Gated operations themselves are never approvable.
//
// This list IS the proof artifact — every addition widens the trusted
// gate surface and needs the same scrutiny as a new syscall.
var trustflowApproved = map[string]string{
	// The checked-trampoline layer itself: every export crosses domains
	// via enterSys/leaveSys pairs (pkrupair-enforced) and validates
	// buffer bounds before touching the space. This is the as-std API
	// the paper's §6 gate argument is about.
	"alloystack/internal/asstd.*": "the checked trampoline layer — bounds-validated, PKRU-paired",
	// The visor core assembles WFDs and owns instance lifecycle: forking
	// templates, running functions under fault isolation. Its exports
	// are the sanctioned lifecycle entry points (the Fork hint above
	// points at core.WFD.Fork / the warm pool).
	"alloystack/internal/core.*": "WFD lifecycle API — forks and runs instances under the gate",
	// The LibOS service modules sit inside the trusted partition and are
	// invoked through the syscall surface they implement.
	"alloystack/internal/libos.*": "LibOS service modules behind the syscall surface",
}

// trustflowIsApproved reports whether the node is on the approved
// trampoline list (and not itself a gated operation).
func trustflowIsApproved(n *CGNode) bool {
	if _, gated := trustflowGated[n.ID]; gated {
		return false
	}
	if _, ok := trustflowApproved[n.ID]; ok {
		return true
	}
	_, ok := trustflowApproved[n.PkgPath+".*"]
	return ok
}

func runTrustFlow(pass *ModulePass) {
	g := pass.Module.Graph

	// reach: nodes from which a gated op is reachable without passing an
	// approved trampoline. Seeded with the gated ops themselves;
	// propagated backwards over call/ref/dispatch edges, stopping at
	// approved nodes (their callers are sanctioned).
	reach := make(map[*CGNode]bool)
	// via remembers one forward step toward the gated op, for witness
	// path rendering.
	via := make(map[*CGNode]*CGEdge)
	var queue []*CGNode
	for _, id := range sortedKeys(trustflowGated) {
		if n, ok := g.Nodes[id]; ok {
			reach[n] = true
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.In {
			u := e.From
			if reach[u] || trustflowIsApproved(u) {
				continue
			}
			reach[u] = true
			via[u] = e
			queue = append(queue, u)
		}
	}

	// Report each crossing: an edge from untrusted code to a node in the
	// reach set that is either a gated op itself or trusted-partition
	// code. The graph keeps one edge per site, so every site is its own
	// finding and a waiver covers only the site it sits on.
	// Untrusted→untrusted edges inside the set are not reported — the
	// root cause is the deeper crossing, and a waiver there covers its
	// transitive callers.
	witness := func(start *CGNode) string {
		var parts []string
		seen := make(map[*CGNode]bool)
		for n := start; n != nil && !seen[n]; {
			seen[n] = true
			parts = append(parts, shortFuncName(n))
			e := via[n]
			if e == nil {
				break
			}
			n = e.To
		}
		return strings.Join(parts, " -> ")
	}
	for _, n := range g.Nodes {
		if trustflowTrusted[n.PkgPath] {
			continue // trusted partition may hold raw power
		}
		for _, e := range n.Out {
			v := e.To
			if !reach[v] {
				continue
			}
			if hint, gated := trustflowGated[v.ID]; gated {
				if e.Kind == EdgeRef {
					pass.Reportf(e.Pos, "untrusted %s takes a reference to raw %s outside the trusted partition"+
						" (method value escapes the gate); %s", shortFuncName(n), v.ID, hint)
				} else {
					pass.Reportf(e.Pos, "untrusted %s calls raw %s outside the trusted partition; %s",
						shortFuncName(n), v.ID, hint)
				}
			} else if trustflowTrusted[v.PkgPath] {
				pass.Reportf(e.Pos,
					"untrusted %s reaches %s via %s, a trusted-partition export not on the approved trampoline list"+
						" (path: %s -> %s)",
					shortFuncName(n), gatedTarget(via, v), v.ID, shortFuncName(n), witness(v))
			}
		}
	}
}

// shortFuncName renders a node for messages: last path element of the
// package plus the function name ("pool.(Pool).Start" style without
// parens: "pool.Pool.Start").
func shortFuncName(n *CGNode) string {
	return shortPkg(n.PkgPath) + "." + n.Name
}

// gatedTarget names the gated op a reach-set node leads to, following
// witness steps.
func gatedTarget(via map[*CGNode]*CGEdge, n *CGNode) string {
	seen := make(map[*CGNode]bool)
	for !seen[n] {
		seen[n] = true
		e := via[n]
		if e == nil {
			return n.ID
		}
		n = e.To
	}
	return n.ID
}
