// Package workloads implements the paper's benchmark applications in all
// three language tiers (§8.1):
//
//	synthetic:  no-ops, http-server, pipe
//	real-world: FunctionChain (ServerlessBench), WordCount (vSwarm,
//	            MapReduce-style), ParallelSorting (sample sort)
//
// The native tier (≈Rust in the paper) is ordinary Go running on as-std;
// the C and Python tiers are ASVM guest programs executed through the
// WASI adaptation layer (AOT engine for C, interpreter + runtime image
// for Python). Every application moves intermediate data through the
// unified data plane (internal/xfer): AsBuffer reference passing by
// default, the LibOS file spill when reference passing is disabled (the
// Figure 14 ablation's file-mediated path, which matches AWS Step
// Functions' recommended pattern), or whatever transport the run
// selects — the workload code is identical either way.
package workloads

import (
	"fmt"

	"alloystack/internal/asstd"
	"alloystack/internal/xfer"
)

// tp resolves the function instance's data plane: the visor installs a
// transport on every env it builds; envs created outside the visor
// (direct tests, examples) fall back to a private refpass transport,
// cached on the env for later calls.
func tp(env *asstd.Env) asstd.Transport {
	if t := env.Transport(); t != nil {
		return t
	}
	t, err := xfer.New(xfer.KindRefpass, xfer.Config{Env: env})
	if err != nil {
		// Unreachable: refpass only needs the non-nil env.
		panic(fmt.Sprintf("workloads: fallback transport: %v", err))
	}
	env.SetTransport(t)
	return t
}

// refPassing reports whether this instance moves intermediate data by
// reference. FunctionChain consults it to forward buffers in place (a
// slot re-registration instead of any Send), the paper's chained
// zero-copy pattern.
func refPassing(env *asstd.Env) bool {
	return tp(env).Kind() == xfer.KindRefpass
}
