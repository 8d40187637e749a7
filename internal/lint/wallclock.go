package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// WallClock guards the determinism story built up by PRs 1, 3 and 4:
// the chaos fault planner, the warm-pool maintainer, the admission
// scheduler and the trace fingerprint must produce identical decisions
// for identical seeds. A stray time.Now or a draw from math/rand's
// global source inside those paths silently re-couples them to the
// wall clock. Clocks and randomness must be injected — the single
// approved injection point (the `cfg.Clock = time.Now` default) is
// waived in place with //asvet:allow wallclock.
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc: "determinism-critical packages must not read the wall clock " +
		"or the global math/rand source outside approved injection points",
	Run: runWallClock,
}

// wallclockScope maps each determinism-critical package to the file
// prefixes the check applies to (empty list = every file in the
// package; otherwise a file is in scope when its base name starts with
// any listed prefix).
var wallclockScope = map[string][]string{
	// Measurement loops time workflows on the injected Options.Clock so
	// experiments replay under test clocks; the sole wall-clock reads
	// are the default clock + the recorder's RecordedAt stamp, funneled
	// through one waived wallNow().
	"alloystack/internal/bench": nil,
	// Ring ranking, membership ages and shard budgets must be identical
	// on every gateway replica and replay under test clocks: the router
	// and membership view run on one constructor-injected clock (the
	// waived time.Now defaults), and the rendezvous hash is seedless by
	// construction.
	"alloystack/internal/cluster": nil,
	"alloystack/internal/faults":  nil,
	// The journal must replay byte-identically: record timestamps come
	// from the injected Options.Clock, never a direct wall-clock read.
	"alloystack/internal/journal": nil,
	// The histogram ingests durations without timestamping them, and the
	// SLO's burn windows run on a constructor-injected clock; both must
	// stay replayable under test clocks.
	"alloystack/internal/metrics": {"histogram", "slo"},
	"alloystack/internal/pool":    nil,
	"alloystack/internal/sched":   nil,
	// The tracer legitimately timestamps spans; only its structural
	// fingerprint (the chaos-determinism witness) and the tail sampler's
	// retention draw must stay clock-free.
	"alloystack/internal/trace": {"fingerprint", "sampler"},
}

// wallclockTimeFuncs are the time package reads that break seeded
// replay. Durations, timers and Sleep are fine — they consume time,
// they do not observe it.
var wallclockTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
}

// wallclockRandExempt are math/rand constructors: a *rand.Rand built
// from an explicit seed IS the approved determinism mechanism.
var wallclockRandExempt = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

func runWallClock(pass *Pass) {
	prefixes, scoped := wallclockScope[strings.TrimSuffix(pass.PkgPath, "_test")]
	if !scoped {
		return
	}
	// Tests legitimately read real time, to bound wall-clock behaviour.
	inScope := func(base string) bool {
		if strings.HasSuffix(base, "_test.go") {
			return false
		}
		if len(prefixes) == 0 {
			return true
		}
		for _, p := range prefixes {
			if strings.HasPrefix(base, p) {
				return true
			}
		}
		return false
	}
	for i, f := range pass.Files {
		if !inScope(filepath.Base(pass.Filenames[i])) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if wallclockTimeFuncs[fn.Name()] {
					pass.Reportf(id.Pos(),
						"wall-clock read time.%s in determinism-critical package %s; inject a clock"+
							" (waive the single injection point with //asvet:allow wallclock)",
						fn.Name(), pass.PkgPath)
				}
			case "math/rand", "math/rand/v2":
				if sig, isSig := fn.Type().(*types.Signature); isSig && sig.Recv() != nil {
					return true // methods on an explicitly seeded *rand.Rand
				}
				if !wallclockRandExempt[fn.Name()] {
					pass.Reportf(id.Pos(),
						"global math/rand draw rand.%s in determinism-critical package %s;"+
							" use a seeded rand.New(rand.NewSource(seed))",
						fn.Name(), pass.PkgPath)
				}
			}
			return true
		})
	}
}
