package workloads

import (
	"io"

	"alloystack/internal/blockdev"
	"alloystack/internal/core"
	"alloystack/internal/dag"
	"alloystack/internal/pool"
)

// PoolModules is the as-libos module set warm-pool templates preload:
// everything the benchmark functions touch except socket (pooled clones
// cannot share a NIC address, so socket workflows boot cold).
var PoolModules = []string{"mm", "fdtab", "fatfs", "stdio", "time"}

// PoolSpecFor builds a warm-pool template spec for a workflow, or
// reports false when the workflow does not benefit from pooling (no
// guest runtime image to warm). The template owns a fresh disk image
// staged exactly like a cold invocation's — input files plus the Python
// runtime — so clones adopt a filesystem indistinguishable from a cold
// boot's.
func PoolSpecFor(w *dag.Workflow, inputSize int64, costScale float64) (pool.Spec, bool) {
	needsPy := false
	for _, f := range w.Functions {
		if f.Language == "python" {
			needsPy = true
		}
	}
	if !needsPy {
		// Nothing to warm: native/C tiers have no runtime image, so a
		// pooled clone would only save the module-load microseconds.
		return pool.Spec{}, false
	}

	var (
		img blockdev.Device
		err error
	)
	switch inputPathFor(w) {
	case TextInputPath:
		img, err = BuildTextImage(inputSize, true)
	case BinInputPath:
		img, err = BuildBinImage(inputSize, true)
	default:
		img, err = BuildEmptyImage(true)
	}
	if err != nil {
		return pool.Spec{}, false
	}

	tier := PyTier()
	return pool.Spec{
		Workflow: w.Name,
		Core: core.Options{
			DiskImage: img,
			Stdout:    io.Discard,
			OnDemand:  true,
			CostScale: costScale,
		},
		Modules:  PoolModules,
		Runtimes: []pool.Runtime{{Image: tier.RuntimeImage, InitCost: tier.InitCost}},
	}, true
}

// inputPathFor reports which staged input file the workflow reads.
func inputPathFor(w *dag.Workflow) string {
	for _, f := range w.Functions {
		switch f.Param("input", "") {
		case TextInputPath:
			return TextInputPath
		case BinInputPath:
			return BinInputPath
		}
	}
	return ""
}
