package visor

import (
	"errors"
	"fmt"

	"alloystack/internal/asstd"
	"alloystack/internal/core"
	"alloystack/internal/dag"
	"alloystack/internal/libos"
	"alloystack/internal/xfer"
)

// This file implements the paper's §9 distributed/multi-node setting:
// workflows too large for one node are split at a stage boundary into
// subgraph workflows, each running in its own WFD on its own node, with
// the crossing intermediate data moved by traditional transfer (the
// paper: "developers can manually divide the DAG and run the workflow
// using traditional intermediate data transfer methods").
//
// The mechanism is slot bridging: RunOptions.ExportSlots names AsBuffer
// slots whose contents the visor extracts after the last stage;
// RunOptions.ImportSlots pre-registers buffers before the first stage.
// A coordinator runs the front subgraph, ships the exported slots across
// the network (any transport — examples use the kvstore), and runs the
// back subgraph with those slots imported.

// SplitAt cuts w at a stage boundary: front holds every function whose
// stage index is < cut, back holds the rest with their cross-boundary
// dependencies dropped (they become stage-0 roots fed by imported slots).
func SplitAt(w *dag.Workflow, cut int) (front, back *dag.Workflow, err error) {
	stages, err := w.Stages()
	if err != nil {
		return nil, nil, err
	}
	if cut <= 0 || cut >= len(stages) {
		return nil, nil, fmt.Errorf("visor: cut %d out of range (1..%d)", cut, len(stages)-1)
	}
	stageOf := stageIndex(stages)
	front = &dag.Workflow{Name: w.Name + "-front"}
	back = &dag.Workflow{Name: w.Name + "-back"}
	for _, f := range w.Functions {
		if stageOf[f.Name] < cut {
			front.Functions = append(front.Functions, f)
			continue
		}
		nf := f
		nf.DependsOn = nil
		for _, d := range f.DependsOn {
			if stageOf[d] >= cut {
				nf.DependsOn = append(nf.DependsOn, d)
			}
		}
		back.Functions = append(back.Functions, nf)
	}
	if err := front.Validate(); err != nil {
		return nil, nil, fmt.Errorf("visor: front subgraph: %w", err)
	}
	if err := back.Validate(); err != nil {
		return nil, nil, fmt.Errorf("visor: back subgraph: %w", err)
	}
	return front, back, nil
}

// CrossSlots enumerates the candidate AsBuffer slots crossing the cut.
func CrossSlots(w *dag.Workflow, cut int) ([]string, error) {
	stages, err := w.Stages()
	if err != nil {
		return nil, err
	}
	if cut <= 0 || cut >= len(stages) {
		return nil, fmt.Errorf("visor: cut %d out of range", cut)
	}
	return edgeSlots(stages, func(from, to int) bool { return from < cut && to >= cut }), nil
}

// stageIndex maps every function of the leveled DAG to its stage.
func stageIndex(stages [][]dag.FuncSpec) map[string]int {
	stageOf := make(map[string]int)
	for si, stage := range stages {
		for _, f := range stage {
			stageOf[f.Name] = si
		}
	}
	return stageOf
}

// edgeSlots enumerates the candidate AsBuffer slots of every DAG edge
// whose producer and consumer stages satisfy cross, using the Slot
// naming convention for every (instance, instance) pair of the edge.
// Workloads that only populate a subset of pairs are fine: whoever
// drains the slots skips the ones never registered.
func edgeSlots(stages [][]dag.FuncSpec, cross func(from, to int) bool) []string {
	stageOf := stageIndex(stages)
	instOf := make(map[string]int)
	for _, stage := range stages {
		for _, f := range stage {
			instOf[f.Name] = f.InstancesOf()
		}
	}
	var slots []string
	for to, stage := range stages {
		for _, f := range stage {
			for _, dep := range f.DependsOn {
				if !cross(stageOf[dep], to) {
					continue
				}
				for i := 0; i < instOf[dep]; i++ {
					for j := 0; j < instOf[f.Name]; j++ {
						slots = append(slots, Slot(dep, i, f.Name, j))
					}
				}
			}
		}
	}
	return slots
}

// drainSlots acquires each named boundary buffer, hands its bytes to
// sink and frees it. The buffers are read through the refpass transport
// like any other edge. Slots the workload never registered are skipped:
// they are candidate pairs it did not use.
func drainSlots(wfd *core.WFD, slots []string, sink func(slot string, src []byte) error) error {
	return wfd.Run("__bridge-export", func(env *asstd.Env) error {
		var local xfer.Refpass
		local.Init(env, nil, nil)
		for _, slot := range slots {
			src, release, err := local.Recv(slot)
			if err != nil {
				if errors.Is(err, libos.ErrSlotMissing) {
					continue
				}
				return err
			}
			if err := sink(slot, src); err != nil {
				release()
				return err
			}
			if err := release(); err != nil {
				return err
			}
		}
		return nil
	})
}

// importSlots registers incoming intermediate data as AsBuffers before
// the subgraph's functions run.
func importSlots(wfd *core.WFD, slots map[string][]byte) error {
	return wfd.Run("__bridge-import", func(env *asstd.Env) error {
		for slot, data := range slots {
			b, err := asstd.NewBuffer(env, slot, max(uint64(len(data)), 1))
			if err != nil {
				return err
			}
			copy(b.Bytes(), data)
		}
		return nil
	})
}
