package baselines

import (
	"fmt"
	"strconv"
	"strings"

	"alloystack/internal/visor"
	"alloystack/internal/workloads"
)

// runNativeApp executes the native-tier implementation of the function
// named in the platform context. WordCount and ParallelSorting are
// AlloyStack's own bodies (workloads.RunApp) over this Platform, so
// cross-system comparisons differ only in platform structure, never in
// app logic. The synthetic benchmarks stay here: AlloyStack's pipe and
// chain pass AsBuffers by reference (Alloc, SendBuffer, Forward), which
// no baseline has, so each platform states them over its own transfers.
func runNativeApp(p *Platform) error {
	switch visor.BaseName(p.Ctx().Function) {
	case "noops":
		return nil
	case "pipe-send":
		return blPipeSend(p)
	case "pipe-recv":
		return blPipeRecv(p)
	case "chain":
		return blChain(p)
	}
	return workloads.RunApp(p, p.Ctx())
}

func blPipeSend(p *Platform) error {
	size := p.Ctx().ParamInt("size", 4096)
	data := make([]byte, size)
	// Match the AlloyStack pipe's measurement window (§8.3): the payload
	// write counts as part of the transfer, allocation does not.
	return p.TimeTransfer(func() error {
		workloads.FillPattern(data)
		return p.Send(visor.Slot("pipe-send", 0, "pipe-recv", 0), data)
	})
}

func blPipeRecv(p *Platform) error {
	return p.TimeTransfer(func() error {
		data, _, err := p.Recv(visor.Slot("pipe-send", 0, "pipe-recv", 0))
		if err != nil {
			return err
		}
		if !workloads.CheckPattern(data) {
			return fmt.Errorf("baselines: %s received a corrupted payload", p.Ctx().Function)
		}
		return nil
	})
}

func blChain(p *Platform) error {
	ctx := p.Ctx()
	name := ctx.Function
	idx, err := strconv.Atoi(name[strings.LastIndexByte(name, '-')+1:])
	if err != nil {
		return err
	}
	length := int(ctx.ParamInt("length", 2))
	size := ctx.ParamInt("size", 4096)
	outSlot := visor.Slot(name, 0, "chain-"+strconv.Itoa(idx+1), 0)
	inSlot := visor.Slot("chain-"+strconv.Itoa(idx-1), 0, name, 0)

	if idx == 0 {
		data := make([]byte, size)
		workloads.FillPattern(data)
		return p.Send(outSlot, data)
	}
	data, _, err := p.Recv(inSlot)
	if err != nil {
		return err
	}
	if err := p.Compute(func() error {
		if !workloads.CheckPattern(data) {
			return fmt.Errorf("baselines: %s received a corrupted payload", name)
		}
		return nil
	}); err != nil {
		return err
	}
	if idx == length-1 {
		return nil
	}
	return p.Send(outSlot, data)
}
