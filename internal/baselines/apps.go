package baselines

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"alloystack/internal/visor"
	"alloystack/internal/workloads"
)

// runNativeApp executes the native-tier implementation of the function
// named in the platform context. The compute code is shared with the
// AlloyStack workloads (same codecs, same algorithms) so cross-system
// comparisons differ only in platform structure, never in app logic.
func runNativeApp(p *Platform) error {
	name := p.Ctx().Function
	base := name
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			base = name[:i]
		}
	}
	switch base {
	case "noops":
		return nil
	case "pipe-send":
		return blPipeSend(p)
	case "pipe-recv":
		return blPipeRecv(p)
	case "chain":
		return blChain(p)
	case "wc-split":
		return blWcSplit(p)
	case "wc-map":
		return blWcMap(p)
	case "wc-reduce":
		return blWcReduce(p)
	case "wc-merge":
		return blWcMerge(p)
	case "ps-split":
		return blPsSplit(p)
	case "ps-sort":
		return blPsSort(p)
	case "ps-merge":
		return blPsMerge(p)
	case "ps-final":
		return blPsFinal(p)
	}
	return fmt.Errorf("baselines: unknown function %q", name)
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
		data, err := p.Recv(visor.Slot("pipe-send", 0, "pipe-recv", 0))
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
	data, err := p.Recv(inSlot)
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

func blWcSplit(p *Platform) error {
	ctx := p.Ctx()
	text, err := p.ReadInput(ctx.Param("input", workloads.TextInputPath))
	if err != nil {
		return err
	}
	n := int(ctx.ParamInt("instances", 1))
	chunks := workloads.SplitTextChunks(text, n)
	for i, c := range chunks {
		if err := p.Send(visor.Slot("wc-split", 0, "wc-map", i), c); err != nil {
			return err
		}
	}
	return nil
}

func blWcMap(p *Platform) error {
	ctx := p.Ctx()
	chunk, err := p.Recv(visor.Slot("wc-split", 0, "wc-map", ctx.Instance))
	if err != nil {
		return err
	}
	var partitions []map[string]uint64
	if err := p.Compute(func() error {
		counts := workloads.CountWords(chunk)
		partitions = make([]map[string]uint64, ctx.Instances)
		for i := range partitions {
			partitions[i] = make(map[string]uint64)
		}
		for w, c := range counts {
			partitions[workloads.WordShard(w, ctx.Instances)][w] += c
		}
		return nil
	}); err != nil {
		return err
	}
	for r, part := range partitions {
		slot := visor.Slot("wc-map", ctx.Instance, "wc-reduce", r)
		if err := p.Send(slot, workloads.EncodeCounts(part)); err != nil {
			return err
		}
	}
	return nil
}

func blWcReduce(p *Platform) error {
	ctx := p.Ctx()
	merged := make(map[string]uint64)
	for m := 0; m < ctx.Instances; m++ {
		data, err := p.Recv(visor.Slot("wc-map", m, "wc-reduce", ctx.Instance))
		if err != nil {
			return err
		}
		if err := p.Compute(func() error {
			return workloads.DecodeCountsInto(merged, data)
		}); err != nil {
			return err
		}
	}
	slot := visor.Slot("wc-reduce", ctx.Instance, "wc-merge", 0)
	return p.Send(slot, workloads.EncodeCounts(merged))
}

func blWcMerge(p *Platform) error {
	ctx := p.Ctx()
	n := int(ctx.ParamInt("instances", 1))
	final := make(map[string]uint64)
	for r := 0; r < n; r++ {
		data, err := p.Recv(visor.Slot("wc-reduce", r, "wc-merge", 0))
		if err != nil {
			return err
		}
		if err := workloads.DecodeCountsInto(final, data); err != nil {
			return err
		}
	}
	var total uint64
	for _, c := range final {
		total += c
	}
	p.Print("words=%d distinct=%d\n", total, len(final))
	return nil
}

func blPsSplit(p *Platform) error {
	ctx := p.Ctx()
	raw, err := p.ReadInput(ctx.Param("input", workloads.BinInputPath))
	if err != nil {
		return err
	}
	n := int(ctx.ParamInt("instances", 1))
	var pivots []uint64
	if err := p.Compute(func() error {
		pivots = workloads.PickPivots(workloads.BytesToU64s(raw), n)
		return nil
	}); err != nil {
		return err
	}
	per := (len(raw) / 8 / n) * 8
	for i := 0; i < n; i++ {
		start := i * per
		end := start + per
		if i == n-1 {
			end = len(raw)
		}
		payload := workloads.EncodePivotChunk(pivots, raw[start:end])
		if err := p.Send(visor.Slot("ps-split", 0, "ps-sort", i), payload); err != nil {
			return err
		}
	}
	return nil
}

func blPsSort(p *Platform) error {
	ctx := p.Ctx()
	data, err := p.Recv(visor.Slot("ps-split", 0, "ps-sort", ctx.Instance))
	if err != nil {
		return err
	}
	var pivots, vals []uint64
	if err := p.Compute(func() error {
		var chunk []byte
		var err error
		pivots, chunk, err = workloads.DecodePivotChunk(data)
		if err != nil {
			return err
		}
		vals = workloads.BytesToU64s(chunk)
		slices.Sort(vals)
		return nil
	}); err != nil {
		return err
	}
	mergers := len(pivots) + 1
	start := 0
	for j := 0; j < mergers; j++ {
		end := len(vals)
		if j < len(pivots) {
			end = sort.Search(len(vals), func(k int) bool { return vals[k] >= pivots[j] })
		}
		if end < start {
			end = start
		}
		slot := visor.Slot("ps-sort", ctx.Instance, "ps-merge", j)
		if err := p.Send(slot, workloads.U64sToBytes(vals[start:end])); err != nil {
			return err
		}
		start = end
	}
	return nil
}

func blPsMerge(p *Platform) error {
	ctx := p.Ctx()
	runs := make([][]uint64, 0, ctx.Instances)
	for i := 0; i < ctx.Instances; i++ {
		data, err := p.Recv(visor.Slot("ps-sort", i, "ps-merge", ctx.Instance))
		if err != nil {
			return err
		}
		runs = append(runs, workloads.BytesToU64s(data))
	}
	var merged []uint64
	if err := p.Compute(func() error {
		merged = workloads.MergeSortedRuns(runs)
		return nil
	}); err != nil {
		return err
	}
	slot := visor.Slot("ps-merge", ctx.Instance, "ps-final", 0)
	return p.Send(slot, workloads.U64sToBytes(merged))
}

func blPsFinal(p *Platform) error {
	ctx := p.Ctx()
	n := int(ctx.ParamInt("instances", 1))
	var prev uint64
	total := 0
	for j := 0; j < n; j++ {
		data, err := p.Recv(visor.Slot("ps-merge", j, "ps-final", 0))
		if err != nil {
			return err
		}
		vals := workloads.BytesToU64s(data)
		for _, v := range vals {
			if v < prev {
				return fmt.Errorf("baselines: output not sorted in range %d", j)
			}
			prev = v
		}
		total += len(vals)
	}
	p.Print("sorted=%d\n", total)
	return nil
}
