package bench

import (
	"fmt"
	"strings"
	"time"

	"alloystack/internal/baselines"
	"alloystack/internal/dag"
	"alloystack/internal/metrics"
	"alloystack/internal/visor"
	"alloystack/internal/workloads"
	"alloystack/internal/xfer"
)

// Fig11 measures intermediate-data transfer latency with the pipe
// benchmark across data sizes and systems (paper Figure 11).
func Fig11(o Options) (*Result, error) {
	o = o.withDefaults()
	// Rows are keyed by the paper's size in the counts: small scales
	// clamp the scaled sizes, and their labels, together.
	sizes := []struct{ paper, scaled int64 }{
		{4 << 10, 4 << 10}, {1 << 20, o.size(1 << 20)}, {4 << 20, o.size(4 << 20)}, {16 << 20, o.size(16 << 20)},
	}
	systems := []string{"AS", "AS-IFI", "AS-C", "AS-Py", "Faastlane", "Faastlane-IPC", "Faasm-C", "OpenFaaS"}
	rep := newResult("fig11", "intermediate data transfer latency, pipe benchmark (paper Fig 11)")
	rep.Header = append([]string{"Size"}, systems...)
	rep.Notes = []string{
		"values are total transfer-stage time in microseconds (write begins to read completes)",
		"paper @16MB: AS 951us, AS-C 697us, AS-Py 9631us; AS beats Faastlane above 4KB",
		"final row: payload copies per transfer from the data-plane counters —",
		"0 under reference passing, >=2 when an external store mediates the edge",
	}
	v := newAlloyVisor()
	var copiesRow []string
	var lastASTransfer string
	for _, sz := range sizes {
		size, key := sz.scaled, humanBytes(sz.paper)
		row := []string{humanBytes(size)}
		copiesRow = []string{"copies"}
		// AlloyStack native.
		for i, mode := range []struct {
			ifi  bool
			lang string
		}{{false, "native"}, {true, "native"}, {false, "c"}, {false, "python"}} {
			w := workloads.Pipe(size, mode.lang)
			res, err := runAlloy(o, v, w, func() (visor.RunOptions, error) {
				ro := alloyOpts(o, func(r *visor.RunOptions) { r.IFI = mode.ifi })
				if mode.lang == "python" {
					img, err := workloads.BuildEmptyImage(true)
					if err != nil {
						return ro, err
					}
					ro.DiskImage = img
				}
				return ro, nil
			})
			if err != nil {
				return nil, fmt.Errorf("fig11 AS %s size %d: %w", mode.lang, size, err)
			}
			row = append(row, us(res.Clock.Total(metrics.StageTransfer)))
			copiesRow = append(copiesRow, rep.count(countKey("copies", systems[i], key),
				res.Transfer.Totals().Copies))
			rep.alloyCounts(countKey(systems[i], key), res)
			if mode.lang == "native" && !mode.ifi {
				lastASTransfer = res.Transfer.String()
			}
		}
		// Baselines.
		for i, bl := range []struct {
			sys  baselines.System
			lang string
		}{
			{baselines.SysFaastlaneRefer, "native"},
			{baselines.SysFaastlaneIPC, "native"},
			{baselines.SysFaasm, "c"},
			{baselines.SysOpenFaaS, "native"},
		} {
			w := workloads.Pipe(size, bl.lang)
			res, err := runBaseline(o, bl.sys, bl.lang, w, nil)
			if err != nil {
				return nil, fmt.Errorf("fig11 %s size %d: %w", bl.sys, size, err)
			}
			row = append(row, us(res.Clock.Total(metrics.StageTransfer)))
			copiesRow = append(copiesRow, rep.count(countKey("copies", systems[4+i], key),
				res.Transfer.Totals().Copies))
			rep.baselineCounts(countKey(systems[4+i], key), res)
		}
		rep.Rows = append(rep.Rows, row)
	}
	rep.Rows = append(rep.Rows, copiesRow)
	if lastASTransfer != "" {
		rep.Notes = append(rep.Notes,
			"AS data plane at largest size: "+strings.ReplaceAll(lastASTransfer, "\n", "; "))
	}
	return emit(o, rep), nil
}

// rustConfig is one (app, input size, parallelism) cell of Figure 12.
type e2eConfig struct {
	app       string // "wc", "ps", "fc"
	paperSize int64
	inst      int // instances per parallel stage, or chain length for fc
}

// fig12Configs pairs sizes with instance counts as the paper's subplots do.
var fig12Configs = []e2eConfig{
	{"wc", 10 << 20, 1}, {"wc", 100 << 20, 3}, {"wc", 300 << 20, 5},
	{"ps", 1 << 20, 1}, {"ps", 25 << 20, 3}, {"ps", 50 << 20, 5},
	{"fc", 1 << 20, 5}, {"fc", 64 << 20, 10}, {"fc", 256 << 20, 15},
}

// buildWorkflow constructs the workflow and its input staging for a config.
func (c e2eConfig) workflow(lang string, size int64) *dag.Workflow {
	switch c.app {
	case "wc":
		return workloads.WordCount(c.inst, lang)
	case "ps":
		return workloads.ParallelSorting(c.inst, lang)
	default:
		return workloads.FunctionChain(c.inst, size, lang)
	}
}

// key is the stable metric-name form of a config cell.
func (c e2eConfig) key(size int64) string {
	return fmt.Sprintf("%s-%s-x%d", c.app, humanBytes(size), c.inst)
}

func (c e2eConfig) label(size int64) string {
	switch c.app {
	case "wc":
		return fmt.Sprintf("WordCount %s x%d", humanBytes(size), c.inst)
	case "ps":
		return fmt.Sprintf("ParallelSorting %s x%d", humanBytes(size), c.inst)
	default:
		return fmt.Sprintf("FunctionChain %s len%d", humanBytes(size), c.inst)
	}
}

// runAlloyConfig executes one Figure 12/13 cell on AlloyStack.
func runAlloyConfig(o Options, v *visor.Visor, c e2eConfig, lang string, size int64,
	mutate func(*visor.RunOptions)) (*visor.RunResult, error) {
	w := c.workflow(lang, size)
	needPy := lang == "python"
	return runAlloy(o, v, w, func() (visor.RunOptions, error) {
		ro := alloyOpts(o, mutate)
		var err error
		switch c.app {
		case "wc":
			ro.DiskImage, err = workloads.BuildTextImage(size, needPy)
		case "ps":
			ro.DiskImage, err = workloads.BuildBinImage(size, needPy)
		default:
			// FunctionChain needs a filesystem only when something will
			// touch it: the Python runtime image, file-mediated transfer,
			// or eager load-all (which instantiates fatfs regardless).
			if needPy || ro.Transfer == xfer.KindFile || !ro.OnDemand {
				ro.DiskImage, err = workloads.BuildEmptyImage(needPy)
			}
		}
		return ro, err
	})
}

// baselineInputs stages the host files a config needs.
func (c e2eConfig) inputs(size int64) map[string][]byte {
	switch c.app {
	case "wc":
		return map[string][]byte{workloads.TextInputPath: workloads.GenText(size, 42)}
	case "ps":
		return map[string][]byte{workloads.BinInputPath: workloads.GenU64s(size, 42)}
	}
	return nil
}

// Fig12 is the Rust-tier end-to-end comparison (paper Figure 12).
func Fig12(o Options) (*Result, error) {
	o = o.withDefaults()
	systems := []baselines.System{
		baselines.SysOpenFaaS, baselines.SysOpenFaaSGVisor,
		baselines.SysFaastlane, baselines.SysFaastlaneRefer,
		baselines.SysFaastlaneReferKata,
	}
	header := []string{"Configuration", "AS (ms)"}
	for _, s := range systems {
		header = append(header, string(s)+" (ms)")
	}
	rep := newResult("fig12", "Rust-tier end-to-end latency (paper Fig 12)")
	rep.Header = header
	rep.Notes = []string{
		fmt.Sprintf("data sizes scaled by %.4f vs the paper", o.Scale),
		"paper: AS 2.1-3.29x vs Faastlane and 6.5-29.3x vs OpenFaaS(-gVisor) on PS;",
		"4.08-10.15x vs OpenFaaS on FC; Faastlane slightly ahead on WC (rust-fatfs reads)",
	}
	v := newAlloyVisor()
	for _, c := range fig12Configs {
		size := o.size(c.paperSize)
		row := []string{c.label(size)}
		asRes, err := runAlloyConfig(o, v, c, "native", size, nil)
		if err != nil {
			return nil, fmt.Errorf("fig12 AS %s: %w", c.label(size), err)
		}
		row = append(row, ms(asRes.E2E))
		rep.alloyCounts(c.key(size), asRes)
		for _, sys := range systems {
			res, err := runBaseline(o, sys, "native", c.workflow("native", size), c.inputs(size))
			if err != nil {
				return nil, fmt.Errorf("fig12 %s %s: %w", sys, c.label(size), err)
			}
			row = append(row, ms(res.E2E))
			rep.baselineCounts(countKey(c.key(size), string(sys)), res)
		}
		rep.Rows = append(rep.Rows, row)
	}
	return emit(o, rep), nil
}

// Fig13 is the C and Python tier comparison against Faasm (paper Fig 13).
func Fig13(o Options) (*Result, error) {
	o = o.withDefaults()
	rep := newResult("fig13", "C and Python end-to-end latency vs Faasm (paper Fig 13)")
	rep.Header = []string{"Configuration", "AS-C (ms)", "Faasm-C (ms)", "AS-Py (ms)", "Faasm-Py (ms)"}
	rep.Notes = []string{
		"python-tier sizes are scaled down a further 8x (interpreted bytecode)",
		"paper: AS-C 1.02-2.77x on WC, 3.01-12.41x on FC; slightly slower on PS",
		"(Wasmtime 30% < WAVM); AS-Py up to 78.3x on FC",
	}
	v := newAlloyVisor()
	for _, c := range fig12Configs {
		cSize := o.size(c.paperSize)
		pySize := o.size(c.paperSize / 8)
		row := []string{c.label(cSize)}
		for _, tier := range []struct {
			lang string
			size int64
		}{{"c", cSize}, {"python", pySize}} {
			asRes, err := runAlloyConfig(o, v, c, tier.lang, tier.size, nil)
			if err != nil {
				return nil, fmt.Errorf("fig13 AS-%s %s: %w", tier.lang, c.label(tier.size), err)
			}
			faasmRes, err := runBaseline(o, baselines.SysFaasm, tier.lang,
				c.workflow(tier.lang, tier.size), c.inputs(tier.size))
			if err != nil {
				return nil, fmt.Errorf("fig13 Faasm-%s %s: %w", tier.lang, c.label(tier.size), err)
			}
			row = append(row, ms(asRes.E2E), ms(faasmRes.E2E))
			rep.alloyCounts(countKey(c.key(tier.size), "AS-"+tier.lang), asRes)
			rep.baselineCounts(countKey(c.key(tier.size), "Faasm-"+tier.lang), faasmRes)
		}
		rep.Rows = append(rep.Rows, row)
	}
	return emit(o, rep), nil
}

// fig14Arms are the four technique combinations of Figure 14. A
// package variable so the golden's sensitivity test can take reference
// passing away from one arm and watch the gate fail.
var fig14Arms = []struct {
	name     string
	onDemand bool
	refPass  bool
}{
	{"base", false, false},
	{"+on-demand", true, false},
	{"+ref-passing", false, true},
	{"+both", true, true},
}

// Fig14 is the technique ablation: on-demand loading and reference
// passing enabled independently (paper Figure 14).
func Fig14(o Options) (*Result, error) {
	o = o.withDefaults()
	configs := []e2eConfig{
		{"wc", 10 << 20, 5},
		{"ps", 1 << 20, 5},
		{"fc", 1 << 20, 15},
	}
	rep := newResult("fig14", "contribution of on-demand loading and reference passing (paper Fig 14)")
	rep.Header = []string{"Workload", "base (ms)", "+on-demand (ms)", "+ref-passing (ms)", "+both (ms)", "on-demand save", "ref-pass save", "copies base", "copies +both"}
	rep.Notes = []string{
		"paper: on-demand loading cuts 40.2-48.0% of latency; reference passing 34.7-51.0%",
		"disabled reference passing routes intermediate data through fatfs files",
		"copies columns: total payload copies counted by the data plane (file spill vs refpass)",
	}
	v := newAlloyVisor()
	for _, c := range configs {
		size := o.size(c.paperSize)
		key := c.key(size)
		row := []string{c.label(size)}
		times := make([]time.Duration, len(fig14Arms))
		copies := make([]int64, len(fig14Arms))
		for i, arm := range fig14Arms {
			res, err := runAlloyConfig(o, v, c, "native", size, func(r *visor.RunOptions) {
				r.OnDemand = arm.onDemand
				if !arm.refPass {
					r.Transfer = xfer.KindFile
				}
				if !arm.onDemand {
					// load-all needs the full resource grant.
					r.Hub = freshHub()
					r.IP = nextBenchIP()
				}
			})
			if err != nil {
				return nil, fmt.Errorf("fig14 %s %s: %w", arm.name, c.label(size), err)
			}
			times[i] = res.E2E
			copies[i] = res.Transfer.Totals().Copies
			row = append(row, ms(res.E2E))
			rep.alloyCounts(countKey(key, arm.name), res)
		}
		odSave := 1 - float64(times[1])/float64(times[0])
		rpSave := 1 - float64(times[2])/float64(times[0])
		row = append(row, fmt.Sprintf("%.1f%%", odSave*100), fmt.Sprintf("%.1f%%", rpSave*100),
			rep.count(countKey("copies", key, "base"), copies[0]),
			rep.count(countKey("copies", key, "both"), copies[len(fig14Arms)-1]))
		rep.Rows = append(rep.Rows, row)
	}
	return emit(o, rep), nil
}

// Fig15 is the per-stage latency breakdown (paper Figure 15).
func Fig15(o Options) (*Result, error) {
	o = o.withDefaults()
	configs := []e2eConfig{
		{"wc", 100 << 20, 3},
		{"ps", 25 << 20, 3},
		{"fc", 64 << 20, 10},
	}
	rep := newResult("fig15", "end-to-end latency breakdown (paper Fig 15)")
	rep.Header = []string{"Workload", "System", "read-input (ms)", "compute (ms)", "transfer (ms)", "fan-in wait (ms)"}
	rep.Notes = []string{
		"paper: AS read-input 6.9-8.1x slower than Faastlane (rust-fatfs vs ext4);",
		"AS transfer and FC stages negligible under reference passing",
	}
	v := newAlloyVisor()
	for _, c := range configs {
		size := o.size(c.paperSize)
		asRes, err := runAlloyConfig(o, v, c, "native", size, nil)
		if err != nil {
			return nil, fmt.Errorf("fig15 AS %s: %w", c.label(size), err)
		}
		rep.alloyCounts(c.key(size), asRes)
		rep.Rows = append(rep.Rows, breakdownRow(c.label(size), "AlloyStack", asRes.Clock))
		flRes, err := runBaseline(o, baselines.SysFaastlaneRefer, "native",
			c.workflow("native", size), c.inputs(size))
		if err != nil {
			return nil, fmt.Errorf("fig15 Faastlane %s: %w", c.label(size), err)
		}
		rep.Rows = append(rep.Rows, breakdownRow("", "Faastlane-refer", flRes.Clock))
		rep.baselineCounts(countKey(c.key(size), "Faastlane-refer"), flRes)
		fmRes, err := runBaseline(o, baselines.SysFaasm, "c",
			c.workflow("c", size), c.inputs(size))
		if err != nil {
			return nil, fmt.Errorf("fig15 Faasm %s: %w", c.label(size), err)
		}
		rep.Rows = append(rep.Rows, breakdownRow("", "Faasm-C", fmRes.Clock))
		rep.baselineCounts(countKey(c.key(size), "Faasm-C"), fmRes)
	}
	return emit(o, rep), nil
}

// breakdownRow renders one system's stage breakdown.
func breakdownRow(label, system string, clock *metrics.StageClock) []string {
	return []string{
		label, system,
		ms(clock.Total(metrics.StageReadInput)),
		ms(clock.Total(metrics.StageCompute)),
		ms(clock.Total(metrics.StageTransfer)),
		ms(clock.Total(metrics.StageWait)),
	}
}

// Fig16 removes the filesystem difference by running on ramfs
// (paper Figure 16): ParallelSorting 25MB, 1/3/5 instances.
func Fig16(o Options) (*Result, error) {
	o = o.withDefaults()
	size := o.size(25 << 20)
	rep := newResult("fig16", "end-to-end latency on ramfs (paper Fig 16)")
	rep.Header = []string{"Instances", "AS-ramfs (ms)", "Faastlane-refer-kata (ms)"}
	rep.Notes = []string{
		"paper: with filesystem differences removed AlloyStack still leads slightly",
		"(hardware virtualisation reduces the MicroVM's computation efficiency)",
	}
	v := newAlloyVisor()
	for _, inst := range []int{1, 3, 5} {
		w := workloads.ParallelSorting(inst, "native")
		asRes, err := runAlloy(o, v, w, func() (visor.RunOptions, error) {
			ro := alloyOpts(o, func(r *visor.RunOptions) {
				r.Ramfs = workloads.BuildBinRamfs(size, false)
			})
			return ro, nil
		})
		if err != nil {
			return nil, fmt.Errorf("fig16 AS x%d: %w", inst, err)
		}
		// Warm sandbox: the paper's Figure 16 isolates steady-state
		// computation efficiency, so the MicroVM boot is excluded.
		kr, err := baselines.NewRunner(baselines.Config{
			System:      baselines.SysFaastlaneReferKata,
			Costs:       baselines.DefaultCosts(),
			CostScale:   o.CostScale,
			WarmSandbox: true,
			Inputs:      map[string][]byte{workloads.BinInputPath: workloads.GenU64s(size, 42)},
		})
		if err != nil {
			return nil, err
		}
		klRes, err := kr.RunWorkflow(w)
		kr.Close()
		if err != nil {
			return nil, fmt.Errorf("fig16 kata x%d: %w", inst, err)
		}
		rep.alloyCounts(fmt.Sprintf("x%d", inst), asRes)
		rep.baselineCounts(fmt.Sprintf("x%d/Faastlane-refer-kata", inst), klRes)
		rep.Rows = append(rep.Rows, []string{fmt.Sprint(inst), ms(asRes.E2E), ms(klRes.E2E)})
	}
	return emit(o, rep), nil
}
