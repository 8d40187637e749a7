// Tracedemo: run a fan-out/fan-in pipeline with span tracing enabled
// and export the Chrome trace_event JSON.
//
// The produced file loads directly in Perfetto (https://ui.perfetto.dev)
// or chrome://tracing: one process row for the visor, one lane per
// function instance, phase spans for the Figure-15 breakdown
// (read-input/compute/transfer) and a transfer span per data-plane edge.
//
//	go run ./examples/tracedemo -o trace.json -instances 4
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"alloystack/internal/asstd"
	"alloystack/internal/dag"
	"alloystack/internal/metrics"
	"alloystack/internal/trace"
	"alloystack/internal/visor"
)

func registry(instances int) *visor.Registry {
	r := visor.NewRegistry()

	// produce writes one 64 KiB block per worker through the data plane.
	r.RegisterNative("produce", func(env *asstd.Env, ctx visor.FuncContext) error {
		return env.TimeStage(metrics.StageTransfer, func() error {
			for i := 0; i < instances; i++ {
				block := make([]byte, 64<<10)
				binary.LittleEndian.PutUint64(block, uint64(i+1))
				if err := env.Transport().Send(visor.Slot("produce", 0, "work", i), block); err != nil {
					return err
				}
			}
			return nil
		})
	})

	// work reads its block, burns a little compute, ships a digest on.
	r.RegisterNative("work", func(env *asstd.Env, ctx visor.FuncContext) error {
		var sum uint64
		err := env.TimeStage(metrics.StageReadInput, func() error {
			data, release, err := env.Transport().Recv(visor.Slot("produce", 0, "work", ctx.Instance))
			if err != nil {
				return err
			}
			defer release()
			sum = binary.LittleEndian.Uint64(data)
			return nil
		})
		if err != nil {
			return err
		}
		if err := env.TimeStage(metrics.StageCompute, func() error {
			for i := 0; i < 1<<20; i++ {
				sum = sum*1103515245 + 12345
			}
			time.Sleep(time.Duration(1+ctx.Instance) * time.Millisecond)
			return nil
		}); err != nil {
			return err
		}
		return env.TimeStage(metrics.StageTransfer, func() error {
			out := make([]byte, 8)
			binary.LittleEndian.PutUint64(out, sum)
			return env.Transport().Send(visor.Slot("work", ctx.Instance, "merge", 0), out)
		})
	})

	// merge fans the digests back in.
	r.RegisterNative("merge", func(env *asstd.Env, ctx visor.FuncContext) error {
		var total uint64
		err := env.TimeStage(metrics.StageReadInput, func() error {
			for i := 0; i < instances; i++ {
				data, release, err := env.Transport().Recv(visor.Slot("work", i, "merge", 0))
				if err != nil {
					return err
				}
				total += binary.LittleEndian.Uint64(data)
				release()
			}
			return nil
		})
		if err != nil {
			return err
		}
		return asstd.Printf(env, "merged=%d", total)
	})
	return r
}

func main() {
	out := flag.String("o", "trace.json", "output file for the Chrome trace")
	instances := flag.Int("instances", 4, "parallel work instances")
	syscalls := flag.Bool("syscalls", false, "record per-LibOS-crossing spans (verbose)")
	flag.Parse()

	tracer := trace.New("visor", trace.Options{Syscalls: *syscalls})

	w := &dag.Workflow{Name: "trace-demo", Functions: []dag.FuncSpec{
		{Name: "produce"},
		{Name: "work", DependsOn: []string{"produce"}, Instances: *instances},
		{Name: "merge", DependsOn: []string{"work"}},
	}}
	opts := visor.DefaultRunOptions()
	opts.BufHeapSize = 64 << 20
	opts.Stdout = os.Stdout
	opts.Trace = tracer

	v := visor.New(registry(*instances))
	res, err := v.RunWorkflow(w, opts)
	fmt.Println()
	if err != nil {
		log.Fatalf("tracedemo: %v", err)
	}

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	if err := trace.ExportChrome(f, tracer); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("trace %s: e2e %s, cold start %s, %d spans\n",
		res.TraceID, res.E2E.Round(time.Microsecond),
		res.ColdStart.Round(time.Microsecond), len(tracer.Spans()))
	totals := tracer.PhaseTotals()
	names := make([]string, 0, len(totals))
	for name := range totals {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println("phase totals (trace == stage clock):")
	for _, name := range names {
		fmt.Printf("  %-10s %12s\n", name, totals[name].Round(time.Microsecond))
	}
	fmt.Println("transfer:")
	fmt.Printf("  %s\n", res.Transfer)
	fmt.Printf("wrote %s — load it at https://ui.perfetto.dev or chrome://tracing\n", *out)
}
