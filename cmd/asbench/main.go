// Command asbench regenerates the paper's tables and figures.
//
// Usage:
//
//	asbench -exp fig10                 # one experiment
//	asbench -exp all                   # the full evaluation
//	asbench -exp cheap                 # the fast subset CI runs for its artifacts
//	asbench -exp fig12 -scale 0.25     # larger data sizes
//	asbench -exp cheap -cost-scale 0   # injected platform costs off
//	asbench -list                      # show available experiments
//
// Experiments print paper-style rows; DESIGN.md maps each experiment ID
// to the corresponding paper table/figure, and EXPERIMENTS.md records
// paper-vs-measured values. asbench gates nothing: the experiments'
// deterministic counts are compared with a committed golden by
// `go test ./internal/bench` (DESIGN.md §12).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"alloystack/internal/bench"
)

func main() {
	exp := flag.String("exp", "", "experiment id, 'all', or 'cheap' (the CI subset)")
	list := flag.Bool("list", false, "list experiments")
	scale := flag.Float64("scale", 1.0/16, "data-size scale relative to the paper")
	costScale := flag.Float64("cost-scale", 1.0, "injected platform-cost scale (1.0 = calibrated, 0 = off)")
	iters := flag.Int("iters", 1, "iterations per configuration (median reported)")
	artifacts := flag.String("artifacts", "", "directory to keep experiment byproducts (journals) for CI upload")
	flag.Parse()

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range bench.Experiments {
			fmt.Printf("  %-11s %s\n", e.ID, e.About)
		}
		if !*list {
			os.Exit(2)
		}
		return
	}

	opts := bench.Options{
		Scale:        *scale,
		CostScale:    *costScale,
		Iterations:   *iters,
		Out:          os.Stdout,
		ArtifactsDir: *artifacts,
	}

	var selected []bench.Experiment
	for _, e := range bench.Experiments {
		if e.ID == *exp || *exp == "all" || (*exp == "cheap" && e.Cheap) {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "asbench: unknown experiment %q (use -list)\n", *exp)
		os.Exit(1)
	}

	// Keep going when one experiment fails so a broken table does not
	// mask results from the rest; aggregate the exit.
	failed := false
	for _, e := range selected {
		start := time.Now()
		if _, err := e.Fn(opts); err != nil {
			fmt.Fprintf(os.Stderr, "asbench: %s: %v\n", e.ID, err)
			failed = true
			continue
		}
		fmt.Printf("[%s completed in %s]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if failed {
		os.Exit(1)
	}
}
