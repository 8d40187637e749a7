// Package alloystack's root benchmark suite: one testing.B sub-benchmark
// per table and figure of the paper's evaluation, ranging over the same
// experiment table as cmd/asbench. Run with:
//
//	go test -bench=. -benchmem
//	go test -bench=Experiments/fig11
//
// Benchmarks use a small data scale and mildly reduced injected costs so
// the full suite completes in minutes; cmd/asbench runs the calibrated
// configuration and prints the full paper-style tables.
package alloystack

import (
	"testing"

	"alloystack/internal/bench"
)

func BenchmarkExperiments(b *testing.B) {
	opts := bench.Options{Scale: 1.0 / 64, CostScale: 0.1, Iterations: 1}
	for _, e := range bench.Experiments {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := e.Fn(opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Rows) == 0 {
					b.Fatal("empty report")
				}
			}
		})
	}
}
