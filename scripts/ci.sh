#!/bin/sh
# CI entry point: formatting gate, build, vet (stock + the repo's own
# asvet analyzers), the full test suite, then every internal package
# again under the race detector. The chaos soak test only runs in the
# final (non -short) race pass, so a quick local loop is
# `go test -short ./...`. The traced demo run doubles as an end-to-end
# smoke test and leaves trace.json behind for CI to upload as an
# artifact.
set -eux

test -z "$(gofmt -l .)"
go build ./...
go vet ./...
# Under GitHub Actions, -github makes every finding a ::error workflow
# command so it lands as an inline PR-diff annotation.
if [ -n "${GITHUB_ACTIONS:-}" ]; then
	go run ./cmd/asvet -github ./...
else
	go run ./cmd/asvet ./...
fi
go test -short ./...
# Every benchmark once, so one that panics on what it measures (the AOT
# engine's register code under BenchmarkWcMapAOT and BenchmarkAOTLoop)
# fails here; no number is read.
go test -run '^$' -bench . -benchtime 1x ./internal/asvm ./internal/workloads
# Short fuzz budgets past each committed corpus: the two ASVM engines,
# the payload-pattern kernels, the kvstore and framed-xfer decoders and
# the journal's replay;
# a crasher fails the build and is left under the package's
# testdata/fuzz/ to be committed as a test.
make fuzz-smoke
# The ./internal/... wildcard includes internal/cluster and the
# gateway's cluster plane: rendezvous routing, membership, shard
# admission and the pre-warm protocol all re-run under -race here. It
# also includes internal/asvm, whose lazily compiled Program is shared
# by concurrent instances (TestSharedProgramFirstUseIsConcurrent).
go test -race -count=1 ./internal/...
go run ./examples/tracedemo -o trace.json
# The four BENCHMARK.json workloads, a fraction of a second each through
# the benchmark's own harness: no number is read, but an invoke whose
# output check fails exits non-zero here instead of in the perf driver.
for w in frontdoor-noop chain-refpass chain-file wc-py-warm; do
	go run ./benchmarks/e2e -workload "$w" -smoke
done
# The code-layout sampler at two phases, also under -smoke: HEAD builds
# with its padding overlay and every workload still reports a floor.
make layout-smoke
# The cheap experiment subset with injected cost off, gating nothing
# (the experiments' counts were compared with their golden by
# `go test ./internal/bench` above): it produces the artifacts CI
# uploads — the rendered report, and under journal-artifacts/ the
# crash-resume journals and spill segments and the obs experiment's
# anomaly capture (profiles + flight recorder).
go run ./cmd/asbench -exp cheap -scale 0.01 -cost-scale 0 -artifacts journal-artifacts > bench-report.txt
