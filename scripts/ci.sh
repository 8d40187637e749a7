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
# The portable path: off linux/amd64 the AOT engine is the register
# engine and no machine code runs, but the emitter and its checker still
# build and vet there.
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/asvm
# Under GitHub Actions, -github makes every finding a ::error workflow
# command so it lands as an inline PR-diff annotation.
if [ -n "${GITHUB_ACTIONS:-}" ]; then
	go run ./cmd/asvet -github ./...
else
	go run ./cmd/asvet ./...
fi
go test -short ./...
# Every benchmark once, so one that panics on what it measures (native
# code under BenchmarkWcMapAOT and BenchmarkAOTLoop, the register engine
# under BenchmarkWcMapRegister) fails here; no number is read.
go test -run '^$' -bench . -benchtime 1x ./internal/asvm ./internal/workloads
# Short fuzz budgets past each committed corpus: the two ASVM engines,
# the payload-pattern kernels, the kvstore and invoke-frame
# decoders, the journal's replay, dag.Parse, metrics.ParseProm and
# fatfs.Mount of a mutated image; a crasher fails the build and is left
# under the package's testdata/fuzz/ to be committed as a test.
make fuzz-smoke
# The ./internal/... wildcard includes internal/cluster and the
# gateway's cluster plane: rendezvous routing, membership, shard
# admission and the pre-warm protocol all re-run under -race here. It
# also includes internal/asvm, whose lazily compiled Program is shared
# by concurrent instances (TestSharedProgramFirstUseIsConcurrent). A
# -race build has no native tier (native_other.go's build tag: the race
# detector cannot see what foreign code accesses), so this pass runs
# every AOT test and the three-way oracle on the register engine.
go test -race -count=1 ./internal/...
# Guest linear memory and the file transport's read-backs come from one
# process-wide free list (mem.Take/Park) that concurrent WFDs share; a
# use after release, or an array handed out twice, shows only when
# another user takes the array in between, which one pass rarely hits.
# Re-run the recycling tests under -race.
go test -race -count=20 -run 'Recycled|ReleaseContract' ./internal/asvm ./internal/xfer
# The gateway→watchdog hop keeps framed connections per backend and
# hands them between requests; the watchdog reads the next frame while
# it serves the last and drains them itself on Stop. A reply delivered
# to the wrong request, a re-dial rule applied after the reply began or
# a drain that drops an in-flight run shows only under some
# interleavings, so re-run the pool, drain and cross-talk tests.
go test -race -count=20 -run 'Redial|RetryAfterFirstReplyByte|RequestTimeoutIsConnectionDeadline|RestartedBackend|StopDuringFramedInvoke|NoCrossTalk|StopReleasesBackendConnections|StopClosesItsConnections' ./internal/gateway
go test -race -count=20 -run 'FrameStopDrains|DroppedFrameConnection' ./internal/visor
# A dialer whose peer writes and closes at once can see the data and
# FIN land before its handshake wait wakes; Dial once reported that
# success as a timeout, one run in ten under -race. One -count=1 pass
# rarely hits the window, so re-run both tests that open it (~3 s).
go test -race -count=100 -run 'TestSocketModule$|TestDialSurvivesEarlyFIN$' ./internal/libos ./internal/netstack
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
