GO ?= go

PKGS       := ./...
CHAOS_PKGS := ./internal/faults ./internal/visor ./internal/gateway ./internal/kvstore ./internal/integration
RACE_PKGS  := ./internal/...

.PHONY: all build vet lint test fuzz-smoke race chaos bench bench-e2e-smoke layout-smoke trace-demo coldstart-demo ci

all: build

build:
	$(GO) build $(PKGS)

# vet runs stock go vet plus asvet, the repo's own analyzers (raw memory
# gating, PKRU pairing, sentinel errors.Is, wall-clock reads in
# deterministic packages, span and lock lifetimes, lock order, goroutine
# shutdown, unreachable code). `make lint` is an alias.
vet:
	$(GO) vet $(PKGS)
	$(GO) run ./cmd/asvet $(PKGS)

lint: vet

test:
	$(GO) test $(PKGS)

# fuzz-smoke gives the differential engine fuzzer (switch interpreter,
# register engine and native code, internal/asvm; a -race or non-amd64
# build has no native code, and there its checker still judges what the
# emitter would produce) ten seconds beyond the committed
# corpus and the fixed-seed property test `make test` already replays,
# then the verifier's promise (FuzzVerifiedNeverPanics: a program
# scan.Verify admits ends in a result or a typed trap on all three
# engines, never a panic or a fault) five seconds, then the
# payload-pattern kernels (internal/workloads) five seconds
# against their per-byte formula, then the wire decoders that read
# bytes from a peer (the kvstore command reader and the
# gateway→watchdog invoke frames), the journal's replay, dag.Parse
# (which reads the specs a peer's watchdog sends), metrics.ParseProm
# (which reads a node's /metrics for asctl top) and fatfs.Mount of a
# mutated disk image five seconds each. A crasher is written under the
# package's testdata/fuzz/ and becomes a regression test by being
# committed.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzEnginesAgree -fuzztime 10s ./internal/asvm
	$(GO) test -run '^$$' -fuzz FuzzVerifiedNeverPanics -fuzztime 5s ./internal/asvm
	$(GO) test -run '^$$' -fuzz FuzzPattern -fuzztime 5s ./internal/workloads
	$(GO) test -run '^$$' -fuzz FuzzKVCommand -fuzztime 5s ./internal/kvstore
	$(GO) test -run '^$$' -fuzz FuzzInvokeFrame -fuzztime 5s ./internal/xfer
	$(GO) test -run '^$$' -fuzz FuzzJournalReplay -fuzztime 5s ./internal/journal
	$(GO) test -run '^$$' -fuzz FuzzDAGParse -fuzztime 5s ./internal/dag
	$(GO) test -run '^$$' -fuzz FuzzPromParse -fuzztime 5s ./internal/metrics
	$(GO) test -run '^$$' -fuzz FuzzFatfsMount -fuzztime 5s ./internal/fatfs

# race runs every internal package under the race detector; the chaos
# tests are concurrency-heavy by design, so this is where races
# surface first.
race:
	$(GO) test -race $(RACE_PKGS)

# chaos runs the long soak variants that -short (and plain `make test`
# via go's test cache) would skip.
chaos:
	$(GO) test -race -count=1 -run 'Chaos|Fault|Reconnect|Failover' $(CHAOS_PKGS)

bench:
	$(GO) run ./cmd/asbench -exp recovery

# bench-e2e-smoke drives every workload of BENCHMARK.json through the
# end-to-end benchmark's own harness for a fraction of a second each. It
# measures nothing; it fails when a workload no longer boots or an
# invoke's output check fails, i.e. when a change broke what the
# benchmark driver is about to run.
E2E_WORKLOADS := frontdoor-noop chain-refpass chain-file wc-py-warm
bench-e2e-smoke:
	for w in $(E2E_WORKLOADS); do \
		$(GO) run ./benchmarks/e2e -workload $$w -smoke || exit 1; \
	done

# trace-demo runs a traced fan-out pipeline and emits trace.json,
# loadable at https://ui.perfetto.dev (CI uploads it as an artifact).
# layout-smoke runs scripts/layout.sh at two code-layout phases under
# the benchmark's -smoke: it checks that the sampler still builds HEAD
# through its overlay and reads a floor from every workload, and
# measures nothing.
layout-smoke:
	./scripts/layout.sh -phases 2 -smoke

trace-demo:
	$(GO) run ./examples/tracedemo -o trace.json

# coldstart-demo contrasts cold boots against warm-pool snapshot forks
# for the Python tier and leaves the summary in coldstart.txt (CI
# uploads it as an artifact alongside trace.json).
coldstart-demo:
	$(GO) run ./cmd/asbench -exp coldstart -scale 0.01 | tee coldstart.txt

ci:
	./scripts/ci.sh
