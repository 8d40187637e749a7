#!/bin/sh
# layout.sh samples code placement: it builds benchmarks/e2e from one
# commit at several layout phases and prints each workload's
# invoke_floor_ms per phase, then its min, median and max across phases.
# A floor claim that holds at only some phases is a placement effect,
# not a code effect.
#
# Phase k links k extra empty functions into internal/core. The linker
# aligns functions to 32 bytes, so every function laid out after
# internal/core (internal/workloads among them) starts k*32 bytes later
# than at phase 0; the script prints main.main's address per phase as
# the proof. The padding file reaches the build only through a generated
# `go build -overlay`: neither the commit nor the working tree is edited,
# and the benchmark is built from `git archive` of the commit.
#
#   scripts/layout.sh [-phases P] [-seconds S] [-smoke] [COMMIT [WORKLOAD...]]
#
#   -phases P   phases 0..P-1, P from 1 to 8 (default 4)
#   -seconds S  timed seconds per run (default 6)
#   -smoke      run each workload under the benchmark's -smoke: checks that
#               every phase builds and runs, measures nothing
#   COMMIT      what to build (default HEAD)
#   WORKLOAD    workloads to run (default all four of BENCHMARK.json)
#
# Runs go phase-major within each workload, one process at a time, with
# `-seed 1 -trace 0`. Compare two commits by running the script once for
# each and reading the two min/median/max lines side by side.
set -eu

phases=4
seconds=6
smoke=
while [ $# -gt 0 ]; do
	case $1 in
	-phases) phases=$2; shift 2 ;;
	-seconds) seconds=$2; shift 2 ;;
	-smoke) smoke=-smoke; shift ;;
	-*) echo "layout.sh: unknown flag $1" >&2; exit 2 ;;
	*) break ;;
	esac
done
case $phases in
[1-8]) ;;
*) echo "layout.sh: -phases must be 1 to 8" >&2; exit 2 ;;
esac
commit=${1:-HEAD}
[ $# -gt 0 ] && shift
workloads=${*:-frontdoor-noop chain-refpass chain-file wc-py-warm}

repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/src"
git -C "$repo" archive "$(git -C "$repo" rev-parse --verify "$commit^{commit}")" | tar -x -C "$work/src"

# padFile prints the Go file for phase $1: $1 empty functions kept alive
# by a slice an init function reads, so the linker cannot drop them.
padFile() {
	echo "package core"
	echo
	echo "var layoutPad = []func(){"
	i=0
	while [ "$i" -lt "$1" ]; do
		echo "	layoutPad$i,"
		i=$((i + 1))
	done
	echo "}"
	echo
	echo "var layoutPadLen int"
	echo
	echo "func init() { layoutPadLen = len(layoutPad) }"
	i=0
	while [ "$i" -lt "$1" ]; do
		printf '\n//go:noinline\nfunc layoutPad%d() {}\n' "$i"
		i=$((i + 1))
	done
}

echo "commit $(git -C "$repo" rev-parse --short "$commit"), $phases phase(s)"
k=0
while [ "$k" -lt "$phases" ]; do
	padFile "$k" > "$work/pad$k.go"
	printf '{"Replace":{"%s":"%s"}}\n' "$work/src/internal/core/zz_layout_pad.go" "$work/pad$k.go" > "$work/overlay$k.json"
	(cd "$work/src" && go build -overlay "$work/overlay$k.json" -o "$work/e2e$k" ./benchmarks/e2e)
	echo "phase $k: +$((k * 32)) bytes, main.main at 0x$(go tool nm "$work/e2e$k" | awk '$3 == "main.main" { print $1 }')"
	k=$((k + 1))
done

printf '%-15s %-6s %s\n' workload phase invoke_floor_ms
for w in $workloads; do
	: > "$work/floors"
	k=0
	while [ "$k" -lt "$phases" ]; do
		# shellcheck disable=SC2086 # $smoke is empty or one flag
		if ! (cd "$work" && "$work/e2e$k" -workload "$w" -seed 1 -seconds "$seconds" -trace 0 $smoke) > "$work/out"; then
			cat "$work/out" >&2
			echo "layout.sh: $w failed at phase $k" >&2
			exit 1
		fi
		floor=$(awk '$1 == "metric" && $2 == "invoke_floor_ms" { print $3 }' "$work/out")
		printf '%-15s %-6s %s\n' "$w" "$k" "$floor"
		echo "$floor" >> "$work/floors"
		k=$((k + 1))
	done
	sort -g "$work/floors" | awk -v w="$w" '
		{ v[NR] = $1 }
		END {
			med = NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2
			printf "%-15s min %.6f median %.6f max %.6f spread %.1f %%\n", w, v[1], med, v[NR], 100 * (v[NR] - v[1]) / med
		}'
done
