package workloads

import (
	"fmt"
	"time"

	"alloystack/internal/asstd"
	"alloystack/internal/asvm"
	"alloystack/internal/visor"
)

// This file holds the guest-tier benchmark programs: ASVM assembly
// standing in for the C and Python versions of the paper's benchmarks
// (compiled to WASM in the original). Guests do all computation inside
// their linear memory and reach the LibOS only through the WASI-style
// host calls, so intermediate data crosses the guest/host boundary as
// byte copies — exactly the string-transfer limitation §7.2 describes
// for non-Rust functions.
//
// Topology simplification for the guest tier (documented in DESIGN.md):
// the WordCount shuffle is 1:1 (mapper i feeds reducer i) and the
// histogram is 26 word-start buckets; ParallelSorting sorts chunks
// in place (shell sort) and verifies per-range order without the global
// sample-sort merge. Both keep the paper-relevant properties: WordCount
// has sparse intermediate data relative to its input, ParallelSorting
// dense; compute is real guest bytecode.

// payloadBase is where guests stage bulk data in linear memory.
const payloadBase = 65536

// guestPrelude declares memory, the common imports and helper functions
// shared by all guest programs.
const guestPrelude = asstd.WASISlotImports + `
memory 131072
data 0 "/INPUT.TXT"
data 16 "/INPUT.BIN"

; ensure(total): grow linear memory to at least total bytes.
func ensure 1 2 0
  local.get 0
  mem.size
  sub
  local.set 1
  local.get 1
  push 0
  gt
  jz ensured
  local.get 1
  mem.grow
  drop
ensured:
  ret
end

; fill(base, n): write the verifiable pattern byte (i*131+17)&255.
func fill 2 3 0
  push 0
  local.set 2
fillloop:
  local.get 2
  local.get 1
  lt
  jz filldone
  local.get 0
  local.get 2
  add
  local.get 2
  push 131
  mul
  push 17
  add
  push 255
  and
  store8
  local.get 2
  push 1
  add
  local.set 2
  jmp fillloop
filldone:
  ret
end

; xorsum(base, n) -> xor of all bytes (touches every byte).
func xorsum 2 4 1
  push 0
  local.set 2
  push 0
  local.set 3
xsloop:
  local.get 2
  local.get 1
  lt
  jz xsdone
  local.get 0
  local.get 2
  add
  load8
  local.get 3
  xor
  local.set 3
  local.get 2
  push 1
  add
  local.set 2
  jmp xsloop
xsdone:
  local.get 3
  ret
end

; recvedge(edge) -> size: receive the edge's payload at payloadBase.
func recvedge 1 2 1
  local.get 0
  hostcall slot_size
  local.set 1
  push 65536
  local.get 1
  add
  call ensure
  push 65536
  local.get 1
  local.get 0
  hostcall slot_recv
  drop
  local.get 1
  ret
end
`

// noopsGuestSrc: the empty function.
const noopsGuestSrc = guestPrelude + `
func run 2 2 1
  push 0
  ret
end
`

// pipeSendGuestSrc: run(instance, instances, size).
const pipeSendGuestSrc = guestPrelude + `
func run 3 3 1
  push 65536
  local.get 2
  add
  call ensure
  push 65536
  local.get 2
  call fill
  push 65536
  local.get 2
  push 0
  hostcall slot_send
  ret
end
`

// pipeRecvGuestSrc: run(instance, instances, size) — size is advisory.
const pipeRecvGuestSrc = guestPrelude + `
func run 3 4 1
  push 0
  call recvedge
  local.set 3
  push 65536
  local.get 3
  call xorsum
  ret
end
`

// chainGuestSrc: run(idx, length, size). Head fills and sends, interior
// links receive+forward, the tail receives and checks.
const chainGuestSrc = guestPrelude + `
func run 3 4 1
  local.get 0
  jz head
  ; interior or tail: receive
  push 0
  call recvedge
  local.set 3
  ; tail? idx+1 == length
  local.get 0
  push 1
  add
  local.get 1
  eq
  jnz tail
  ; forward
  push 65536
  local.get 3
  push 0
  hostcall slot_send
  ret
tail:
  push 65536
  local.get 3
  call xorsum
  ret
head:
  push 65536
  local.get 2
  add
  call ensure
  push 65536
  local.get 2
  call fill
  push 65536
  local.get 2
  push 0
  hostcall slot_send
  ret
end
`

// splitGuestSrc: run(n, pathOff, pathLen, align) — read the input file
// and scatter n align-multiple chunks to out edges 0..n-1.
const splitGuestSrc = guestPrelude + `
func run 4 10 1
  hostcall fs_mount
  drop
  local.get 1
  local.get 2
  hostcall path_open
  local.set 4          ; fd
  local.get 4
  push 0
  lt
  jnz fail
  local.get 4
  hostcall fd_size
  local.set 5          ; size
  push 65536
  local.get 5
  add
  call ensure
  push 0
  local.set 6          ; total read
readloop:
  local.get 6
  local.get 5
  lt
  jz sendchunks
  local.get 4
  push 65536
  local.get 6
  add
  local.get 5
  local.get 6
  sub
  hostcall fd_read
  local.set 7
  local.get 7
  push 1
  lt
  jnz fail
  local.get 6
  local.get 7
  add
  local.set 6
  jmp readloop
sendchunks:
  local.get 4
  hostcall fd_close
  drop
  ; chunk = (size / align / n) * align
  local.get 5
  local.get 3
  div
  local.get 0
  div
  local.get 3
  mul
  local.set 7          ; chunk bytes
  push 0
  local.set 8          ; i
chunkloop:
  local.get 8
  local.get 0
  lt
  jz alldone
  ; start = i * chunk
  local.get 8
  local.get 7
  mul
  local.set 9
  ; len = last ? size-start : chunk
  local.get 8
  push 1
  add
  local.get 0
  eq
  jz midchunk
  local.get 5
  local.get 9
  sub
  local.set 6
  jmp emit
midchunk:
  local.get 7
  local.set 6
emit:
  push 65536
  local.get 9
  add
  local.get 6
  local.get 8
  hostcall slot_send
  drop
  local.get 8
  push 1
  add
  local.set 8
  jmp chunkloop
alldone:
  push 0
  ret
fail:
  push 1
  halt
end
`

// wcMapGuestSrc: run(instance, instances) — histogram of word-start
// letters (26 u64 buckets at 256), sent to the paired reducer.
const wcMapGuestSrc = guestPrelude + `
func run 2 8 1
  push 0
  call recvedge
  local.set 2          ; size
  ; zero the histogram
  push 0
  local.set 3
zloop:
  local.get 3
  push 26
  lt
  jz count
  push 256
  local.get 3
  push 8
  mul
  add
  push 0
  store64
  local.get 3
  push 1
  add
  local.set 3
  jmp zloop
count:
  push 0
  local.set 3          ; i
  push 1
  local.set 5          ; prev-is-space
hloop:
  local.get 3
  local.get 2
  lt
  jz hsend
  push 65536
  local.get 3
  add
  load8
  local.set 4          ; c
  ; is-space = c==32 | c==10 | c==9 | c==13
  local.get 4
  push 32
  eq
  local.get 4
  push 10
  eq
  or
  local.get 4
  push 9
  eq
  or
  local.get 4
  push 13
  eq
  or
  local.set 6
  local.get 6
  jnz advance
  local.get 5
  jz advance
  ; word start: bucket[(c mod 26)]++
  push 256
  local.get 4
  push 26
  rem
  push 8
  mul
  add
  dup
  load64
  push 1
  add
  store64
advance:
  local.get 6
  local.set 5
  local.get 3
  push 1
  add
  local.set 3
  jmp hloop
hsend:
  push 256
  push 208
  push 0
  hostcall slot_send
  ret
end
`

// relayGuestSrc: run(instance, instances) — receive edge 0, send edge 0
// unchanged (the guest-tier reduce step and similar pass-through nodes).
const relayGuestSrc = guestPrelude + `
func run 2 3 1
  push 0
  call recvedge
  local.set 2
  push 65536
  local.get 2
  push 0
  hostcall slot_send
  ret
end
`

// wcMergeGuestSrc: run(n) — sum n 26-bucket histograms, return total.
const wcMergeGuestSrc = guestPrelude + `
func run 1 6 1
  ; zero accumulator at 512
  push 0
  local.set 2
azloop:
  local.get 2
  push 26
  lt
  jz gather
  push 512
  local.get 2
  push 8
  mul
  add
  push 0
  store64
  local.get 2
  push 1
  add
  local.set 2
  jmp azloop
gather:
  push 0
  local.set 1          ; j = edge index
edgeloop:
  local.get 1
  local.get 0
  lt
  jz total
  push 256
  push 208
  local.get 1
  hostcall slot_recv
  drop
  push 0
  local.set 2
addloop:
  local.get 2
  push 26
  lt
  jz nextedge
  push 512
  local.get 2
  push 8
  mul
  add
  dup
  load64
  push 256
  local.get 2
  push 8
  mul
  add
  load64
  add
  store64
  local.get 2
  push 1
  add
  local.set 2
  jmp addloop
nextedge:
  local.get 1
  push 1
  add
  local.set 1
  jmp edgeloop
total:
  push 0
  local.set 2
  push 0
  local.set 3
sumloop:
  local.get 2
  push 26
  lt
  jz done
  push 512
  local.get 2
  push 8
  mul
  add
  load64
  local.get 3
  add
  local.set 3
  local.get 2
  push 1
  add
  local.set 2
  jmp sumloop
done:
  local.get 3
  ret
end
`

// psSortGuestSrc: run(instance, instances) — shell-sort the received
// u64 chunk in place, then forward it.
const psSortGuestSrc = guestPrelude + `
func run 2 9 1
  push 0
  call recvedge
  local.set 2          ; bytes
  local.get 2
  push 8
  div
  local.set 3          ; n values
  ; shell sort: for gap=n/2; gap>0; gap/=2
  local.get 3
  push 2
  div
  local.set 4          ; gap
gaploop:
  local.get 4
  push 0
  gt
  jz sorted
  local.get 4
  local.set 5          ; i = gap
iloop:
  local.get 5
  local.get 3
  lt
  jz nextgap
  ; tmp = a[i]
  push 65536
  local.get 5
  push 8
  mul
  add
  load64
  local.set 6
  local.get 5
  local.set 7          ; j = i
jloop:
  local.get 7
  local.get 4
  ge
  jz jdone
  ; v = a[j-gap]
  push 65536
  local.get 7
  local.get 4
  sub
  push 8
  mul
  add
  load64
  local.set 8
  local.get 8
  local.get 6
  gt
  jz jdone
  ; a[j] = v
  push 65536
  local.get 7
  push 8
  mul
  add
  local.get 8
  store64
  local.get 7
  local.get 4
  sub
  local.set 7
  jmp jloop
jdone:
  ; a[j] = tmp
  push 65536
  local.get 7
  push 8
  mul
  add
  local.get 6
  store64
  local.get 5
  push 1
  add
  local.set 5
  jmp iloop
nextgap:
  local.get 4
  push 2
  div
  local.set 4
  jmp gaploop
sorted:
  push 65536
  local.get 2
  push 0
  hostcall slot_send
  ret
end
`

// psVerifyRelayGuestSrc: run(instance, instances) — assert the received
// chunk is sorted (signed compare, matching the guest sorter), forward.
const psVerifyRelayGuestSrc = guestPrelude + `
func run 2 6 1
  push 0
  call recvedge
  local.set 2
  local.get 2
  push 8
  div
  local.set 3
  push 1
  local.set 4          ; i
vloop:
  local.get 4
  local.get 3
  lt
  jz vok
  push 65536
  local.get 4
  push 8
  mul
  add
  load64
  push 65536
  local.get 4
  push 1
  sub
  push 8
  mul
  add
  load64
  lt
  jnz vfail
  local.get 4
  push 1
  add
  local.set 4
  jmp vloop
vok:
  push 65536
  local.get 2
  push 0
  hostcall slot_send
  ret
vfail:
  push 1
  halt
end
`

// psFinalGuestSrc: run(n) — drain n ranges, xor-summing every byte.
const psFinalGuestSrc = guestPrelude + `
func run 1 5 1
  push 0
  local.set 1          ; edge
  push 0
  local.set 2          ; acc
floop:
  local.get 1
  local.get 0
  lt
  jz fdone
  local.get 1
  call recvedge
  local.set 3
  push 65536
  local.get 3
  call xorsum
  local.get 2
  xor
  local.set 2
  local.get 1
  push 1
  add
  local.set 1
  jmp floop
fdone:
  local.get 2
  ret
end
`

// Assembled guest programs (shared, immutable after assembly).
var (
	NoopsGuest    = asvm.MustAssemble(noopsGuestSrc)
	PipeSendGuest = asvm.MustAssemble(pipeSendGuestSrc)
	PipeRecvGuest = asvm.MustAssemble(pipeRecvGuestSrc)
	ChainGuest    = asvm.MustAssemble(chainGuestSrc)
	SplitGuest    = asvm.MustAssemble(splitGuestSrc)
	WcMapGuest    = asvm.MustAssemble(wcMapGuestSrc)
	RelayGuest    = asvm.MustAssemble(relayGuestSrc)
	WcMergeGuest  = asvm.MustAssemble(wcMergeGuestSrc)
	PsSortGuest   = asvm.MustAssemble(psSortGuestSrc)
	PsVerifyRelay = asvm.MustAssemble(psVerifyRelayGuestSrc)
	PsFinalGuest  = asvm.MustAssemble(psFinalGuestSrc)
)

// GuestTier configures how guest programs execute for one language tier.
type GuestTier struct {
	// Language is the dag.FuncSpec language this tier serves.
	Language string
	// Engine and OverheadFactor model the runtime (see DESIGN.md S4).
	Engine         asvm.EngineKind
	OverheadFactor float64
	// RuntimeImage, when non-empty, is read through the LibOS fs before
	// each function executes (the Python-runtime init, S5).
	RuntimeImage string
	// InitCost is the calibrated runtime bootstrap beyond the image
	// read, scaled by the run's CostScale.
	InitCost time.Duration
}

// CTier models AlloyStack-C: AOT WASM on a Cranelift-class code
// generator (paper: Wasmtime ≈30% slower than WAVM).
func CTier() GuestTier {
	return GuestTier{Language: "c", Engine: asvm.EngineAOT, OverheadFactor: 1.3}
}

// PyTier models AlloyStack-Py: the same AOT engine — the paper runs its
// Python tier as AOT-compiled WASM too — slowed by a calibrated
// interpretive factor (`asbench -exp engines` realises it as ≈2.4× the
// WAVM model), behind a runtime image load plus calibrated interpreter
// bootstrap (CPython's startup work beyond reading its image; paper
// §8.2 places AS-Py among the slowest starters).
func PyTier() GuestTier {
	return GuestTier{
		Language:       "python",
		Engine:         asvm.EngineAOT,
		OverheadFactor: 2.6,
		RuntimeImage:   PyRuntimePath,
		InitCost:       550 * time.Millisecond,
	}
}

// guestBases pairs every guest function's base name with its program,
// in registration order. GuestProgram and GuestEdges are the rest of the
// description: each instance's entry arguments and edge slots.
var guestBases = []struct {
	base string
	prog *asvm.Program
}{
	{"noops", NoopsGuest},
	{"pipe-send", PipeSendGuest},
	{"pipe-recv", PipeRecvGuest},
	{"chain", ChainGuest},
	// WordCount: split -> map(xN, 1:1 shuffle) -> reduce(xN relay) -> merge.
	{"wc-split", SplitGuest},
	{"wc-map", WcMapGuest},
	{"wc-reduce", RelayGuest},
	{"wc-merge", WcMergeGuest},
	// ParallelSorting: split -> sort(xN) -> verify-relay(xN) -> final.
	{"ps-split", SplitGuest},
	{"ps-sort", PsSortGuest},
	{"ps-merge", PsVerifyRelay},
	{"ps-final", PsFinalGuest},
}

// GuestProgram returns the guest program and entry arguments for a
// benchmark function, shared by the AlloyStack guest tiers and the Faasm
// baseline (which runs the identical bytecode on its own platform).
func GuestProgram(funcName string, ctx visor.FuncContext) (*asvm.Program, []int64, error) {
	base := visor.BaseName(funcName)
	var prog *asvm.Program
	for _, g := range guestBases {
		if g.base == base {
			prog = g.prog
			break
		}
	}
	if prog == nil {
		return nil, nil, fmt.Errorf("workloads: no guest program for %q", funcName)
	}
	var args []int64
	switch base {
	case "pipe-send", "pipe-recv":
		args = []int64{int64(ctx.Instance), int64(ctx.Instances), ctx.ParamInt("size", 4096)}
	case "chain":
		idx, err := chainIndex(funcName)
		if err != nil {
			return nil, nil, err
		}
		args = []int64{int64(idx), ctx.ParamInt("length", 2), ctx.ParamInt("size", 4096)}
	case "wc-split":
		args = []int64{ctx.ParamInt("instances", 1), 0, 10, 1} // path "/INPUT.TXT" at data offset 0
	case "ps-split":
		args = []int64{ctx.ParamInt("instances", 1), 16, 10, 8} // path "/INPUT.BIN" at data offset 16
	case "wc-merge", "ps-final":
		args = []int64{ctx.ParamInt("instances", 1)}
	default: // noops, the mappers, sorters and relays
		args = []int64{int64(ctx.Instance), int64(ctx.Instances)}
	}
	return prog, args, nil
}

// GuestEdges resolves a guest function's logical in/out edges to slot
// names (the guest-tier topology documented above).
func GuestEdges(funcName string, ctx visor.FuncContext) (in, out []string) {
	n := int(ctx.ParamInt("instances", 1))
	switch visor.BaseName(funcName) {
	case "pipe-send":
		out = []string{visor.Slot("pipe-send", 0, "pipe-recv", 0)}
	case "pipe-recv":
		in = []string{visor.Slot("pipe-send", 0, "pipe-recv", 0)}
	case "chain":
		idx, err := chainIndex(funcName)
		if err != nil {
			return nil, nil
		}
		if idx > 0 {
			in = []string{visor.Slot(fmt.Sprintf("chain-%d", idx-1), 0, funcName, 0)}
		}
		if idx < int(ctx.ParamInt("length", 2))-1 {
			out = []string{visor.Slot(funcName, 0, fmt.Sprintf("chain-%d", idx+1), 0)}
		}
	case "wc-split":
		out = make([]string, n)
		for i := range out {
			out[i] = visor.Slot("wc-split", 0, "wc-map", i)
		}
	case "wc-map":
		in = []string{visor.Slot("wc-split", 0, "wc-map", ctx.Instance)}
		out = []string{visor.Slot("wc-map", ctx.Instance, "wc-reduce", ctx.Instance)}
	case "wc-reduce":
		in = []string{visor.Slot("wc-map", ctx.Instance, "wc-reduce", ctx.Instance)}
		out = []string{visor.Slot("wc-reduce", ctx.Instance, "wc-merge", 0)}
	case "wc-merge":
		in = make([]string, n)
		for r := range in {
			in[r] = visor.Slot("wc-reduce", r, "wc-merge", 0)
		}
	case "ps-split":
		out = make([]string, n)
		for i := range out {
			out[i] = visor.Slot("ps-split", 0, "ps-sort", i)
		}
	case "ps-sort":
		in = []string{visor.Slot("ps-split", 0, "ps-sort", ctx.Instance)}
		out = []string{visor.Slot("ps-sort", ctx.Instance, "ps-merge", ctx.Instance)}
	case "ps-merge":
		in = []string{visor.Slot("ps-sort", ctx.Instance, "ps-merge", ctx.Instance)}
		out = []string{visor.Slot("ps-merge", ctx.Instance, "ps-final", 0)}
	case "ps-final":
		in = make([]string, n)
		for j := range in {
			in[j] = visor.Slot("ps-merge", j, "ps-final", 0)
		}
	}
	return in, out
}

// resolveGuest is every guest VMFunc's Resolve, a pure function of ctx:
// the visor's plan calls it once per stage instance at RegisterWorkflow.
// The node name is always registered, so GuestProgram fails only on a
// malformed chain index, whose nil arguments the entry point then
// refuses.
func resolveGuest(ctx visor.FuncContext) ([]int64, []string, []string) {
	_, args, _ := GuestProgram(ctx.Function, ctx)
	in, out := GuestEdges(ctx.Function, ctx)
	return args, in, out
}

// RegisterGuestTier installs the full guest benchmark suite for a tier.
func RegisterGuestTier(reg *visor.Registry, tier GuestTier) {
	for _, g := range guestBases {
		reg.RegisterVM(g.base, tier.Language, visor.VMFunc{
			Prog:           g.prog,
			Entry:          "run",
			Engine:         tier.Engine,
			OverheadFactor: tier.OverheadFactor,
			RuntimeImage:   tier.RuntimeImage,
			InitCost:       tier.InitCost,
			Resolve:        resolveGuest,
		})
	}
}

// RegisterAll installs the native tier plus both guest tiers.
func RegisterAll(reg *visor.Registry) {
	RegisterNative(reg)
	RegisterGuestTier(reg, CTier())
	RegisterGuestTier(reg, PyTier())
}
