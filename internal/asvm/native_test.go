package asvm

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"
)

// edgeSeeds are the native tier's edge cases, as assembly: each seeds
// FuzzEnginesAgree and runs through the three-way oracle in
// TestNativeEdgeCases.
var edgeSeeds = map[string]string{
	// IDIV faults on MinInt64 / -1; Go defines it as MinInt64, and the
	// remainder as 0. Register and immediate divisors, then a zero one.
	"div-minint": `
memory 64
func run 0 3 1
  push -1
  local.set 0
  push -9223372036854775808
  local.set 1
  push 0
  local.get 1
  local.get 0
  div
  store64
  push 8
  local.get 1
  local.get 0
  rem
  store64
  push 16
  local.get 1
  push -1
  div
  store64
  push 24
  local.get 1
  push -1
  rem
  store64
  local.get 1
  local.get 2
  div
  ret
end`,
	// Shift counts of 64 and more, from registers and immediates: Go
	// and the CPU both take the count mod 64.
	"shift-wide": `
memory 64
func run 0 3 1
  push 64
  local.set 0
  push 127
  local.set 1
  push -1
  local.set 2
  push 0
  push 5
  local.get 0
  shl
  store64
  push 8
  push -40
  local.get 1
  shr
  store64
  push 16
  push 3
  local.get 2
  shl
  store64
  push 24
  local.get 1
  push 65
  shl
  store64
  push 32
  local.get 2
  push 200
  shr
  store64
  local.get 1
  push 64
  shr
  ret
end`,
	// An 8-byte access at len-8 is the last in bounds and at len-7 the
	// first out of it, through a base+offset address and a plain one.
	"mem64-edge": `
memory 64
func run 0 2 1
  push 0
  local.set 0
  local.get 0
  push 56
  add
  push 1234605616436508552
  store64
  local.get 0
  push 56
  add
  load64
  local.set 1
  push 63
  push 7
  store8
  push 57
  local.get 1
  store64
  local.get 1
  ret
end`,
	"load64-past": `
memory 64
func run 0 0 1
  push 57
  load64
  ret
end`,
	// 4 nops, 2 set-up steps, 8332 six-step iterations and push; ret:
	// exactly the fuzz fuel, 50000 steps, so fuel ends at 0 on a block
	// edge; one nop more and it runs out there.
	"fuel-edge-ok":  fmt.Sprintf(fuelEdge, strings.Repeat("  nop\n", 4)),
	"fuel-edge-out": fmt.Sprintf(fuelEdge, strings.Repeat("  nop\n", 5)),
	// Memory grows under a loop that writes the new last byte, hands it
	// to a host that flips it, and reads it back: the code must reload
	// the memory's base and length after every exit.
	"grow-host-loop": `
memory 64
import rec2 2 1
func run 0 3 1
  push 0
  local.set 0
  push 0
  local.set 2
loop:
  push 4096
  mem.grow
  push 4095
  add
  local.set 1
  local.get 1
  local.get 0
  store8
  local.get 1
  local.get 0
  hostcall rec2
  local.get 2
  add
  local.get 1
  load8
  add
  local.set 2
  local.get 0
  push 1
  add
  local.set 0
  local.get 0
  push 40
  lt
  jnz loop
  local.get 2
  ret
end`,
}

const fuelEdge = `
memory 64
func run 0 1 1
%s  push 8332
  local.set 0
loop:
  local.get 0
  push 1
  sub
  local.set 0
  local.get 0
  jnz loop
  push 0
  ret
end`

func TestNativeEdgeCases(t *testing.T) {
	for name, src := range edgeSeeds {
		t.Run(name, func(t *testing.T) {
			prog := MustAssemble(src)
			if !checkEnginesAgree(t, prog, "run", nil, fuzzFuel) {
				t.Fatal("no static stack shape")
			}
			o, err := runOn(armNative, prog, "run", nil, fuzzFuel, false)
			if err != nil {
				t.Fatal(err)
			}
			// Each seed must still reach the edge it was written for.
			switch name {
			case "fuel-edge-ok":
				if o.err != nil || o.steps != fuzzFuel {
					t.Fatalf("%d steps, %v; want exactly %d and no error", o.steps, o.err, fuzzFuel)
				}
			case "fuel-edge-out":
				if !errors.Is(o.err, ErrFuelExhausted) || o.steps != fuzzFuel+1 {
					t.Fatalf("%d steps, %v; want %d and ErrFuelExhausted", o.steps, o.err, fuzzFuel+1)
				}
			case "div-minint":
				if !errors.Is(o.err, ErrDivZero) || !bytes.Equal(o.mem[:32], minIntQuotients) {
					t.Fatalf("%v, memory % x", o.err, o.mem[:32])
				}
			case "mem64-edge", "load64-past":
				if !errors.Is(o.err, ErrOOB) {
					t.Fatalf("err = %v, want ErrOOB", o.err)
				}
			case "grow-host-loop":
				// The recording host fails some calls; the memory must
				// have moved a few times before that.
				if len(o.mem) < 64+8*4096 {
					t.Fatalf("%v after %d bytes of memory", o.err, len(o.mem))
				}
			}
		})
	}
}

// minIntQuotients is MinInt64 / -1, % -1, / -1, % -1, little-endian.
var minIntQuotients = []byte{
	0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0, 0,
	0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0, 0,
}

// TestNativeTierPresent fails if a build that should run native code
// silently runs the register engine instead.
func TestNativeTierPresent(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" || raceEnabled {
		if nativeTier {
			t.Fatal("a native tier outside linux/amd64 without -race")
		}
		t.Skip("no native tier on this build")
	}
	if !nativeTier {
		t.Fatal("linux/amd64 without -race runs no native code")
	}
	inst := instantiate(t, loopSrc, Config{Engine: EngineAOT}, nil)
	if inst.aot.native == nil {
		t.Fatal("an AOT instance has no native code")
	}
	if got, err := inst.Call("sum", 100); err != nil || got != 4950 {
		t.Fatalf("sum(100) = %d, %v", got, err)
	}
}

// signatures are immediates whose bytes spell WRPKRU (0F 01 EF) or
// XRSTOR (0F AE /5) at some offset, as an int32 or only as an int64.
var signatures = []int64{
	0xEF010F, 0x2DAE0F, 0xEF010F << 8, 0x6DAE0F << 24, 0x2DAE0F << 40,
	-0x10FEF1, -0xD251F1, 0x0F01EF00EF010F,
}

// sigProgram uses v as every kind of immediate the emitter encodes —
// a move, an add, a compare-and-branch, an or-of-equality, a multiply,
// a divide, a store offset and a load offset — and as a constant the
// lowering folds from two clean ones.
func sigProgram(v int64) string {
	half := v / 3
	return fmt.Sprintf(`
memory 64
func run 1 4 1
  push %[1]d
  local.set 1
  local.get 0
  push %[1]d
  add
  local.set 2
  local.get 0
  push %[1]d
  mul
  local.get 0
  push %[1]d
  div
  add
  local.get 2
  add
  local.set 2
  push 0
  local.get 0
  push %[1]d
  eq
  local.get 0
  push 5
  eq
  or
  store64
  push %[2]d
  push %[3]d
  add
  local.set 3
  local.get 0
  push %[1]d
  lt
  jz skip
  local.get 0
  push %[1]d
  add
  load8
  local.get 2
  add
  local.set 2
  local.get 0
  push %[1]d
  add
  push 1
  store8
skip:
  local.get 1
  local.get 2
  xor
  local.get 3
  xor
  ret
end`, v, half, v-half)
}

func TestEmittedImmediatesAreClean(t *testing.T) {
	for _, v := range signatures {
		var b [8]byte
		for i := range b {
			b[i] = byte(uint64(v) >> (8 * i))
		}
		if ForbiddenAt(b[:]) < 0 {
			t.Fatalf("%#x spells no signature; fix the table", v)
		}
		prog := MustAssemble(sigProgram(v))
		c, err := prog.compile()
		if err != nil {
			t.Fatalf("%#x: %v", v, err)
		}
		buf, off, at, err := emitNative(c)
		if err != nil {
			t.Fatalf("%#x: %v", v, err)
		}
		if i := ForbiddenAt(buf); i >= 0 {
			t.Fatalf("%#x: emitted code spells % x at %#x", v, buf[i:i+3], i)
		}
		if err := checkNative(buf, off, at, c, prog.Globals); err != nil {
			t.Fatalf("%#x: %v", v, err)
		}
		for _, arg := range []int64{-7, 0, 5, v - 1} {
			checkEnginesAgree(t, prog, "run", []int64{arg}, fuzzFuel)
		}
	}
}

// corruptSrc has a byte load, an 8-byte load and store, and a loop.
const corruptSrc = `
memory 64
func run 1 3 1
  push 0
  local.set 1
loop:
  local.get 1
  load8
  local.get 2
  add
  local.set 2
  push 8
  local.get 2
  store64
  push 8
  load64
  local.get 2
  add
  local.set 2
  local.get 1
  push 1
  add
  local.set 1
  local.get 1
  local.get 0
  lt
  jnz loop
  local.get 2
  ret
end`

// divSrc divides by a register, by the immediate -7 and by one whose
// bytes spell WRPKRU, which the emitter loads in two halves.
const divSrc = `
memory 64
func run 2 2 1
  local.get 0
  local.get 1
  div
  push -7
  rem
  push 0xEF010F
  div
  ret
end
`

// TestCheckerRefusesCorruptCode: the checker is what is trusted, so
// each way a buffer can go wrong that it claims to catch is shown
// caught, on a hand-corrupted copy of code it accepts.
func TestCheckerRefusesCorruptCode(t *testing.T) {
	// replace swaps the first occurrence of from for to, which must be
	// as long.
	replace := func(from, to []byte) func([]byte) []byte {
		return func(b []byte) []byte {
			i := bytes.Index(b, from)
			if i < 0 {
				t.Fatalf("no % x in the buffer", from)
			}
			copy(b[i:], to)
			return b
		}
	}
	refuses(t, corruptSrc, []corruption{
		{"wrpkru", "forbidden", func(b []byte) []byte { copy(b[len(b)/2:], wrpkru[:]); return b }},
		{"xrstor", "forbidden", func(b []byte) []byte { copy(b[len(b)/3:], []byte{0x0F, 0xAE, 0x2D}); return b }},
		// CMP RAX, R8 becomes CMP RAX, R11.
		{"no bounds check", "without its bounds check", replace([]byte{0x49, 0x3B, 0xC0}, []byte{0x49, 0x3B, 0xC3})},
		// CMP RAX, R13 before an 8-byte access becomes the byte check.
		{"byte check for qword", "without its bounds check", replace([]byte{0x49, 0x3B, 0xC5}, []byte{0x49, 0x3B, 0xC0})},
		// The loop's JL lands one byte into an instruction.
		{"branch off target", "not a block entry", func(b []byte) []byte {
			i := bytes.Index(b, []byte{0x0F, 0x8C})
			if i < 0 {
				t.Fatal("no JL")
			}
			b[i+2]++
			return b
		}},
		// MOV RAX, [RDI+d] becomes MOV RSI, [RDI+d]: the memory base.
		{"writes rsi", "writes register 6", replace([]byte{0x48, 0x8B, 0x87}, []byte{0x48, 0x8B, 0xB7})},
		// A store to a frame register past the function's frame.
		{"frame overrun", "outside function", func(b []byte) []byte {
			i := bytes.Index(b, []byte{0x48, 0x89, 0x87}) // MOV [RDI+d], RAX
			if i < 0 {
				t.Fatal("no frame store")
			}
			copy(b[i+3:], []byte{0x80, 0, 0, 0})
			return b
		}},
		{"int3", "unknown opcode", func(b []byte) []byte { b[0] = 0xCC; return b }},
		{"truncated", "", func(b []byte) []byte { return b[:len(b)-1] }},
	})
	// A divisor of 0 or -1 faults in foreign code: SIGFPE, not a panic.
	const unproved = "IDIV by a divisor not proved"
	refuses(t, divSrc, []corruption{
		// TEST RCX, RCX before the zero trap becomes TEST RAX, RAX.
		{"no zero guard", unproved, replace([]byte{0x48, 0x85, 0xC9}, []byte{0x48, 0x85, 0xC0})},
		// CMOVE RCX, RDX after CMP RCX, -1 becomes CMOVE RAX, RDX.
		{"no -1 guard", unproved, replace([]byte{0x48, 0x0F, 0x44, 0xCA}, []byte{0x48, 0x0F, 0x44, 0xC2})},
		// MOV RCX, -7 becomes MOV RCX, -1, then MOV RCX, 0.
		{"immediate -1", unproved, replace([]byte{0x48, 0xC7, 0xC1, 0xF9, 0xFF, 0xFF, 0xFF}, []byte{0x48, 0xC7, 0xC1, 0xFF, 0xFF, 0xFF, 0xFF})},
		{"immediate 0", unproved, replace([]byte{0x48, 0xC7, 0xC1, 0xF9, 0xFF, 0xFF, 0xFF}, []byte{0x48, 0xC7, 0xC1, 0, 0, 0, 0})},
	})
}

// TestCheckerAllocsFlat: checking a buffer allocates the same whatever
// its length, so the WordCount mapper's 2,350 bytes cost what
// corruptSrc's few hundred do: no allocation per decoded instruction.
func TestCheckerAllocsFlat(t *testing.T) {
	allocs := func(prog *Program) (float64, int) {
		c, err := prog.compile()
		if err != nil {
			t.Fatal(err)
		}
		buf, off, at, err := emitNative(c)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if err := checkNative(buf, off, at, c, prog.Globals); err != nil {
				t.Fatal(err)
			}
		}), len(buf)
	}
	small, smallLen := allocs(MustAssemble(corruptSrc))
	big, bigLen := allocs(wcMapGuest(t))
	t.Logf("%d bytes: %.0f allocs; %d bytes: %.0f allocs", smallLen, small, bigLen, big)
	if big != small || big > 2 {
		t.Errorf("checking %d bytes: %.0f allocs, %d bytes: %.0f; want the same, at most 2 (marks and jumps)",
			smallLen, small, bigLen, big)
	}
}

// corruption is one way of breaking an emitted buffer, and what the
// checker's refusal must name.
type corruption struct {
	name, want string
	corrupt    func([]byte) []byte
}

// refuses emits src, checks the pristine buffer passes, and that each
// corruption of it is refused with an error naming its want.
func refuses(t *testing.T, src string, cases []corruption) {
	t.Helper()
	prog := MustAssemble(src)
	c, err := prog.compile()
	if err != nil {
		t.Fatal(err)
	}
	buf, off, at, err := emitNative(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkNative(buf, off, at, c, prog.Globals); err != nil {
		t.Fatalf("the pristine buffer: %v", err)
	}
	for _, tc := range cases {
		bad := tc.corrupt(slices.Clone(buf))
		err := checkNative(bad, off, at, c, prog.Globals)
		if !errors.Is(err, errCheck) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want a refusal naming %q", tc.name, err, tc.want)
		}
	}
}

// TestNativeCodeIsBounded: Go cannot stop foreign code, so a guest
// that never yields must still return to Go often enough that another
// goroutine's GC waits at most a slice, and a CPU profile taken
// meanwhile, which signals the looping thread, completes.
func TestNativeCodeIsBounded(t *testing.T) {
	if !nativeTier {
		t.Skip("no native tier on this build")
	}
	const fuel = 1 << 34
	inst := instantiate(t, "memory 64\nfunc run 0 0 0\ntop:\n  jmp top\nend\n", Config{Engine: EngineAOT, Fuel: fuel}, nil)
	done := make(chan error, 1)
	go func() {
		_, err := inst.Call("run")
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	var worst time.Duration
	for i := 0; i < 5; i++ {
		start := time.Now()
		runtime.GC()
		worst = max(worst, time.Since(start))
	}
	if worst > 50*time.Millisecond {
		t.Errorf("runtime.GC took %v beside a looping guest, want at most 50ms", worst)
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err == nil {
		time.Sleep(200 * time.Millisecond)
		pprof.StopCPUProfile()
		if prof.Len() == 0 {
			t.Error("empty CPU profile")
		}
	}
	if err := <-done; !errors.Is(err, ErrFuelExhausted) || inst.Steps() != fuel+1 {
		t.Fatalf("%v after %d steps, want ErrFuelExhausted after %d", err, inst.Steps(), int64(fuel)+1)
	}
}
