package asvm

import (
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzVerifiedNeverPanics holds the verifier to its promise: a program
// scan.Verify admits runs on every engine — the switch interpreter, the
// register engine and native code — to a result or a typed trap, under
// the differential oracle's fuel and memory budgets. A Go panic fails
// the target; a fault in native code kills the process, which the
// fuzzer reports as a crash. A program the verifier refuses is skipped.
// scan imports asvm, so the target applies the two checks of Verify
// that bear on execution, Validate and StackShape of every function;
// Verify's import allowlist would be the program's own imports, all of
// which the oracle's recording host binds, and its byte-pattern scan
// only refuses more. Seeds: every shipped guest (the assembly in
// FuzzEnginesAgree's corpus) and one to three point mutations of the
// generator's programs that still pass Verify, which the generator
// alone would never build.
func FuzzVerifiedNeverPanics(f *testing.F) {
	guests, err := filepath.Glob("testdata/fuzz/FuzzEnginesAgree/guest-*")
	if err != nil || len(guests) == 0 {
		f.Fatalf("no guest seeds: %v", err)
	}
	for _, path := range guests {
		f.Add(Disassemble(corpusProgram(f, path)), uint64(len(path)))
	}
	for seed := int64(1); seed <= 32; seed++ {
		for _, src := range seedMutants(seed) {
			f.Add(src, uint64(seed))
		}
	}
	f.Fuzz(func(t *testing.T, src string, seed uint64) {
		prog, err := Assemble(src)
		if err != nil || !verified(prog) || len(prog.Funcs) == 0 || len(prog.Funcs) > 64 || prog.Globals > 1<<10 {
			t.Skip()
		}
		for _, fn := range prog.Funcs {
			if fn.NLocals > 1<<10 || len(fn.Code) > 1<<12 {
				t.Skip()
			}
		}
		entry := &prog.Funcs[0]
		if fi, err := prog.FuncIndex("run"); err == nil {
			entry = &prog.Funcs[fi]
		}
		for _, a := range []arm{armInterp, armRegister, armNative} {
			o, err := runOn(a, prog, entry.Name, entryArgs(entry.NArgs, seed), fuzzFuel, false)
			if err == nil {
				err = o.err
			}
			if err != nil && errClass(err) == "unclassified: "+err.Error() {
				t.Fatalf("%s: a verified program ended in %v, not a trap\n%s", a.name, err, Disassemble(prog))
			}
		}
	})
}

// verified reports whether prog passes Validate and has a static stack
// shape in every function: what scan.Verify proves of its code.
func verified(prog *Program) bool {
	if prog.Validate() != nil {
		return false
	}
	for fi := range prog.Funcs {
		if _, err := StackShape(prog, fi); err != nil {
			return false
		}
	}
	return true
}

// seedMutants are the mutants of the generator's program from seed that
// pass Verify, as assembly: one for each of one, two and three points
// where the first of eight tries finds one.
func seedMutants(seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var out []string
	for points := 1; points <= 3; points++ {
		for range 8 {
			if m := mutate(genProgram(rand.New(rand.NewSource(seed))), rng, points); verified(m) {
				out = append(out, Disassemble(m))
				break
			}
		}
	}
	return out
}

// mutate makes points point mutations to m, each in a random function:
// an operand nudged or set to a boundary value, an opcode swapped for
// another the function uses, or an instruction dropped or repeated.
func mutate(m *Program, rng *rand.Rand, points int) *Program {
	for range points {
		f := &m.Funcs[rng.Intn(len(m.Funcs))]
		if len(f.Code) == 0 {
			continue
		}
		code := f.Code
		pc := rng.Intn(len(code))
		switch rng.Intn(5) {
		case 0:
			code[pc].Arg += int64(rng.Intn(5) - 2)
		case 1:
			code[pc].Arg = []int64{0, -1, 1 << 31, 1<<63 - 1, -1 << 63, m.MemSize}[rng.Intn(6)]
		case 2:
			code[pc].Op = code[rng.Intn(len(code))].Op
		case 3:
			code = slices.Delete(code, pc, pc+1)
		default:
			code = slices.Insert(code, pc, code[pc])
		}
		f.Code = code
	}
	return m
}
