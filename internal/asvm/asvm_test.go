package asvm

import (
	"errors"
	"strings"
	"testing"
)

func instantiate(t testing.TB, src string, cfg Config, hosts map[string]HostFunc) *Instance {
	t.Helper()
	prog, err := Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	l := NewLinker()
	for name, fn := range hosts {
		l.Define(name, fn)
	}
	inst, err := l.Instantiate(prog, cfg)
	if err != nil {
		t.Fatalf("Instantiate: %v", err)
	}
	return inst
}

// engines lists both engines; behavioural tests run on each.
var engines = []EngineKind{EngineInterp, EngineAOT}

const addSrc = `
memory 4096
func add 2 2 1
  local.get 0
  local.get 1
  add
  ret
end
`

func TestArithmetic(t *testing.T) {
	for _, engine := range engines {
		inst := instantiate(t, addSrc, Config{Engine: engine}, nil)
		got, err := inst.Call("add", 40, 2)
		if err != nil || got != 42 {
			t.Fatalf("add(40,2) = %d, %v", got, err)
		}
	}
}

func TestAllBinops(t *testing.T) {
	cases := []struct {
		op   string
		a, b int64
		want int64
	}{
		{"add", 3, 4, 7}, {"sub", 10, 4, 6}, {"mul", 6, 7, 42},
		{"div", 42, 5, 8}, {"rem", 42, 5, 2},
		{"and", 0b1100, 0b1010, 0b1000}, {"or", 0b1100, 0b1010, 0b1110},
		{"xor", 0b1100, 0b1010, 0b0110}, {"shl", 1, 4, 16}, {"shr", -16, 2, -4},
		{"eq", 5, 5, 1}, {"ne", 5, 5, 0}, {"lt", 3, 5, 1}, {"gt", 3, 5, 0},
		{"le", 5, 5, 1}, {"ge", 4, 5, 0},
	}
	for _, c := range cases {
		src := strings.Replace(addSrc, "add\n  ret", c.op+"\n  ret", 1)
		src = strings.Replace(src, "func add", "func f", 1)
		for _, engine := range engines {
			inst := instantiate(t, src, Config{Engine: engine}, nil)
			got, err := inst.Call("f", c.a, c.b)
			if err != nil || got != c.want {
				t.Fatalf("%v: %s(%d,%d) = %d, %v; want %d", engine, c.op, c.a, c.b, got, err, c.want)
			}
		}
	}
}

func TestDivideByZeroTraps(t *testing.T) {
	src := strings.Replace(addSrc, "add\n  ret", "div\n  ret", 1)
	for _, engine := range engines {
		inst := instantiate(t, src, Config{Engine: engine}, nil)
		if _, err := inst.Call("add", 1, 0); !errors.Is(err, ErrDivZero) {
			t.Fatalf("div by zero: err = %v, want ErrDivZero", err)
		}
	}
}

const loopSrc = `
memory 4096
; sum 0..n-1
func sum 1 3 1
  push 0
  local.set 1      ; acc
  push 0
  local.set 2      ; i
loop:
  local.get 2
  local.get 0
  lt
  jz done
  local.get 1
  local.get 2
  add
  local.set 1
  local.get 2
  push 1
  add
  local.set 2
  jmp loop
done:
  local.get 1
  ret
end
`

func TestLoopAndBranches(t *testing.T) {
	for _, engine := range engines {
		inst := instantiate(t, loopSrc, Config{Engine: engine}, nil)
		got, err := inst.Call("sum", 100)
		if err != nil || got != 4950 {
			t.Fatalf("engine %v: sum(100) = %d, %v", engine, got, err)
		}
	}
}

func TestCallsAndRecursion(t *testing.T) {
	src := `
memory 4096
func fib 1 1 1
  local.get 0
  push 2
  lt
  jz rec
  local.get 0
  ret
rec:
  local.get 0
  push 1
  sub
  call fib
  local.get 0
  push 2
  sub
  call fib
  add
  ret
end
`
	for _, engine := range engines {
		inst := instantiate(t, src, Config{Engine: engine}, nil)
		got, err := inst.Call("fib", 15)
		if err != nil || got != 610 {
			t.Fatalf("fib(15) = %d, %v", got, err)
		}
	}
}

func TestCallDepthBounded(t *testing.T) {
	src := `
memory 64
func forever 0 0 0
  call forever
end
`
	for _, engine := range engines {
		inst := instantiate(t, src, Config{Engine: engine}, nil)
		if _, err := inst.Call("forever"); !errors.Is(err, ErrCallDepth) {
			t.Fatalf("infinite recursion: err = %v, want ErrCallDepth", err)
		}
	}
}

func TestFuelBoundsRuntime(t *testing.T) {
	src := `
memory 64
func spin 0 0 0
loop:
  jmp loop
end
`
	inst := instantiate(t, src, Config{Engine: EngineInterp, Fuel: 10_000}, nil)
	if _, err := inst.Call("spin"); !errors.Is(err, ErrFuelExhausted) {
		t.Fatalf("interp spin: err = %v, want ErrFuelExhausted", err)
	}
	inst = instantiate(t, src, Config{Engine: EngineAOT, Fuel: 10_000}, nil)
	if _, err := inst.Call("spin"); !errors.Is(err, ErrFuelExhausted) {
		t.Fatalf("aot spin: err = %v, want ErrFuelExhausted", err)
	}
}

func TestMemoryOps(t *testing.T) {
	src := `
memory 4096
data 100 "hello"
func peek 1 1 1
  local.get 0
  load8
  ret
end
func poke64 2 2 0
  local.get 0
  local.get 1
  store64
  ret
end
func peek64 1 1 1
  local.get 0
  load64
  ret
end
func copy 3 3 0
  local.get 0
  local.get 1
  local.get 2
  mem.copy
  ret
end
`
	for _, engine := range engines {
		inst := instantiate(t, src, Config{Engine: engine}, nil)
		got, err := inst.Call("peek", 101)
		if err != nil || got != 'e' {
			t.Fatalf("peek = %c, %v", rune(got), err)
		}
		if _, err := inst.Call("poke64", 200, -12345); err != nil {
			t.Fatal(err)
		}
		got, err = inst.Call("peek64", 200)
		if err != nil || got != -12345 {
			t.Fatalf("peek64 = %d, %v", got, err)
		}
		if _, err := inst.Call("copy", 300, 100, 5); err != nil {
			t.Fatal(err)
		}
		got, _ = inst.Call("peek", 300)
		if got != 'h' {
			t.Fatalf("mem.copy failed: %c", rune(got))
		}
	}
}

func TestMemoryBoundsChecked(t *testing.T) {
	src := `
memory 4096
func peek 1 1 1
  local.get 0
  load8
  ret
end
`
	for _, engine := range engines {
		inst := instantiate(t, src, Config{Engine: engine}, nil)
		if _, err := inst.Call("peek", 4096); !errors.Is(err, ErrOOB) {
			t.Fatalf("oob load: err = %v, want ErrOOB", err)
		}
		if _, err := inst.Call("peek", -1); !errors.Is(err, ErrOOB) {
			t.Fatalf("negative load: err = %v, want ErrOOB", err)
		}
	}
}

func TestMemGrow(t *testing.T) {
	src := `
memory 4096
func grow 1 1 1
  local.get 0
  mem.grow
  ret
end
func size 0 0 1
  mem.size
  ret
end
`
	for _, engine := range engines {
		inst := instantiate(t, src, Config{Engine: engine, MaxMem: 8192}, nil)
		old, err := inst.Call("grow", 4096)
		if err != nil || old != 4096 {
			t.Fatalf("grow = %d, %v", old, err)
		}
		size, _ := inst.Call("size")
		if size != 8192 {
			t.Fatalf("size after grow = %d", size)
		}
		if _, err := inst.Call("grow", 1); !errors.Is(err, ErrOOB) {
			t.Fatalf("grow past limit: err = %v, want ErrOOB", err)
		}
	}
}

func TestHostCalls(t *testing.T) {
	src := `
memory 4096
import host_double 1 1
import host_log 2 0
data 0 "message"
func run 1 1 1
  push 0
  push 7
  hostcall host_log
  local.get 0
  hostcall host_double
  ret
end
`
	for _, engine := range engines {
		var logged string
		hosts := map[string]HostFunc{
			"host_double": func(vm *Instance, args []int64) (int64, error) {
				return args[0] * 2, nil
			},
			"host_log": func(vm *Instance, args []int64) (int64, error) {
				s, err := vm.ReadString(args[0], args[1])
				logged = s
				return 0, err
			},
		}
		inst := instantiate(t, src, Config{Engine: engine}, hosts)
		got, err := inst.Call("run", 21)
		if err != nil || got != 42 {
			t.Fatalf("run = %d, %v", got, err)
		}
		if logged != "message" {
			t.Fatalf("host_log saw %q", logged)
		}
	}
}

func TestUnlinkedImportFailsInstantiate(t *testing.T) {
	prog := MustAssemble(`
memory 64
import missing 0 0
func f 0 0 0
  hostcall missing
  ret
end
`)
	if _, err := NewLinker().Instantiate(prog, Config{}); !errors.Is(err, ErrUnlinkedHost) {
		t.Fatalf("unlinked import: err = %v, want ErrUnlinkedHost", err)
	}
}

func TestGlobals(t *testing.T) {
	src := `
memory 64
globals 2
func set 1 1 0
  local.get 0
  global.set 0
  ret
end
func get 0 0 1
  global.get 0
  ret
end
`
	for _, engine := range engines {
		inst := instantiate(t, src, Config{Engine: engine}, nil)
		if _, err := inst.Call("set", 99); err != nil {
			t.Fatal(err)
		}
		got, err := inst.Call("get")
		if err != nil || got != 99 {
			t.Fatalf("global round trip = %d, %v", got, err)
		}
	}
}

func TestAssemblerErrors(t *testing.T) {
	cases := map[string]string{
		"unknown mnemonic":         "func f 0 0 0\n  frobnicate\nend",
		"undefined label":          "func f 0 0 0\n  jmp nowhere\nend",
		"unknown function":         "func f 0 0 0\n  call ghost\nend",
		"missing end":              "func f 0 0 0\n  ret",
		"duplicate label":          "func f 0 0 0\nx:\nx:\n  ret\nend",
		"bad local index":          "func f 0 1 0\n  local.get 5\n  ret\nend",
		"instruction outside func": "push 1",
	}
	for name, src := range cases {
		if _, err := Assemble("memory 64\n" + src); err == nil {
			t.Fatalf("%s: assembled without error", name)
		}
	}
}

func TestDataSegments(t *testing.T) {
	prog := MustAssemble(`
memory 4096
data 10 "ab"
data 20 hex ff00aa
func f 0 0 0
  ret
end
`)
	inst, err := NewLinker().Instantiate(prog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mem := inst.Memory()
	if mem[10] != 'a' || mem[11] != 'b' || mem[20] != 0xFF || mem[22] != 0xAA {
		t.Fatalf("data segments not applied: % x", mem[8:24])
	}
}

func TestDataSegmentOutsideMemoryRejected(t *testing.T) {
	_, err := Assemble(`
memory 16
data 15 "abc"
func f 0 0 0
  ret
end
`)
	if !errors.Is(err, ErrValidation) {
		t.Fatalf("oob data segment: err = %v, want ErrValidation", err)
	}
}

func BenchmarkInterpLoop(b *testing.B) {
	inst := instantiate(b, loopSrc, Config{Engine: EngineInterp}, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Call("sum", 10_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAOTLoop(b *testing.B) {
	inst := instantiate(b, loopSrc, Config{Engine: EngineAOT}, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Call("sum", 10_000); err != nil {
			b.Fatal(err)
		}
	}
}
