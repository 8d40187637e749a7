package asvm

import (
	"errors"
	"testing"
	"unsafe"

	"alloystack/internal/mem"
)

// A declared memory past MaxMem is refused before anything is allocated:
// a size no slice can hold, and one that merely exceeds the limit.
func TestInstantiateRefusesMemoryPastMaxMem(t *testing.T) {
	for _, size := range []string{"4611686018427387904", "2097152"} {
		prog, err := Assemble("memory " + size + "\nfunc run 0 0 1\n  push 0\n  ret\nend\n")
		if err != nil {
			t.Fatalf("memory %s: Assemble: %v", size, err)
		}
		if err := prog.Validate(); err != nil {
			t.Fatalf("memory %s: Validate: %v", size, err)
		}
		for _, engine := range engines {
			inst, err := NewLinker().Instantiate(prog, Config{Engine: engine, MaxMem: 1 << 20})
			if !errors.Is(err, ErrOOB) || inst != nil {
				t.Errorf("%v: memory %s under MaxMem 1 MiB: inst %v, err %v; want ErrOOB", engine, size, inst != nil, err)
			}
		}
	}
}

// recycleSrc starts in the 8 KiB class with room to grow in place, and
// carries a data segment. fill(extra, v) grows memory by extra and
// stores v in every byte; nonzero(extra, from) grows memory by extra and
// counts the non-zero bytes in [from, mem.size).
const recycleSrc = `
memory 5000
data 0 "segment"
func fill 2 3 0
  local.get 0
  mem.grow
  drop
  push 0
  local.set 2
more:
  local.get 2
  mem.size
  lt
  jz done
  local.get 2
  local.get 1
  store8
  local.get 2
  push 1
  add
  local.set 2
  jmp more
done:
  ret
end
func nonzero 2 4 1
  local.get 0
  mem.grow
  drop
  push 0
  local.set 3
  local.get 1
  local.set 2
more:
  local.get 2
  mem.size
  lt
  jz done
  local.get 2
  load8
  jz zero
  local.get 3
  push 1
  add
  local.set 3
zero:
  local.get 2
  push 1
  add
  local.set 2
  jmp more
done:
  local.get 3
  ret
end
`

// neighbourSrc declares a memory in the 16 KiB class, the one recycleSrc
// grows into.
const neighbourSrc = `
memory 12000
func nonzero 1 3 1
  push 0
  local.set 2
more:
  local.get 0
  mem.size
  lt
  jz done
  local.get 0
  load8
  jz zero
  local.get 2
  push 1
  add
  local.set 2
zero:
  local.get 0
  push 1
  add
  local.set 0
  jmp more
done:
  local.get 2
  ret
end
`

// base is the address of the array behind inst's memory.
func base(inst *Instance) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(inst.mem))) }

// A recycled instance is indistinguishable from a fresh one: guests that
// filled their memory, grown in place and into the next size class, are
// released, and the instances that take their arrays — the same program,
// and one whose declared memory is in the neighbouring class — read
// zeros everywhere but their data segment, in declared memory, in
// memory grown into parked capacity and in memory grown into a parked
// array of the next class.
func TestRecycledInstanceIsFresh(t *testing.T) {
	seg := int64(len("segment"))
	for _, engine := range engines {
		prog, neighbour := MustAssemble(recycleSrc), MustAssemble(neighbourSrc)
		// Start from empty 8 and 16 KiB classes, so the arrays the
		// dirty instances park are the ones taken next.
		for range mem.ParkPerClass {
			mem.Take(8 << 10)
			mem.Take(16 << 10)
		}
		cfg := Config{Engine: engine}
		dirty := make([]*Instance, 2)
		for i := range dirty {
			dirty[i] = instantiate(t, recycleSrc, cfg, nil)
		}
		parked := map[uintptr]bool{}
		for _, inst := range dirty {
			for _, extra := range []int64{0, 3000, 8192} { // 5000 → 8000 in place → 16192, next class
				parked[base(inst)] = true
				if _, err := inst.Call("fill", extra, 0xA5); err != nil {
					t.Fatalf("%v: fill(%d): %v", engine, extra, err)
				}
			}
			parked[base(inst)] = true
		}
		for _, inst := range dirty {
			inst.Release()
		}

		fresh, err := NewLinker().Instantiate(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !parked[base(fresh)] {
			t.Fatalf("%v: the instance did not take a parked array", engine)
		}
		if got := string(fresh.Memory()[:seg]); got != "segment" {
			t.Errorf("%v: data segment reads %q", engine, got)
		}
		for _, step := range []struct {
			extra, from int64
			what        string
		}{
			{0, seg, "declared memory"},
			{3000, 5000, "memory grown into parked capacity"},
			{8192, 8000, "memory grown into a parked array of the next class"},
		} {
			if n, err := fresh.Call("nonzero", step.extra, step.from); err != nil || n != 0 {
				t.Errorf("%v: %s: %d non-zero bytes, %v", engine, step.what, n, err)
			}
		}
		if !parked[base(fresh)] {
			t.Errorf("%v: growing past the class did not take a parked array", engine)
		}
		if n, _ := fresh.Call("nonzero", 0, seg); n != 0 {
			t.Errorf("%v: whole grown memory: %d non-zero bytes", engine, n)
		}

		next, err := NewLinker().Instantiate(neighbour, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !parked[base(next)] {
			t.Fatalf("%v: the neighbouring-class instance did not take a parked array", engine)
		}
		if n, err := next.Call("nonzero", 0); err != nil || n != 0 {
			t.Errorf("%v: neighbouring class: %d non-zero bytes, %v", engine, n, err)
		}
		fresh.Release()
		next.Release()
		next.Release() // a second release parks nothing twice
		if len(next.Memory()) != 0 {
			t.Errorf("%v: a released instance still has memory", engine)
		}
	}
}
