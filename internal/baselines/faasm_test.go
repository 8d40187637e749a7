package baselines

import (
	"testing"

	"alloystack/internal/asstd"
	"alloystack/internal/asvm"
	"alloystack/internal/core"
	"alloystack/internal/metrics"
	"alloystack/internal/visor"
	"alloystack/internal/workloads"
)

// substrateInput is what both substrates stage at /INPUT.TXT.
const substrateInput = 8 << 10

// guestData lays out the paths and the slot name the guests below use.
const guestData = asstd.WASISlotImports + `
memory 65536
data 0 "/INPUT.TXT"
data 16 "/OUT.TXT"
data 32 "/NOPE.TXT"
data 48 "slot"
`

// checksumGuestSrc opens the staged input, sizes, reads and closes it,
// and returns the h = 31h + b checksum of its bytes, or -1 if any call
// fails.
const checksumGuestSrc = guestData + `
func run 0 4 1
  hostcall fs_mount
  drop
  push 0
  push 10
  hostcall path_open
  local.set 0
  local.get 0
  push 0
  lt
  jnz fail
  local.get 0
  hostcall fd_size
  local.set 1
  local.get 0
  push 1024
  local.get 1
  hostcall fd_read
  local.get 1
  ne
  jnz fail
  local.get 0
  hostcall fd_close
  jnz fail
  push 0
  local.set 2
  push 0
  local.set 3
sum:
  local.get 2
  local.get 1
  lt
  jz done
  local.get 3
  push 31
  mul
  push 1024
  local.get 2
  add
  load8
  add
  local.set 3
  local.get 2
  push 1
  add
  local.set 2
  jmp sum
done:
  local.get 3
  ret
fail:
  push -1
  ret
end
`

// runGuest instantiates src with its imports bound by bind and returns
// run's result.
func runGuest(t *testing.T, bind func(*asvm.Linker), src string) int64 {
	t.Helper()
	l := asvm.NewLinker()
	bind(l)
	inst, err := l.Instantiate(asvm.MustAssemble(src), asvm.Config{Engine: asvm.EngineAOT})
	if err != nil {
		t.Fatal(err)
	}
	got, err := inst.Call("run")
	if err != nil {
		t.Fatalf("guest trapped: %v", err)
	}
	return got
}

// onLibOS binds AlloyStack's substrate: a WFD whose fatfs image stages
// the input, behind BindWASISlots.
func onLibOS(t *testing.T) func(*asvm.Linker) {
	img, err := workloads.BuildTextImage(substrateInput, false)
	if err != nil {
		t.Fatal(err)
	}
	w, err := core.Instantiate(core.Options{OnDemand: true, BufHeapSize: 8 << 20, DiskImage: img})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Destroy)
	env, err := w.NewEnv("guest")
	if err != nil {
		t.Fatal(err)
	}
	return func(l *asvm.Linker) { asstd.BindWASISlots(l, env, nil, nil) }
}

// onFaasm binds Faasm's substrate, the same input staged as a host file.
func onFaasm(t *testing.T) func(*asvm.Linker) {
	r, _ := newTestRunner(t, SysFaasm, "c", func(c *Config) {
		c.Inputs[workloads.TextInputPath] = workloads.GenText(substrateInput, 42)
	})
	p := &Platform{r: r, ctx: visor.FuncContext{Function: "guest"},
		clock: metrics.NewStageClock(), stats: metrics.NewTransportStats()}
	return func(l *asvm.Linker) { asstd.BindHost(l, faasmHost{p}, nil, nil) }
}

// The same guest, run on AlloyStack's LibOS and on Faasm, reads the same
// staged bytes through the one binder and returns the same checksum.
func TestGuestSubstratesAgree(t *testing.T) {
	libos, faasm := onLibOS(t), onFaasm(t)
	var want int64
	for _, b := range workloads.GenText(substrateInput, 42) {
		want = want*31 + int64(b)
	}
	if got := runGuest(t, libos, checksumGuestSrc); got != want {
		t.Fatalf("LibOS checksum = %d, want %d", got, want)
	}
	if got := runGuest(t, faasm, checksumGuestSrc); got != want {
		t.Fatalf("Faasm checksum = %d, want %d", got, want)
	}
}

// What a Faasm guest cannot do it is refused softly: the guest sees -1,
// as it does for an input nobody staged on either substrate.
func TestFaasmGuestRefusals(t *testing.T) {
	libos, faasm := onLibOS(t), onFaasm(t)
	for _, tc := range []struct {
		name, body string
		libos      bool // also -1 on the LibOS
	}{
		{"path_create", "push 16\n  push 8\n  hostcall path_create", false},
		{"fd_write", "push 0\n  push 10\n  hostcall path_open\n  push 1024\n  push 4\n  hostcall fd_write", false},
		{"buffer_register", "push 48\n  push 4\n  push 1024\n  push 4\n  hostcall buffer_register", false},
		{"access_buffer", "push 48\n  push 4\n  push 1024\n  push 4\n  hostcall access_buffer", false},
		{"unstaged path_open", "hostcall fs_mount\n  drop\n  push 32\n  push 9\n  hostcall path_open", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := guestData + "func run 0 0 1\n  " + tc.body + "\n  ret\nend\n"
			if got := runGuest(t, faasm, src); got != -1 {
				t.Errorf("Faasm: %s = %d, want -1", tc.name, got)
			}
			if tc.libos {
				if got := runGuest(t, libos, src); got != -1 {
					t.Errorf("LibOS: %s = %d, want -1", tc.name, got)
				}
			}
		})
	}
}
