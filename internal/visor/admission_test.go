package visor

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"alloystack/internal/asvm"
	"alloystack/internal/core"
	"alloystack/internal/dag"
	"alloystack/internal/faults"
	"alloystack/internal/scan"
)

// Adversarial guest images: each violates one invariant the static
// verifier proves at admission. None of them may ever reach an engine.
func badGuests() map[string]*asvm.Program {
	return map[string]*asvm.Program{
		// Branch to an instruction index outside the function.
		"bad-jump": {MemSize: 64, Funcs: []asvm.Func{{
			Name: "run", NArgs: 2, NLocals: 2, Results: 1,
			Code: []asvm.Instr{
				{Op: asvm.OpJmp, Arg: 50},
				{Op: asvm.OpPush, Arg: 0},
				{Op: asvm.OpRet},
			},
		}}},
		// Returns with two values while declaring one result: leaks a
		// value onto the shared stack, skewing the caller's frame.
		"bad-stack": {MemSize: 64, Funcs: []asvm.Func{{
			Name: "run", NArgs: 2, NLocals: 2, Results: 1,
			Code: []asvm.Instr{
				{Op: asvm.OpPush, Arg: 1},
				{Op: asvm.OpPush, Arg: 2},
				{Op: asvm.OpRet},
			},
		}}},
		// Calls a host import outside the WASI allowlist — the ASVM
		// analogue of an embedded syscall instruction.
		"bad-import": {
			MemSize: 64,
			Imports: []asvm.Import{{Name: "raw_mmap", Arity: 1, HasResult: true}},
			Funcs: []asvm.Func{{
				Name: "run", NArgs: 2, NLocals: 2, Results: 1,
				Code: []asvm.Instr{
					{Op: asvm.OpPush, Arg: 0},
					{Op: asvm.OpHost, Arg: 0},
					{Op: asvm.OpRet},
				},
			}},
		},
	}
}

func TestAdmissionRejectsAdversarialGuests(t *testing.T) {
	r := NewRegistry()
	for name, prog := range badGuests() {
		r.RegisterVM(name, "c", VMFunc{Prog: prog, Entry: "run", Engine: asvm.EngineAOT})
	}
	v := New(r)

	rejected := int64(0)
	for name := range badGuests() {
		w := &dag.Workflow{Name: "w-" + name, Functions: []dag.FuncSpec{
			{Name: name, Language: "c"},
		}}
		_, err := v.RunWorkflow(w, testOpts(nil))
		if !errors.Is(err, ErrRejected) {
			t.Fatalf("%s: err = %v, want ErrRejected", name, err)
		}
		rejected++
		if got := v.ScanRejects(); got != rejected {
			t.Fatalf("%s: ScanRejects = %d, want %d", name, got, rejected)
		}
	}

	// The cached verdict still counts each rejected invocation.
	w := &dag.Workflow{Name: "again", Functions: []dag.FuncSpec{
		{Name: "bad-jump", Language: "c"},
	}}
	if _, err := v.RunWorkflow(w, testOpts(nil)); !errors.Is(err, ErrRejected) {
		t.Fatalf("cached verdict: err = %v", err)
	}
	if got := v.ScanRejects(); got != rejected+1 {
		t.Fatalf("cached rejection not counted: ScanRejects = %d", got)
	}
}

func TestAdmissionPassesCleanGuestAndNative(t *testing.T) {
	// The standard test registry (native) plus a clean guest: admission
	// must be invisible to them.
	r := testRegistry(t)
	r.RegisterVM("guest", "c", VMFunc{
		Prog:   asvm.MustAssemble(guestSrc),
		Entry:  "run",
		Engine: asvm.EngineAOT,
	})
	v := New(r)
	var out bytes.Buffer
	w := &dag.Workflow{Name: "w", Functions: []dag.FuncSpec{
		{Name: "guest", Language: "c"},
	}}
	if _, err := v.RunWorkflow(w, testOpts(func(o *RunOptions) { o.Stdout = &out })); err != nil {
		t.Fatalf("clean guest rejected: %v", err)
	}
	if _, err := v.RunWorkflow(pipelineWorkflow(2), testOpts(nil)); err != nil {
		t.Fatalf("native workflow rejected: %v", err)
	}
	if got := v.ScanRejects(); got != 0 {
		t.Fatalf("ScanRejects = %d after clean runs", got)
	}
}

func TestAdmissionCustomAllowlist(t *testing.T) {
	prog := &asvm.Program{
		MemSize: 64,
		Imports: []asvm.Import{{Name: "bespoke_host", Arity: 0, HasResult: true}},
		Funcs: []asvm.Func{{
			Name: "run", NArgs: 2, NLocals: 2, Results: 1,
			Code: []asvm.Instr{
				{Op: asvm.OpHost, Arg: 0},
				{Op: asvm.OpRet},
			},
		}},
	}
	if _, err := scan.Verify(prog, scan.WASIAllowlist()); err == nil {
		t.Fatal("bespoke import unexpectedly on the WASI allowlist")
	}
	r := NewRegistry()
	r.RegisterVM("custom", "c", VMFunc{Prog: prog, Entry: "run", Engine: asvm.EngineAOT})
	v := New(r)
	v.ImportAllowlist = map[string]bool{"bespoke_host": true}
	w := &dag.Workflow{Name: "w", Functions: []dag.FuncSpec{{Name: "custom", Language: "c"}}}
	// Admission must accept under the custom allowlist; execution then
	// fails on the unlinked host, which is not ErrRejected.
	_, err := v.RunWorkflow(w, testOpts(nil))
	if errors.Is(err, ErrRejected) {
		t.Fatalf("custom allowlist not honoured: %v", err)
	}
}

func TestWatchdogScanRejectHTTP(t *testing.T) {
	r := NewRegistry()
	r.RegisterVM("evil", "c", VMFunc{
		Prog:   badGuests()["bad-import"],
		Entry:  "run",
		Engine: asvm.EngineAOT,
	})
	v := New(r)
	if err := v.RegisterWorkflow(&dag.Workflow{
		Name:      "evil-wf",
		Functions: []dag.FuncSpec{{Name: "evil", Language: "c"}},
	}); err != nil {
		t.Fatal(err)
	}
	wd := NewWatchdog(v)
	wd.OptionsFor = func(string) RunOptions { return testOpts(nil) }
	addr, err := wd.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer wd.Stop()

	resp, err := http.Post("http://"+addr+"/invoke/evil-wf", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("status = %d, body %s; want 403", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "admission scan") {
		t.Fatalf("body does not name the admission scan: %s", body)
	}

	mresp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mbody), "alloystack_scan_rejects_total 1") {
		t.Fatalf("metrics missing scan-rejects counter:\n%s", mbody)
	}
}

// Verifier-accepted guests that used to crash the engine through int64
// overflow in a bounds check: inside a WFD the panic was recovered as a
// retryable function fault. They now trap like any other out-of-bounds
// access — a typed guest error, reported once, never retried.
func TestOverflowingGuestTrapsInsteadOfFaulting(t *testing.T) {
	probes := map[string]string{
		"grow": "push 9223372036854775807\n mem.grow\n ret",
		"load": "push 9223372036854775804\n load64\n ret",
		"copy": "push 1\n push 1\n push 9223372036854775807\n mem.copy\n push 0\n ret",
	}
	for name, body := range probes {
		prog := asvm.MustAssemble("memory 64\nfunc run 2 2 1\n " + body + "\nend")
		for _, engine := range []asvm.EngineKind{asvm.EngineInterp, asvm.EngineAOT} {
			r := NewRegistry()
			r.RegisterVM(name, "c", VMFunc{Prog: prog, Entry: "run", Engine: engine})
			w := &dag.Workflow{Name: "w", Functions: []dag.FuncSpec{{Name: name, Language: "c"}}}
			res, err := New(r).RunWorkflow(w, testOpts(func(o *RunOptions) {
				o.Retry = &faults.RetryPolicy{MaxRetries: 3}
			}))
			if !errors.Is(err, asvm.ErrOOB) || errors.Is(err, core.ErrFunctionFault) || errors.Is(err, ErrRejected) {
				t.Errorf("%s on %v: err = %v, want a guest ErrOOB trap past admission", name, engine, err)
			}
			if res != nil && res.Retries != 0 {
				t.Errorf("%s on %v: retried %d times; a trap is not a fault", name, engine, res.Retries)
			}
		}
	}
}

// At CostScale 0 no tier's modelled engine penalty survives: runVM hands
// the engine factor 1, at which it spins nothing (asvm pins that).
func TestScaledFactorIsOneWithoutInjectedCost(t *testing.T) {
	for _, factor := range []float64{0, 1, 1.3, 2.6, 40} {
		if got := scaledFactor(factor, 0); got != 1 {
			t.Errorf("scaledFactor(%v, 0) = %v, want 1", factor, got)
		}
	}
	if got := scaledFactor(2.6, 1); got != 2.6 {
		t.Errorf("scaledFactor(2.6, 1) = %v, want the calibrated factor", got)
	}
	if got := scaledFactor(2.6, 0.5); got != 1.8 {
		t.Errorf("scaledFactor(2.6, 0.5) = %v, want 1.8", got)
	}
}
