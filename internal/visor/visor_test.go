package visor

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"alloystack/internal/asstd"
	"alloystack/internal/asvm"
	"alloystack/internal/blockdev"
	"alloystack/internal/dag"
	"alloystack/internal/fatfs"
	"alloystack/internal/metrics"
)

// testRegistry builds a registry with a small pipeline:
// produce -> double(xN) -> sum.
func testRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()

	r.RegisterNative("produce", func(env *asstd.Env, ctx FuncContext) error {
		n := ctx.ParamInt("count", 4)
		for i := 0; i < int(n); i++ {
			b, err := asstd.NewBuffer(env, Slot("produce", 0, "double", i), 8)
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint64(b.Bytes(), uint64(i+1))
		}
		return nil
	})

	r.RegisterNative("double", func(env *asstd.Env, ctx FuncContext) error {
		in, err := asstd.FromSlot(env, Slot("produce", 0, "double", ctx.Instance))
		if err != nil {
			return err
		}
		v := binary.LittleEndian.Uint64(in.Bytes())
		in.Free()
		out, err := asstd.NewBuffer(env, Slot("double", ctx.Instance, "sum", 0), 8)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(out.Bytes(), v*2)
		return nil
	})

	r.RegisterNative("sum", func(env *asstd.Env, ctx FuncContext) error {
		total := uint64(0)
		n := ctx.ParamInt("count", 4)
		for i := 0; i < int(n); i++ {
			b, err := asstd.FromSlot(env, Slot("double", i, "sum", 0))
			if err != nil {
				return err
			}
			total += binary.LittleEndian.Uint64(b.Bytes())
			b.Free()
		}
		return asstd.Printf(env, "total=%d", total)
	})

	return r
}

func pipelineWorkflow(instances int) *dag.Workflow {
	n := fmt.Sprint(instances)
	return &dag.Workflow{
		Name: "pipeline",
		Functions: []dag.FuncSpec{
			{Name: "produce", Params: map[string]string{"count": n}},
			{Name: "double", DependsOn: []string{"produce"}, Instances: instances,
				Params: map[string]string{"count": n}},
			{Name: "sum", DependsOn: []string{"double"},
				Params: map[string]string{"count": n}},
		},
	}
}

func testOpts(mutate func(*RunOptions)) RunOptions {
	opts := DefaultRunOptions()
	opts.CostScale = 0
	opts.BufHeapSize = 16 << 20
	if mutate != nil {
		mutate(&opts)
	}
	return opts
}

func TestRunWorkflowFanOutFanIn(t *testing.T) {
	v := New(testRegistry(t))
	var out bytes.Buffer
	res, err := v.RunWorkflow(pipelineWorkflow(4), testOpts(func(o *RunOptions) {
		o.Stdout = &out
	}))
	if err != nil {
		t.Fatalf("RunWorkflow: %v", err)
	}
	// 2*(1+2+3+4) = 20.
	if out.String() != "total=20" {
		t.Fatalf("output = %q", out.String())
	}
	if res.E2E <= 0 || res.ColdStart <= 0 {
		t.Fatalf("result = %+v", res)
	}
	if len(res.Stages) != 3 {
		t.Fatalf("stage count = %d", len(res.Stages))
	}
}

func TestRunWorkflowParallelInstancesVary(t *testing.T) {
	v := New(testRegistry(t))
	for _, n := range []int{1, 3, 5} {
		var out bytes.Buffer
		_, err := v.RunWorkflow(pipelineWorkflow(n), testOpts(func(o *RunOptions) {
			o.Stdout = &out
		}))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := fmt.Sprintf("total=%d", n*(n+1))
		if out.String() != want {
			t.Fatalf("n=%d: output = %q, want %q", n, out.String(), want)
		}
	}
}

func TestInvokeRegisteredWorkflow(t *testing.T) {
	v := New(testRegistry(t))
	if err := v.RegisterWorkflow(pipelineWorkflow(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Invoke("pipeline", testOpts(nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Invoke("ghost", testOpts(nil)); !errors.Is(err, ErrUnknownWorkflow) {
		t.Fatalf("unknown workflow: err = %v", err)
	}
}

func TestUnregisteredFunctionFails(t *testing.T) {
	v := New(NewRegistry())
	_, err := v.RunWorkflow(pipelineWorkflow(1), testOpts(nil))
	if !errors.Is(err, ErrUnknownFunction) {
		t.Fatalf("err = %v, want ErrUnknownFunction", err)
	}
}

func TestFunctionErrorAbortsWorkflow(t *testing.T) {
	r := NewRegistry()
	r.RegisterNative("boom", func(env *asstd.Env, ctx FuncContext) error {
		return errors.New("exploded")
	})
	v := New(r)
	w := &dag.Workflow{Name: "w", Functions: []dag.FuncSpec{{Name: "boom"}}}
	if _, err := v.RunWorkflow(w, testOpts(nil)); err == nil || !strings.Contains(err.Error(), "exploded") {
		t.Fatalf("err = %v", err)
	}
}

func TestFunctionPanicIsContained(t *testing.T) {
	r := NewRegistry()
	r.RegisterNative("crash", func(env *asstd.Env, ctx FuncContext) error {
		panic("bug in user code")
	})
	v := New(r)
	w := &dag.Workflow{Name: "w", Functions: []dag.FuncSpec{{Name: "crash"}}}
	_, err := v.RunWorkflow(w, testOpts(nil))
	if err == nil || !strings.Contains(err.Error(), "function fault") {
		t.Fatalf("panic not contained: %v", err)
	}
}

func TestStageWaitAccounted(t *testing.T) {
	r := NewRegistry()
	r.RegisterNative("skew", func(env *asstd.Env, ctx FuncContext) error {
		// Instance 0 finishes immediately; instance 1 busy-waits a bit.
		if ctx.Instance == 1 {
			for i := 0; i < 1_000_000; i++ {
				_ = i * i
			}
		}
		return nil
	})
	v := New(r)
	w := &dag.Workflow{Name: "w", Functions: []dag.FuncSpec{{Name: "skew", Instances: 2}}}
	res, err := v.RunWorkflow(w, testOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Clock.Total(metrics.StageWait) <= 0 {
		t.Fatal("fan-in wait not accounted")
	}
}

// guestAddSrc: a VM-tier function writing instance+instances via stdout.
const guestSrc = `
memory 65536
import proc_stdout 2 1
import buffer_register 4 1
import access_buffer 4 1
import clock_time_get 0 1
data 0 "guest-slot"
func run 2 2 1
  ; write instance number into memory at 100
  push 100
  local.get 0
  push '0'
  add
  store8
  push 100
  push 1
  hostcall proc_stdout
  drop
  push 0
  ret
end
`

func TestVMFunctionTier(t *testing.T) {
	r := NewRegistry()
	prog := asvm.MustAssemble(guestSrc)
	r.RegisterVM("guest", "c", VMFunc{
		Prog:   prog,
		Entry:  "run",
		Engine: asvm.EngineAOT,
	})
	v := New(r)
	var out bytes.Buffer
	w := &dag.Workflow{Name: "w", Functions: []dag.FuncSpec{
		{Name: "guest", Language: "c", Instances: 3},
	}}
	if _, err := v.RunWorkflow(w, testOpts(func(o *RunOptions) { o.Stdout = &out })); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if len(got) != 3 {
		t.Fatalf("guest output = %q", got)
	}
	for _, c := range []string{"0", "1", "2"} {
		if !strings.Contains(got, c) {
			t.Fatalf("instance %s missing from %q", c, got)
		}
	}
}

func TestVMRuntimeImageRead(t *testing.T) {
	// Python-tier model: the runtime image must be read through the
	// LibOS fs before the guest runs.
	dev := blockdev.NewMemDisk(8 << 20)
	fs, err := fatfs.Format(dev, fatfs.MkfsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("PYRT.BIN", make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}

	r := NewRegistry()
	r.RegisterVM("pyfunc", "python", VMFunc{
		Prog:         asvm.MustAssemble(guestSrc),
		Entry:        "run",
		Engine:       asvm.EngineInterp,
		RuntimeImage: "/PYRT.BIN",
	})
	v := New(r)
	w := &dag.Workflow{Name: "w", Functions: []dag.FuncSpec{
		{Name: "pyfunc", Language: "python"},
	}}
	if _, err := v.RunWorkflow(w, testOpts(func(o *RunOptions) { o.DiskImage = dev })); err != nil {
		t.Fatalf("python tier: %v", err)
	}

	// Without the image present, the run must fail loudly.
	r2 := NewRegistry()
	r2.RegisterVM("pyfunc", "python", VMFunc{
		Prog:         asvm.MustAssemble(guestSrc),
		Entry:        "run",
		Engine:       asvm.EngineInterp,
		RuntimeImage: "/MISSING.BIN",
	})
	v2 := New(r2)
	if _, err := v2.RunWorkflow(w, testOpts(func(o *RunOptions) {
		o.DiskImage = blockdev.NewMemDisk(8 << 20)
	})); err == nil {
		t.Fatal("missing runtime image not reported")
	}
}

func TestWatchdogHTTP(t *testing.T) {
	v := New(testRegistry(t))
	if err := v.RegisterWorkflow(pipelineWorkflow(2)); err != nil {
		t.Fatal(err)
	}
	wd := NewWatchdog(v)
	wd.OptionsFor = func(string) RunOptions { return testOpts(nil) }
	addr, err := wd.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer wd.Stop()

	resp, err := http.Post("http://"+addr+"/invoke/pipeline", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var ir InvokeResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	if ir.Workflow != "pipeline" || ir.E2EMillis <= 0 {
		t.Fatalf("response = %+v", ir)
	}
	if wd.Completed() != 1 {
		t.Fatalf("completed = %d", wd.Completed())
	}

	// Unknown workflow -> 404.
	resp2, err := http.Post("http://"+addr+"/invoke/ghost", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost status = %d", resp2.StatusCode)
	}

	// GET is rejected.
	resp3, err := http.Get("http://" + addr + "/invoke/pipeline")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d", resp3.StatusCode)
	}
}

func TestWatchdogConcurrentInvocations(t *testing.T) {
	v := New(testRegistry(t))
	v.RegisterWorkflow(pipelineWorkflow(2))
	wd := NewWatchdog(v)
	wd.OptionsFor = func(string) RunOptions { return testOpts(nil) }
	addr, err := wd.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer wd.Stop()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post("http://"+addr+"/invoke/pipeline", "application/json", nil)
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if wd.Completed() != 8 {
		t.Fatalf("completed = %d", wd.Completed())
	}
}

// TestRunResultCrossings: the visor reports the run's PKRU writes. An
// 8-function chain over the refpass transport crosses on every buffer
// syscall, and under IFI buffers cannot be recycled through the pool, so
// every hop pays an extra free_buffer crossing.
func TestRunResultCrossings(t *testing.T) {
	const length, size = 8, 64 << 10
	name := func(i int) string { return fmt.Sprintf("link-%d", i) }
	r := NewRegistry()
	for i := 0; i < length; i++ {
		i := i
		r.RegisterNative(name(i), func(env *asstd.Env, ctx FuncContext) error {
			tr := env.Transport()
			if i == 0 {
				b, err := tr.Alloc(Slot(name(0), 0, name(1), 0), size)
				if err != nil {
					return err
				}
				return tr.SendBuffer(b)
			}
			data, release, err := tr.Recv(Slot(name(i-1), 0, name(i), 0))
			if err != nil {
				return err
			}
			if i < length-1 {
				out, err := tr.Alloc(Slot(name(i), 0, name(i+1), 0), size)
				if err != nil {
					return err
				}
				copy(out.Bytes(), data)
				if err := tr.SendBuffer(out); err != nil {
					return err
				}
			}
			return release()
		})
	}
	wf := dag.Chain("crossing-chain", length, name, nil)
	run := func(ifi bool) uint64 {
		t.Helper()
		res, err := New(r).RunWorkflow(wf, testOpts(func(o *RunOptions) { o.IFI = ifi }))
		if err != nil {
			t.Fatalf("RunWorkflow(IFI=%v): %v", ifi, err)
		}
		return res.Crossings
	}
	plain, isolated := run(false), run(true)
	if plain == 0 {
		t.Fatal("RunResult.Crossings = 0 for an 8-function refpass chain")
	}
	if plain%2 != 0 || isolated%2 != 0 {
		t.Fatalf("crossings %d / %d: every trampoline is an elevate and a drop", plain, isolated)
	}
	if isolated <= plain {
		t.Fatalf("IFI run reported %d crossings, non-IFI %d; IFI must report more", isolated, plain)
	}
}
