package workloads

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"testing"

	"alloystack/internal/asvm"
)

// The eleven guest programs seed asvm's differential fuzz target: each
// is committed, as the assembly Disassemble prints, under that target's
// corpus directory, where plain `go test ./internal/asvm` also replays
// it on both engines. asvm cannot import this package, so the test that
// keeps the files equal to the guests lives here.
var updateFuzzCorpus = flag.Bool("update-fuzz-corpus", false,
	"rewrite internal/asvm/testdata/fuzz/FuzzEnginesAgree/guest-* from the guest programs")

var guestCorpus = map[string]*asvm.Program{
	"noops":     NoopsGuest,
	"pipe-send": PipeSendGuest,
	"pipe-recv": PipeRecvGuest,
	"chain":     ChainGuest,
	"split":     SplitGuest,
	"wc-map":    WcMapGuest,
	"relay":     RelayGuest,
	"wc-merge":  WcMergeGuest,
	"ps-sort":   PsSortGuest,
	"ps-verify": PsVerifyRelay,
	"ps-final":  PsFinalGuest,
}

func TestGuestsSeedEngineFuzzCorpus(t *testing.T) {
	dir := filepath.Join("..", "asvm", "testdata", "fuzz", "FuzzEnginesAgree")
	for name, prog := range guestCorpus {
		// FuzzEnginesAgree's input is (assembly, seed); the seed picks the
		// entry arguments.
		want := fmt.Sprintf("go test fuzz v1\nstring(%s)\nuint64(%d)\n", strconv.Quote(asvm.Disassemble(prog)), len(name))
		path := filepath.Join(dir, "guest-"+name)
		if *updateFuzzCorpus {
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Errorf("%s is not guest %s as it assembles today (read: %v); rerun with -update-fuzz-corpus", path, name, err)
		}
	}
}

// mapperBench times the steady-state Call of the real WordCount mapper
// over 16 KiB of seeded text, host calls served from memory. This — and
// the yardstick — is where engine speed is measured; no test compares
// two wall-clock timings.
func mapperBench(b *testing.B, engine asvm.EngineKind) {
	text := GenText(16<<10, 1)
	l := asvm.NewLinker()
	for _, imp := range WcMapGuest.Imports {
		name := imp.Name
		l.Define(name, func(*asvm.Instance, []int64) (int64, error) {
			return -1, fmt.Errorf("mapper called unexpected import %s", name)
		})
	}
	var words uint64
	l.Define("slot_size", func(*asvm.Instance, []int64) (int64, error) { return int64(len(text)), nil })
	l.Define("slot_recv", func(vm *asvm.Instance, args []int64) (int64, error) {
		return int64(len(text)), vm.WriteBytes(args[0], text)
	})
	l.Define("slot_send", func(vm *asvm.Instance, args []int64) (int64, error) {
		hist, err := vm.Bytes(args[0], args[1])
		for words = 0; len(hist) >= 8; hist = hist[8:] {
			words += binary.LittleEndian.Uint64(hist)
		}
		return 0, err
	})
	inst, err := l.Instantiate(WcMapGuest, asvm.Config{Engine: engine})
	if err != nil {
		b.Fatal(err)
	}
	call := func() {
		if _, err := inst.Call("run", 0, 1); err != nil {
			b.Fatal(err)
		}
	}
	call() // grows guest memory to hold the text, once
	var want uint64
	for _, n := range CountWords(text) {
		want += n
	}
	if words != want {
		b.Fatalf("mapper counted %d words, text has %d", words, want)
	}
	steps := inst.Steps()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		call()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(steps), "ns/step")
}

func BenchmarkWcMapInterp(b *testing.B) { mapperBench(b, asvm.EngineInterp) }
func BenchmarkWcMapAOT(b *testing.B)    { mapperBench(b, asvm.EngineAOT) }

// TestNativeSetUpLowersNoGuest holds the AOT lowering to its laziness:
// everything a set-up cycle without guests runs — assembling the guest
// images (package initialisation), RegisterAll, visor.New, workflow
// registration, the admission scan and a native first invoke — leaves
// every guest program unlowered; a guest-tier invoke then lowers exactly
// the programs it instantiates.
func TestNativeSetUpLowersNoGuest(t *testing.T) {
	lowered := func() (names []string) {
		for name, prog := range guestCorpus {
			if prog.Lowered() {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		return names
	}
	if got := lowered(); len(got) != 0 {
		t.Skipf("guests already lowered by an earlier test in this process: %v", got)
	}
	v := newVisor(t)
	wf := FunctionChain(3, 4096, "native")
	if err := v.RegisterWorkflow(wf); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Invoke(wf.Name, runOpts(t, nil)); err != nil {
		t.Fatal(err)
	}
	if got := lowered(); len(got) != 0 {
		t.Fatalf("a native set-up and first invoke lowered %v", got)
	}
	if _, err := v.RunWorkflow(FunctionChain(3, 4096, "c"), runOpts(t, nil)); err != nil {
		t.Fatal(err)
	}
	if got, want := lowered(), []string{"chain"}; !slices.Equal(got, want) {
		t.Fatalf("a C-tier chain lowered %v, want %v", got, want)
	}
}
