package workloads

import (
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
// it on every engine and benchmarks the mapper from it. asvm cannot
// import this package, so the test that keeps the files equal to the
// guests lives here.
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
