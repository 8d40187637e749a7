package asvm

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
)

// wcMapGuest is the WordCount mapper as committed to the fuzz corpus,
// which workloads.TestGuestsSeedEngineFuzzCorpus keeps equal to the
// guest the workloads run (asvm cannot import workloads).
func wcMapGuest(tb testing.TB) *Program {
	b, err := os.ReadFile("testdata/fuzz/FuzzEnginesAgree/guest-wc-map")
	if err != nil {
		tb.Fatal(err)
	}
	lines := strings.Split(string(b), "\n")
	src, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
	if err != nil {
		tb.Fatal(err)
	}
	return MustAssemble(src)
}

// genText is workloads.GenText: size bytes of words from a fixed pool,
// one in twelve followed by a newline, the rest by a space.
func genText(size int, seed int64) []byte {
	r := rand.New(rand.NewSource(seed))
	out := make([]byte, 0, size+16)
	for len(out) < size {
		i := r.Intn(512)
		for j := 0; j < 3+i%8; j++ {
			out = append(out, byte('a'+(i*7+j*13)%26))
		}
		if r.Intn(12) == 0 {
			out = append(out, '\n')
		} else {
			out = append(out, ' ')
		}
	}
	return out[:size]
}

// wordStarts counts the bytes that begin a word, as the mapper does.
func wordStarts(text []byte) (n uint64) {
	prevSpace := true
	for _, c := range text {
		space := c == ' ' || c == '\n' || c == '\t' || c == '\r'
		if !space && prevSpace {
			n++
		}
		prevSpace = space
	}
	return n
}

// mapperBench times the steady-state Call of the real WordCount mapper
// over 16 KiB of seeded text, host calls served from memory. This — and
// the yardstick — is where engine speed is measured; no test compares
// two wall-clock timings.
func mapperBench(b *testing.B, a arm) {
	prog := wcMapGuest(b)
	text := genText(16<<10, 1)
	l := NewLinker()
	for _, imp := range prog.Imports {
		name := imp.Name
		l.Define(name, func(*Instance, []int64) (int64, error) {
			return -1, fmt.Errorf("mapper called unexpected import %s", name)
		})
	}
	var words uint64
	l.Define("slot_size", func(*Instance, []int64) (int64, error) { return int64(len(text)), nil })
	l.Define("slot_recv", func(vm *Instance, args []int64) (int64, error) {
		return int64(len(text)), vm.WriteBytes(args[0], text)
	})
	l.Define("slot_send", func(vm *Instance, args []int64) (int64, error) {
		hist, err := vm.Bytes(args[0], args[1])
		for words = 0; len(hist) >= 8; hist = hist[8:] {
			words += binary.LittleEndian.Uint64(hist)
		}
		return 0, err
	})
	inst, err := l.Instantiate(prog, Config{Engine: a.engine})
	if err != nil {
		b.Fatal(err)
	}
	if a.register {
		registerOnly(inst)
	}
	call := func() {
		if _, err := inst.Call("run", 0, 1); err != nil {
			b.Fatal(err)
		}
	}
	call() // grows guest memory to hold the text, once
	if want := wordStarts(text); words != want {
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

func BenchmarkWcMapInterp(b *testing.B) { mapperBench(b, armInterp) }

// BenchmarkWcMapAOT runs native code where the build has it.
func BenchmarkWcMapAOT(b *testing.B) { mapperBench(b, armNative) }

// BenchmarkWcMapRegister runs the register engine on every build.
func BenchmarkWcMapRegister(b *testing.B) { mapperBench(b, armRegister) }
