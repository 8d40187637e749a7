package workloads

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"alloystack/internal/visor"
	"alloystack/internal/xfer"
)

func newVisor(t *testing.T) *visor.Visor {
	t.Helper()
	reg := visor.NewRegistry()
	RegisterAll(reg)
	return visor.New(reg)
}

func runOpts(t *testing.T, mutate func(*visor.RunOptions)) visor.RunOptions {
	t.Helper()
	o := visor.DefaultRunOptions()
	o.CostScale = 0
	o.BufHeapSize = 256 << 20
	if mutate != nil {
		mutate(&o)
	}
	return o
}

func TestNoOpsWorkflow(t *testing.T) {
	v := newVisor(t)
	res, err := v.RunWorkflow(NoOps(), runOpts(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.E2E <= 0 {
		t.Fatal("no latency measured")
	}
}

func TestPipeNative(t *testing.T) {
	v := newVisor(t)
	for _, size := range []int64{4096, 1 << 20} {
		w := Pipe(size, "native")
		if _, err := v.RunWorkflow(w, runOpts(t, nil)); err != nil {
			t.Fatalf("pipe %d: %v", size, err)
		}
	}
}

func TestPipeNativeFileFallback(t *testing.T) {
	v := newVisor(t)
	img, err := BuildEmptyImage(false)
	if err != nil {
		t.Fatal(err)
	}
	w := Pipe(64*1024, "native")
	_, err = v.RunWorkflow(w, runOpts(t, func(o *visor.RunOptions) {
		o.Transfer = xfer.KindFile
		o.DiskImage = img
	}))
	if err != nil {
		t.Fatalf("pipe via files: %v", err)
	}
}

func TestFunctionChainNative(t *testing.T) {
	v := newVisor(t)
	for _, length := range []int{2, 5, 10} {
		w := FunctionChain(length, 64*1024, "native")
		if _, err := v.RunWorkflow(w, runOpts(t, nil)); err != nil {
			t.Fatalf("chain length %d: %v", length, err)
		}
	}
}

func TestWordCountNative(t *testing.T) {
	v := newVisor(t)
	img, err := BuildTextImage(256*1024, false)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	w := WordCount(3, "native")
	if _, err := v.RunWorkflow(w, runOpts(t, func(o *visor.RunOptions) {
		o.DiskImage = img
		o.Stdout = &out
	})); err != nil {
		t.Fatalf("wordcount: %v", err)
	}
	if !strings.HasPrefix(out.String(), "words=") {
		t.Fatalf("merge output = %q", out.String())
	}
	// The reported total must equal an independent recount.
	text := GenText(256*1024, 42)
	want := uint64(0)
	for _, c := range CountWords(text) {
		want += c
	}
	var got, distinct uint64
	if _, err := fmt.Sscanf(out.String(), "words=%d distinct=%d", &got, &distinct); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("word total = %d, want %d", got, want)
	}
	if distinct == 0 || distinct > got {
		t.Fatalf("distinct = %d", distinct)
	}
}

func TestWordCountNativeInstanceCounts(t *testing.T) {
	v := newVisor(t)
	// The total must be invariant under the parallelism degree.
	totals := map[int]string{}
	for _, n := range []int{1, 2, 5} {
		img, err := BuildTextImage(128*1024, false)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		w := WordCount(n, "native")
		if _, err := v.RunWorkflow(w, runOpts(t, func(o *visor.RunOptions) {
			o.DiskImage = img
			o.Stdout = &out
		})); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		totals[n] = out.String()
	}
	if totals[1] != totals[2] || totals[2] != totals[5] {
		t.Fatalf("instance count changed the answer: %v", totals)
	}
}

func TestWordCountFileFallback(t *testing.T) {
	v := newVisor(t)
	img, err := BuildTextImage(64*1024, false)
	if err != nil {
		t.Fatal(err)
	}
	var refOut, fileOut bytes.Buffer
	w := WordCount(2, "native")
	if _, err := v.RunWorkflow(w, runOpts(t, func(o *visor.RunOptions) {
		o.DiskImage = img
		o.Stdout = &refOut
	})); err != nil {
		t.Fatal(err)
	}
	img2, err := BuildTextImage(64*1024, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.RunWorkflow(w, runOpts(t, func(o *visor.RunOptions) {
		o.DiskImage = img2
		o.Stdout = &fileOut
		o.Transfer = xfer.KindFile
	})); err != nil {
		t.Fatalf("file-mediated wordcount: %v", err)
	}
	if refOut.String() != fileOut.String() {
		t.Fatalf("ablation changed the answer: %q vs %q", refOut.String(), fileOut.String())
	}
}

func TestParallelSortingNative(t *testing.T) {
	v := newVisor(t)
	for _, n := range []int{1, 3} {
		img, err := BuildBinImage(512*1024, false)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		w := ParallelSorting(n, "native")
		if _, err := v.RunWorkflow(w, runOpts(t, func(o *visor.RunOptions) {
			o.DiskImage = img
			o.Stdout = &out
		})); err != nil {
			t.Fatalf("sorting n=%d: %v", n, err)
		}
		want := fmt.Sprintf("sorted=%d\n", 512*1024/8)
		if out.String() != want {
			t.Fatalf("n=%d: output = %q, want %q", n, out.String(), want)
		}
	}
}

func TestParallelSortingRamfs(t *testing.T) {
	v := newVisor(t)
	var out bytes.Buffer
	w := ParallelSorting(3, "native")
	_, err := v.RunWorkflow(w, runOpts(t, func(o *visor.RunOptions) {
		o.Ramfs = BuildBinRamfs(256*1024, false)
		o.Stdout = &out
	}))
	if err != nil {
		t.Fatalf("ramfs sorting: %v", err)
	}
	if out.String() != fmt.Sprintf("sorted=%d\n", 256*1024/8) {
		t.Fatalf("output = %q", out.String())
	}
}

func TestHTTPServerWorkflowReady(t *testing.T) {
	v := newVisor(t)
	// requests=0: the function binds, becomes ready and exits; needs a hub.
	hub := newTestHub(t)
	w := HTTPServer(8080, 0)
	_, err := v.RunWorkflow(w, runOpts(t, func(o *visor.RunOptions) {
		o.Hub = hub.hub
		o.IP = hub.nextIP()
	}))
	if err != nil {
		t.Fatalf("http-server: %v", err)
	}
}

// ---- guest tiers -------------------------------------------------------------

func TestPipeGuestTiers(t *testing.T) {
	v := newVisor(t)
	for _, lang := range []string{"c", "python"} {
		img, err := BuildEmptyImage(lang == "python")
		if err != nil {
			t.Fatal(err)
		}
		w := Pipe(64*1024, lang)
		if _, err := v.RunWorkflow(w, runOpts(t, func(o *visor.RunOptions) {
			o.DiskImage = img
		})); err != nil {
			t.Fatalf("pipe %s: %v", lang, err)
		}
	}
}

func TestFunctionChainGuestTiers(t *testing.T) {
	v := newVisor(t)
	for _, lang := range []string{"c", "python"} {
		img, err := BuildEmptyImage(lang == "python")
		if err != nil {
			t.Fatal(err)
		}
		w := FunctionChain(5, 16*1024, lang)
		if _, err := v.RunWorkflow(w, runOpts(t, func(o *visor.RunOptions) {
			o.DiskImage = img
		})); err != nil {
			t.Fatalf("chain %s: %v", lang, err)
		}
	}
}

func TestWordCountGuestTiers(t *testing.T) {
	v := newVisor(t)
	for _, lang := range []string{"c", "python"} {
		img, err := BuildTextImage(64*1024, lang == "python")
		if err != nil {
			t.Fatal(err)
		}
		w := WordCount(2, lang)
		if _, err := v.RunWorkflow(w, runOpts(t, func(o *visor.RunOptions) {
			o.DiskImage = img
		})); err != nil {
			t.Fatalf("wordcount %s: %v", lang, err)
		}
	}
}

func TestParallelSortingGuestTiers(t *testing.T) {
	v := newVisor(t)
	for _, lang := range []string{"c", "python"} {
		img, err := BuildBinImage(32*1024, lang == "python")
		if err != nil {
			t.Fatal(err)
		}
		w := ParallelSorting(2, lang)
		if _, err := v.RunWorkflow(w, runOpts(t, func(o *visor.RunOptions) {
			o.DiskImage = img
		})); err != nil {
			t.Fatalf("sorting %s: %v", lang, err)
		}
	}
}

// ---- codec unit tests -----------------------------------------------------------

func TestCountsCodecRoundTrip(t *testing.T) {
	in := map[string]uint64{"alpha": 3, "beta": 1, "gamma gamma": 7, "": 2}
	out := make(map[string]uint64)
	if err := DecodeCountsInto(out, EncodeCounts(in)); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d entries", len(out))
	}
	for w, c := range in {
		if out[w] != c {
			t.Fatalf("word %q: %d != %d", w, out[w], c)
		}
	}
}

func TestDecodeCountsTruncated(t *testing.T) {
	data := EncodeCounts(map[string]uint64{"word": 1})
	if err := DecodeCountsInto(map[string]uint64{}, data[:len(data)-3]); err == nil {
		t.Fatal("truncated decode succeeded")
	}
}

func TestCountWords(t *testing.T) {
	counts := CountWords([]byte("the quick the\nquick the\t "))
	if counts["the"] != 3 || counts["quick"] != 2 || len(counts) != 2 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestSplitTextChunksPreservesWords(t *testing.T) {
	text := GenText(100_000, 1)
	chunks := SplitTextChunks(text, 7)
	if len(chunks) != 7 {
		t.Fatalf("chunk count = %d", len(chunks))
	}
	whole := CountWords(text)
	merged := make(map[string]uint64)
	for _, c := range chunks {
		for w, n := range CountWords(c) {
			merged[w] += n
		}
	}
	if len(whole) != len(merged) {
		t.Fatalf("distinct words differ: %d vs %d", len(whole), len(merged))
	}
	for w, n := range whole {
		if merged[w] != n {
			t.Fatalf("word %q split across chunks: %d vs %d", w, n, merged[w])
		}
	}
}

func TestPivotChunkCodec(t *testing.T) {
	pivots := []uint64{10, 20, 30}
	chunk := U64sToBytes([]uint64{5, 15, 25, 35})
	p2, c2, err := DecodePivotChunk(EncodePivotChunk(pivots, chunk))
	if err != nil {
		t.Fatal(err)
	}
	if len(p2) != 3 || p2[1] != 20 {
		t.Fatalf("pivots = %v", p2)
	}
	if !bytes.Equal(c2, chunk) {
		t.Fatal("chunk corrupted")
	}
}

func TestMergeSortedRuns(t *testing.T) {
	runs := [][]uint64{{1, 4, 7}, {2, 5}, {}, {3, 6, 8, 9}}
	got := MergeSortedRuns(runs)
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("merge output unsorted at %d: %v", i, got)
		}
	}
	if len(got) != 9 || got[0] != 1 || got[8] != 9 {
		t.Fatalf("merge = %v", got)
	}
}

func TestPickPivotsOrdered(t *testing.T) {
	vals := BytesToU64s(GenU64s(80_000, 3))
	pivots := PickPivots(vals, 5)
	if len(pivots) != 4 {
		t.Fatalf("pivot count = %d", len(pivots))
	}
	for i := 1; i < len(pivots); i++ {
		if pivots[i] < pivots[i-1] {
			t.Fatalf("pivots unsorted: %v", pivots)
		}
	}
}

// testHub hands out unique IPs on a shared hub.
type testHub struct {
	hub  *netHub
	next byte
}

func newTestHub(t *testing.T) *testHub {
	return &testHub{hub: newNetHub(), next: 1}
}

func (h *testHub) nextIP() netAddr {
	ip := netIP(10, 50, 0, h.next)
	h.next++
	return ip
}
