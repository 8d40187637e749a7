package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// goldenPath holds every experiment's counts, one "experiment metric
// value" line each, sorted.
var goldenPath = filepath.Join("testdata", "counts.golden")

var update = flag.Bool("update", false,
	"rewrite testdata/counts.golden with the counts of the experiments this run executes")

// testOpts run experiments at minimum size with injected cost off: the
// gate is on what the code did, not on how long the host took.
func testOpts() Options {
	return Options{Scale: 1.0 / 256, CostScale: 0, Iterations: 1}
}

// shapes is the per-experiment half of TestExperiments: the number of
// table rows, whether -short skips it, and any assertion on the cells.
// Every experiment needs an entry.
var shapes = map[string]struct {
	rows  int
	slow  bool
	check func(*testing.T, *Result)
}{
	"table1": {rows: 9, check: func(t *testing.T, rep *Result) {
		byName := map[string]string{}
		for _, row := range rep.Rows {
			byName[row[0]] = row[1]
		}
		// alu must be minimal (only mm) and online-compiling maximal.
		if byName["alu"] != "mm" {
			t.Errorf("alu modules = %q, want just mm", byName["alu"])
		}
		for _, m := range []string{"mm", "fdtab", "fatfs", "socket", "stdio", "time", "mmap_file_backend"} {
			if !strings.Contains(byName["online-compiling"], m) {
				t.Errorf("online-compiling missing %s: %q", m, byName["online-compiling"])
			}
		}
		if strings.Contains(byName["transform-metadata"], "socket") {
			t.Errorf("transform-metadata loaded socket: %q", byName["transform-metadata"])
		}
	}},
	"fig2": {rows: 4},
	"fig3": {rows: 4},
	"fig10": {rows: 12, check: func(t *testing.T, rep *Result) {
		// The model rows are the cost model times CostScale and nothing
		// else, and testOpts sets 0: cost off must mean nothing charged.
		for _, row := range rep.Rows {
			if row[2] == "model" && row[1] != "0.000" {
				t.Errorf("%s: modelled cold start %s ms at CostScale 0, want 0.000", row[0], row[1])
			}
		}
	}},
	"engines": {rows: 3},
	"fig11": {rows: 5, check: func(t *testing.T, rep *Result) { // 4 sizes + copies row
		// The trailing row reports payload copies from the data-plane
		// counters: zero under reference passing (AS, column 1), at least
		// two via the external store (OpenFaaS, last column).
		copies := rep.Rows[len(rep.Rows)-1]
		if copies[0] != "copies" || len(copies) != 9 {
			t.Fatalf("copies row malformed: %v", copies)
		}
		if copies[1] != "0" {
			t.Errorf("AS refpass copies = %s, want 0", copies[1])
		}
		if n, err := strconv.Atoi(copies[len(copies)-1]); err != nil || n < 2 {
			t.Errorf("OpenFaaS copies = %s, want >=2", copies[len(copies)-1])
		}
	}},
	"fig12":  {rows: 9},
	"fig13":  {rows: 9},
	"fig14":  {rows: 3},
	"fig15":  {rows: 9}, // 3 workloads x 3 systems
	"fig16":  {rows: 3},
	"fig17a": {rows: 4, slow: true},
	"fig17b": {rows: 4, slow: true},
	"table4": {rows: 4},
	"crashresume": {rows: 3, check: func(t *testing.T, rep *Result) {
		// The resume arm must actually skip the committed prefix.
		if got := rep.Rows[2][3]; !strings.Contains(got, "skipped") || strings.Contains(got, "(0 skipped)") {
			t.Errorf("resume arm skipped nothing: %q", got)
		}
	}},
	"obs":       {rows: 2},
	"recovery":  {rows: 2},
	"coldstart": {rows: 2},
	"cluster":   {rows: 3},
}

// TestExperiments runs every experiment of the table once with injected
// cost off, checks the shape of its table, and compares its counts for
// exact equality with the golden. Under -short the load sweeps are
// skipped and so are their golden lines.
//
// Kept out of the counts because they do not repeat exactly:
// crashresume's journal bytes (every record carries a timestamp, so the
// encoded size varies), table4's netstack byte and frame counters (they
// include retransmissions, which timing decides; rx bytes moved once in
// three runs under -race) and obs's retained/dropped traces (the 1%
// sampler hashes trace IDs numbered by a process-wide sequence, so the
// outcome depends on what ran earlier in the process). fig13's guest
// steps are not there because a RunResult does not carry them.
func TestExperiments(t *testing.T) {
	golden := readGolden(t)
	known := map[string]bool{}
	for _, e := range Experiments {
		known[e.ID] = true
		shape, ok := shapes[e.ID]
		if !ok {
			t.Errorf("%s: no entry in shapes", e.ID)
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			if shape.slow && testing.Short() {
				t.Skip("load sweep")
			}
			rep, err := e.Fn(testOpts())
			if err != nil {
				t.Fatal(err)
			}
			if rep.ID != e.ID || rep.Title == "" || len(rep.Header) == 0 {
				t.Fatalf("result misidentified: ID %q title %q header %v", rep.ID, rep.Title, rep.Header)
			}
			if len(rep.Rows) != shape.rows {
				t.Fatalf("rows = %d, want %d", len(rep.Rows), shape.rows)
			}
			for _, row := range rep.Rows {
				if len(row) != len(rep.Header) {
					t.Errorf("row %v has %d cells under a %d-column header", row, len(row), len(rep.Header))
				}
			}
			if shape.check != nil {
				shape.check(t, rep)
			}
			got := rep.Counts()
			if len(got) == 0 {
				t.Fatal("no counts: an experiment the gate cannot see")
			}
			if *update {
				golden[e.ID] = got
				return
			}
			for _, d := range diffCounts(golden[e.ID], got) {
				t.Error(d)
			}
		})
	}
	for id := range golden {
		if !known[id] {
			t.Errorf("%s has lines for %q, which is not in Experiments", goldenPath, id)
		}
	}
	if *update {
		writeGolden(t, golden)
	}
}

// Counts flattens the result's counts into sorted "experiment metric
// value" lines, the golden file's format. It is the only reader of
// Result.counts, so it lives with the only caller it has.
func (r *Result) Counts() []string {
	lines := make([]string, 0, len(r.counts))
	for name, v := range r.counts {
		lines = append(lines, fmt.Sprintf("%s %s %d", r.ID, name, v))
	}
	sort.Strings(lines)
	return lines
}

// readGolden loads the golden's lines grouped by experiment.
func readGolden(t *testing.T) map[string][]string {
	t.Helper()
	blob, err := os.ReadFile(goldenPath)
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	byExp := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(blob)), "\n") {
		if line == "" {
			continue
		}
		id, _, _ := strings.Cut(line, " ")
		byExp[id] = append(byExp[id], line)
	}
	return byExp
}

func writeGolden(t *testing.T, byExp map[string][]string) {
	t.Helper()
	var lines []string
	for _, l := range byExp {
		lines = append(lines, l...)
	}
	sort.Strings(lines)
	if err := os.WriteFile(goldenPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// diffCounts compares two sets of "experiment metric value" lines and
// returns one message per metric that differs, naming the experiment,
// the metric and both values.
func diffCounts(want, got []string) []string {
	split := func(lines []string) map[string]string {
		m := make(map[string]string, len(lines))
		for _, l := range lines {
			i := strings.LastIndexByte(l, ' ')
			m[l[:i]] = l[i+1:]
		}
		return m
	}
	w, g := split(want), split(got)
	var out []string
	for key, wv := range w {
		switch gv, ok := g[key]; {
		case !ok:
			out = append(out, fmt.Sprintf("%s: golden %s, no longer produced", key, wv))
		case gv != wv:
			out = append(out, fmt.Sprintf("%s: golden %s, got %s", key, wv, gv))
		}
	}
	for key, gv := range g {
		if _, ok := w[key]; !ok {
			out = append(out, fmt.Sprintf("%s: got %s, not in golden (go test ./internal/bench -run TestExperiments -update)", key, gv))
		}
	}
	sort.Strings(out)
	return out
}

// One value changed, one line missing, one line extra: each is reported
// with its experiment and metric named.
func TestDiffCounts(t *testing.T) {
	golden := []string{"fig11 copies/AS/4KB 0", "fig11 copies/OpenFaaS/4KB 2", "fig11 crossings/AS/4KB 6"}
	if d := diffCounts(golden, golden); len(d) != 0 {
		t.Fatalf("identical sets differ: %v", d)
	}
	for _, tc := range []struct {
		name string
		got  []string
		want string
	}{
		{"changed", []string{"fig11 copies/AS/4KB 1", golden[1], golden[2]},
			"fig11 copies/AS/4KB: golden 0, got 1"},
		{"missing", []string{golden[0], golden[2]},
			"fig11 copies/OpenFaaS/4KB: golden 2, no longer produced"},
		{"extra", append([]string{"fig11 retries/AS/4KB 3"}, golden...),
			"fig11 retries/AS/4KB: got 3, not in golden"},
	} {
		d := diffCounts(golden, tc.got)
		if len(d) != 1 || !strings.HasPrefix(d[0], tc.want) {
			t.Errorf("%s: diff = %q, want one message starting %q", tc.name, d, tc.want)
		}
	}
}

// What the old millisecond gate existed for, end to end: Figure 14's
// "+both" arm loses reference passing and spills through files instead,
// and every workload's copies/…/both line fails with both values named.
func TestGoldenCatchesCopyingTransport(t *testing.T) {
	both := &fig14Arms[len(fig14Arms)-1]
	both.refPass = false
	defer func() { both.refPass = true }()
	rep, err := Fig14(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	golden := readGolden(t)["fig14"]
	diff := strings.Join(diffCounts(golden, rep.Counts()), "\n")
	checked := 0
	for _, line := range golden {
		key := line[:strings.LastIndexByte(line, ' ')]
		if !strings.HasPrefix(key, "fig14 copies/") || !strings.HasSuffix(key, "/both") {
			continue
		}
		checked++
		if want := fmt.Sprintf("%s: golden %s, got ", key, line[len(key)+1:]); !strings.Contains(diff, want) {
			t.Errorf("diff has no line starting %q:\n%s", want, diff)
		}
	}
	if checked != 3 {
		t.Fatalf("golden has %d fig14 copies/…/both lines, want one per workload", checked)
	}
}

// CostScale has no default: 0 is cost off, not calibrated cost. (That
// the experiments then charge nothing is fig10's shape check.)
func TestCostScaleZeroIsOff(t *testing.T) {
	if got := (Options{}).withDefaults().CostScale; got != 0 {
		t.Fatalf("withDefaults turned CostScale 0 into %v", got)
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{
		ID:     "x",
		Title:  "demo",
		Header: []string{"A", "LongHeader"},
		Rows:   [][]string{{"row1cellthatislong", "1"}},
		Notes:  []string{"a note"},
	}
	s := r.String()
	for _, want := range []string{"== x: demo ==", "LongHeader", "row1cellthatislong", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered report missing %q:\n%s", want, s)
		}
	}
}

// A row wider than the header must render without panicking: extra
// cells get zero padding instead of indexing past the widths slice.
func TestReportRaggedRow(t *testing.T) {
	r := &Report{
		ID:     "ragged",
		Title:  "ragged row",
		Header: []string{"A", "B"},
		Rows:   [][]string{{"1", "2", "surplus", "more"}},
	}
	s := r.String()
	for _, want := range []string{"surplus", "more"} {
		if !strings.Contains(s, want) {
			t.Fatalf("ragged row dropped cell %q:\n%s", want, s)
		}
	}
}

func TestOptionsScaling(t *testing.T) {
	o := Options{Scale: 0.5}.withDefaults()
	if got := o.size(1 << 20); got != 512*1024 {
		t.Fatalf("size = %d", got)
	}
	if got := o.size(100); got != 4096 {
		t.Fatalf("minimum size = %d", got)
	}
	if o.size(1<<20)%8 != 0 {
		t.Fatal("size not 8-byte aligned")
	}
}

func TestMedian(t *testing.T) {
	if median(nil) != 0 {
		t.Fatal("median of empty != 0")
	}
	got := median([]time.Duration{3, 1, 2})
	if got != 2 {
		t.Fatalf("median = %d", got)
	}
}
