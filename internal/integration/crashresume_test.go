// Crash-resume harness: the one test in the repo that actually kills
// the process. The parent re-execs its own test binary as a child that
// runs a durable 4-stage workflow with a seeded crashpoint wired to
// os.Exit; the parent then resumes the run from the journal in a second
// child and proves the three durability contracts end to end:
//
//  1. a resume never re-executes a committed stage (host-side
//     execution-count files survive both processes),
//  2. the resumed run's final export is byte-identical to an
//     uncrashed run's, and
//  3. the resumed run's stage/function trace shape matches the
//     uncrashed run's tail from the committed prefix onward.
package integration

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"alloystack/internal/asstd"
	"alloystack/internal/dag"
	"alloystack/internal/faults"
	"alloystack/internal/journal"
	"alloystack/internal/trace"
	"alloystack/internal/visor"
)

const crashExitCode = 42

// crashWorkflow is the 4-stage DAG the matrix runs: gen -> fan(x2) ->
// join -> fin, with fin's output exported. Expected value:
// ((3*5)+(4*5))*7 = 245.
func crashWorkflow() *dag.Workflow {
	return &dag.Workflow{
		Name: "crash-wf",
		Functions: []dag.FuncSpec{
			{Name: "gen"},
			{Name: "fan", Instances: 2, DependsOn: []string{"gen"}},
			{Name: "join", DependsOn: []string{"fan"}},
			{Name: "fin", DependsOn: []string{"join"}},
		},
	}
}

// bump appends one byte to a per-instance count file. The files live
// outside the dying process, so summing their sizes across the crash
// run and the resume run counts true executions.
func bump(dir, fn string, instance int) error {
	f, err := os.OpenFile(
		filepath.Join(dir, fmt.Sprintf("%s-%d", fn, instance)),
		os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("x")); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func crashRegistry(countsDir string) *visor.Registry {
	r := visor.NewRegistry()
	r.RegisterNative("gen", func(env *asstd.Env, ctx visor.FuncContext) error {
		if err := bump(countsDir, ctx.Function, ctx.Instance); err != nil {
			return err
		}
		for i := 0; i < 2; i++ {
			b, err := asstd.NewBuffer(env, visor.Slot("gen", 0, "fan", i), 8)
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint64(b.Bytes(), uint64(i+3))
		}
		return nil
	})
	r.RegisterNative("fan", func(env *asstd.Env, ctx visor.FuncContext) error {
		if err := bump(countsDir, ctx.Function, ctx.Instance); err != nil {
			return err
		}
		in, err := asstd.FromSlot(env, visor.Slot("gen", 0, "fan", ctx.Instance))
		if err != nil {
			return err
		}
		v := binary.LittleEndian.Uint64(in.Bytes())
		in.Free()
		out, err := asstd.NewBuffer(env, visor.Slot("fan", ctx.Instance, "join", 0), 8)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(out.Bytes(), v*5)
		return nil
	})
	r.RegisterNative("join", func(env *asstd.Env, ctx visor.FuncContext) error {
		if err := bump(countsDir, ctx.Function, ctx.Instance); err != nil {
			return err
		}
		total := uint64(0)
		for i := 0; i < 2; i++ {
			b, err := asstd.FromSlot(env, visor.Slot("fan", i, "join", 0))
			if err != nil {
				return err
			}
			total += binary.LittleEndian.Uint64(b.Bytes())
			b.Free()
		}
		out, err := asstd.NewBuffer(env, visor.Slot("join", 0, "fin", 0), 8)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(out.Bytes(), total)
		return nil
	})
	r.RegisterNative("fin", func(env *asstd.Env, ctx visor.FuncContext) error {
		if err := bump(countsDir, ctx.Function, ctx.Instance); err != nil {
			return err
		}
		in, err := asstd.FromSlot(env, visor.Slot("join", 0, "fin", 0))
		if err != nil {
			return err
		}
		v := binary.LittleEndian.Uint64(in.Bytes())
		in.Free()
		out, err := asstd.NewBuffer(env, visor.Slot("fin", 0, "out", 0), 8)
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(out.Bytes(), v*7)
		return nil
	})
	return r
}

// childResult is what a successful child run reports back to the
// parent through a JSON file in the journal directory.
type childResult struct {
	RunID         string `json:"run_id"`
	Resumed       bool   `json:"resumed"`
	StagesSkipped int    `json:"stages_skipped"`
	Verdict       string `json:"verdict"`
	Export        []byte `json:"export"`
	Fingerprint   string `json:"fingerprint"`
}

// TestCrashResumeChild is the re-exec target. It only runs when
// spawned by the matrix (the env var gates it) and either dies at the
// seeded crashpoint with exit code 42 or writes its result JSON.
func TestCrashResumeChild(t *testing.T) {
	dir := os.Getenv("CRASHRESUME_DIR")
	if dir == "" {
		t.Skip("re-exec child: spawned by TestCrashResumeMatrix")
	}
	countsDir := os.Getenv("CRASHRESUME_COUNTS")
	point := os.Getenv("CRASHRESUME_POINT")
	resume := os.Getenv("CRASHRESUME_RESUME")
	outPath := os.Getenv("CRASHRESUME_OUT")

	store, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New("child", trace.Options{})
	opts := visor.DefaultRunOptions()
	opts.CostScale = 0
	opts.BufHeapSize = 16 << 20
	opts.Trace = tr
	opts.Journal = store
	opts.ExportSlots = []string{visor.Slot("fin", 0, "out", 0)}
	opts.Resume = resume
	if point != "" {
		opts.Faults = faults.NewPlan(1, faults.Crash{Point: point})
	}
	// The real thing: a crashpoint kills the process, no deferred
	// cleanup, no sealing. Only the fsync'd journal survives.
	opts.CrashFn = func(string) { os.Exit(crashExitCode) }

	v := visor.New(crashRegistry(countsDir))
	res, err := v.RunWorkflow(crashWorkflow(), opts)
	if err != nil {
		t.Fatalf("child run: %v", err)
	}
	out, err := json.Marshal(childResult{
		RunID:         res.RunID,
		Resumed:       res.Resumed,
		StagesSkipped: res.StagesSkipped,
		Verdict:       res.Verdict,
		Export:        res.Exports[visor.Slot("fin", 0, "out", 0)],
		Fingerprint:   tr.Fingerprint(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(outPath, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// runChild re-execs the test binary against TestCrashResumeChild and
// returns the process exit code and the parsed result (nil when the
// child died before writing one).
func runChild(t *testing.T, dir, countsDir, point, resume string) (int, *childResult) {
	t.Helper()
	outPath := filepath.Join(dir, "result.json")
	os.Remove(outPath)
	cmd := exec.Command(os.Args[0], "-test.run=TestCrashResumeChild$", "-test.count=1")
	cmd.Env = append(os.Environ(),
		"CRASHRESUME_DIR="+dir,
		"CRASHRESUME_COUNTS="+countsDir,
		"CRASHRESUME_POINT="+point,
		"CRASHRESUME_RESUME="+resume,
		"CRASHRESUME_OUT="+outPath,
	)
	outBytes, err := cmd.CombinedOutput()
	code := 0
	if err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("child exec: %v\n%s", err, outBytes)
		}
		code = ee.ExitCode()
	}
	data, rerr := os.ReadFile(outPath)
	if rerr != nil {
		return code, nil
	}
	var res childResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("child result: %v\n%s", err, outBytes)
	}
	return code, &res
}

// readCounts sums execution counts per function instance.
func readCounts(t *testing.T, dir string) map[string]int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		counts[e.Name()] = int(info.Size())
	}
	return counts
}

var (
	stageLineRe = regexp.MustCompile(`^stage:.*>stage-(\d+)$`)
	funcLineRe  = regexp.MustCompile(`^func:stage-(\d+)>`)
)

// stageTail filters a trace fingerprint down to the stage and function
// span lines for stages >= from — the structural shape of "the run
// from stage k onward", invariant across crash/resume process splits.
func stageTail(fp string, from int) []string {
	var out []string
	for _, line := range strings.Split(fp, "\n") {
		var m []string
		if m = stageLineRe.FindStringSubmatch(line); m == nil {
			m = funcLineRe.FindStringSubmatch(line)
		}
		if m == nil {
			continue
		}
		if si, _ := strconv.Atoi(m[1]); si >= from {
			out = append(out, line)
		}
	}
	sort.Strings(out)
	return out
}

// crashPoint describes one matrix cell: where the child dies and what
// the journal must prove afterwards.
type crashPoint struct {
	point     string
	committed int  // expected committed prefix in the journal post-crash
	reruns    bool // the crashed stage ran but never committed: resume re-executes it
	stage     int
}

func TestCrashResumeMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec harness")
	}

	// Uncrashed baseline: export bytes and trace shape to compare
	// every resumed run against. Run through the same child harness so
	// both sides see identical process granularity.
	baseDir, baseCounts := t.TempDir(), t.TempDir()
	code, baseline := runChild(t, baseDir, baseCounts, "", "")
	if code != 0 || baseline == nil {
		t.Fatalf("baseline child: exit %d, result %v", code, baseline)
	}
	if got := binary.LittleEndian.Uint64(baseline.Export); got != 245 {
		t.Fatalf("baseline export = %d, want 245", got)
	}

	// Before, at, and after each barrier of the 4-stage DAG.
	var matrix []crashPoint
	for si := 0; si < 4; si++ {
		matrix = append(matrix,
			crashPoint{point: fmt.Sprintf("before-stage:%d", si), committed: si, stage: si},
			crashPoint{point: fmt.Sprintf("after-stage:%d", si), committed: si, reruns: true, stage: si},
			crashPoint{point: fmt.Sprintf("after-commit:%d", si), committed: si + 1, stage: si},
		)
	}

	for _, cp := range matrix {
		cp := cp
		t.Run(cp.point, func(t *testing.T) {
			t.Parallel()
			dir, countsDir := t.TempDir(), t.TempDir()

			code, res := runChild(t, dir, countsDir, cp.point, "")
			if code != crashExitCode {
				t.Fatalf("crash child exit = %d, want %d", code, crashExitCode)
			}
			if res != nil {
				t.Fatal("crashed child wrote a result")
			}

			// The journal survived the kill: unsealed, not failed, with
			// the expected committed prefix.
			store, err := journal.Open(dir, journal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sums, err := store.List()
			if err != nil || len(sums) != 1 {
				t.Fatalf("List = %v, %v", sums, err)
			}
			id := sums[0].ID
			st, err := store.Load(id)
			if err != nil {
				t.Fatal(err)
			}
			if st.Sealed || st.Failed {
				t.Fatalf("post-crash state sealed=%v failed=%v", st.Sealed, st.Failed)
			}
			if got := st.CommittedPrefix(); got != cp.committed {
				t.Fatalf("committed prefix = %d, want %d", got, cp.committed)
			}

			// Resume in a second process.
			code, rres := runChild(t, dir, countsDir, "", id)
			if code != 0 || rres == nil {
				t.Fatalf("resume child exit = %d, result %v", code, rres)
			}
			if !rres.Resumed || rres.Verdict != "ok" {
				t.Fatalf("resume result = %+v", rres)
			}
			if rres.StagesSkipped != cp.committed {
				t.Fatalf("stages skipped = %d, want %d", rres.StagesSkipped, cp.committed)
			}

			// Contract 2: final output byte-identical to the uncrashed run.
			if !reflect.DeepEqual(rres.Export, baseline.Export) {
				t.Fatalf("resumed export %x != baseline %x", rres.Export, baseline.Export)
			}

			// Contract 1: committed stages never re-execute. Every
			// instance runs exactly once across both processes — except
			// the crashed-but-uncommitted stage, which legitimately runs
			// again on resume.
			want := map[string]int{"gen-0": 1, "fan-0": 1, "fan-1": 1, "join-0": 1, "fin-0": 1}
			if cp.reruns {
				switch cp.stage {
				case 0:
					want["gen-0"] = 2
				case 1:
					want["fan-0"], want["fan-1"] = 2, 2
				case 2:
					want["join-0"] = 2
				case 3:
					want["fin-0"] = 2
				}
			}
			if got := readCounts(t, countsDir); !reflect.DeepEqual(got, want) {
				t.Fatalf("execution counts = %v, want %v (committed stage re-executed?)", got, want)
			}

			// Contract 3: the resumed run's stage/function trace shape is
			// exactly the uncrashed run's tail from the committed prefix.
			if got, wantTail := stageTail(rres.Fingerprint, cp.committed),
				stageTail(baseline.Fingerprint, cp.committed); !reflect.DeepEqual(got, wantTail) {
				t.Fatalf("resume trace tail:\n%v\nwant (baseline tail from stage %d):\n%v",
					got, cp.committed, wantTail)
			}

			// The flight-recorder satellite: pre-crash spans survive in
			// the journal directory's flight log.
			flight, err := os.ReadFile(store.FlightPath(id))
			if cp.committed > 0 {
				if err != nil {
					t.Fatalf("flight log: %v", err)
				}
				if !strings.Contains(string(flight), "crashpoint") {
					t.Fatalf("flight log has no crashpoint dump:\n%s", flight)
				}
			}
		})
	}
}
