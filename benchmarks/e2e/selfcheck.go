package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"

	"alloystack/internal/metrics"
)

// The self-check answers the question a benchmark must answer before
// anyone trusts a difference it reports: do two sets of runs of the
// same code agree within the benchmark's own bounds? It runs every
// workload as two interleaved sets A B A B ... of fresh processes (the
// same binary, standing in for a parent and a change) and compares them
// the way a later PR's runs will be compared.

// runOnce runs one end-to-end measurement in a fresh process and parses
// its result line.
func runOnce(exe, workload string, seed int64, seconds float64) (resultLine, error) {
	var res resultLine
	cmd := exec.Command(exe,
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64),
		"-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = append(last[:0], sc.Bytes()...)
	}
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	if !res.Correct {
		return res, fmt.Errorf("%s seed %d: run reported incorrect output", workload, seed)
	}
	return res, nil
}

// worse is how much b is worse than a as a share of a, signed: positive
// when b moved in the metric's bad direction.
func worse(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	rel := (b - a) / math.Abs(a)
	if d.better == "higher" {
		rel = -rel
	}
	return rel
}

// setVerdict compares two sets of one metric on one workload.
type setVerdict struct {
	medA, medB       float64
	gap              float64 // |medB - medA| over medA
	widest           float64 // largest |run - its set's median| over that median
	spreadA, spreadB float64 // quartile spread over median, the driver's steadiness measure
	ok               bool
}

func judge(d metricDef, a, b []float64) setVerdict {
	v := setVerdict{medA: median(a), medB: median(b), spreadA: quartileSpread(a), spreadB: quartileSpread(b)}
	v.gap = math.Abs(worse(d, v.medA, v.medB))
	for _, set := range []struct {
		vals []float64
		med  float64
	}{{a, v.medA}, {b, v.medB}} {
		for _, x := range set.vals {
			if dev := math.Abs(worse(d, set.med, x)); dev > v.widest {
				v.widest = dev
			}
		}
	}
	// Two sets of the same code may differ by half the bound at most, so
	// that a real regression of a full bound still stands out; and no
	// single run may sit further from its set than the bound.
	v.ok = v.gap <= d.bound/2 && v.widest <= d.bound
	return v
}

func runSelfcheck(out io.Writer, n int, seconds float64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# Repeatability self-check\n\n")
	fmt.Fprintf(out, "`go run ./benchmarks/e2e -selfcheck %d -seconds %g`: every workload as two interleaved sets\n", n, seconds)
	fmt.Fprintf(out, "(A B A B ...) of %d fresh processes each, every run on its own seed. A pair passes when the set\n", n)
	fmt.Fprintf(out, "medians differ by at most half the bound and no run strays from its set's median by more than\n")
	fmt.Fprintf(out, "the bound. `spread` is the quartile distance over the median, which the driver holds to the bound.\n\n")
	fmt.Fprintf(out, "Environment: `%+v`, %d CPUs, `GOMAXPROCS=1` in every run.\n\n", metrics.CurrentBuild(), runtime.NumCPU())
	fmt.Fprintf(out, "| workload | metric | median A | median B | gap | widest run | spread A | spread B | bound | verdict |\n")
	fmt.Fprintf(out, "|---|---|---|---|---|---|---|---|---|---|\n")
	failed := 0
	for _, w := range allWorkloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for s := range sets {
				res, err := runOnce(exe, w.name, int64(2*i+s+1), seconds)
				if err != nil {
					return err
				}
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		for _, d := range endToEnd {
			v := judge(d, sets[0][d.name], sets[1][d.name])
			verdict := "ok"
			if !v.ok {
				verdict = "FAIL"
				failed++
			}
			fmt.Fprintf(out, "| %s | %s | %.6g | %.6g | %.2f%% | %.2f%% | %.2f%% | %.2f%% | %.1f%% | %s |\n",
				w.name, d.name, v.medA, v.medB, 100*v.gap, 100*v.widest,
				100*v.spreadA, 100*v.spreadB, 100*d.bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d workload/metric pairs do not repeat within their bounds", failed)
	}
	fmt.Fprintf(out, "\nAll %d workload/metric pairs repeat within their bounds.\n", len(allWorkloads)*len(endToEnd))
	return nil
}
