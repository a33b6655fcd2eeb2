package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// -compare a.json b.json: a is the parent, b the change.  Per (workload,
// end-to-end metric) it prints both medians with their quartiles and the
// share by which b's median is worse than a's, judged against the metric's
// bound:
//
//	worse       b's median is worse than a's by more than the bound
//	unresolved  the run-to-run spread (quartile distance over median, either
//	            side) exceeds the bound, so the runs cannot tell — never
//	            reported as unchanged — unless every run of b beats every run
//	            of a, which is "better"
//	better      b's median beats a's by more than a's own quartile distance
//	within      anything else
//
// One summary row per workload comes first.  Exact (†) outputs are compared
// through the runs' op-byte digests when both files used the same seed and
// sizes.

type verdict string

const (
	verdictBetter     verdict = "better"
	verdictWithin     verdict = "within"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// comparison is one (workload, metric) cell.
type comparison struct {
	medA, q1A, q3A float64
	medB, q1B, q3B float64
	// worseBy is the share of a's median by which b's median is worse
	// (negative when b is better).
	worseBy float64
	verdict verdict
}

// judge compares the parent's runs a with the change's runs b of one metric.
func judge(m metricSpec, a, b []float64) comparison {
	c := comparison{medA: median(a), medB: median(b)}
	c.q1A, c.q3A = c.medA, c.medA
	c.q1B, c.q3B = c.medB, c.medB
	if len(a) >= 2 {
		c.q1A, c.q3A = quartiles(a)
	}
	if len(b) >= 2 {
		c.q1B, c.q3B = quartiles(b)
	}
	sign := 1.0
	if m.better == "higher" {
		sign = -1
	}
	c.worseBy = sign * (c.medB - c.medA) / c.medA
	spreadA := (c.q3A - c.q1A) / c.medA
	spreadB := (c.q3B - c.q1B) / c.medB

	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case max(spreadA, spreadB) > m.bound:
		c.verdict = verdictUnresolved
		if allBetter {
			c.verdict = verdictBetter
		}
	case c.worseBy > m.bound:
		c.verdict = verdictWorse
	case -c.worseBy > spreadA:
		c.verdict = verdictBetter
	default:
		c.verdict = verdictWithin
	}
	return c
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// untracedValues collects one metric's values over a workload's untraced
// runs.
func (f *benchmarkFile) untracedValues(workload, metric string) []float64 {
	var vs []float64
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Traced {
			if v, ok := r.Metrics[metric]; ok {
				vs = append(vs, v)
			}
		}
	}
	return vs
}

// failures sums a workload's untraced runs' ops and failures (breaches
// included) and collects their digests.
func (f *benchmarkFile) failures(workload string) (attempted, failed int, digests map[string]bool) {
	digests = make(map[string]bool)
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Traced {
			attempted += r.Attempted
			failed += r.Failed + len(r.Breaches)
			digests[r.Digest] = true
		}
	}
	return attempted, failed, digests
}

func (f *benchmarkFile) describe() string {
	return fmt.Sprintf("commit %s, seed %d, %ds, nproc %d, GOMAXPROCS %d, %s, %d runs",
		f.Commit, f.Seed, f.Seconds, f.NProc, f.GOMAXPROCS, f.GoVersion, len(f.Runs))
}

// compareFiles prints the comparison and returns the exit code: 1 when any
// cell is worse, any op failed, or exact outputs differ.
func compareFiles(pathA, pathB string, w io.Writer) int {
	a, errA := readBenchmarkFile(pathA)
	b, errB := readBenchmarkFile(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "udcbench:", err)
		return 1
	}
	return compareSets(a, b, w)
}

func compareSets(a, b *benchmarkFile, w io.Writer) int {
	fmt.Fprintf(w, "a: %s\nb: %s\n", a.describe(), b.describe())
	sameInputs := a.Seed == b.Seed && a.Sizes == b.Sizes
	code := 0

	var detail strings.Builder
	fmt.Fprintf(w, "\n%-16s", "workload")
	for _, m := range endToEnd {
		fmt.Fprintf(w, " %-18s", m.name)
	}
	fmt.Fprintf(w, " %-10s %s\n", "fail_ratio", "exact outputs")
	for _, spec := range workloads {
		fmt.Fprintf(w, "%-16s", spec.name)
		for _, m := range endToEnd {
			va, vb := a.untracedValues(spec.name, m.name), b.untracedValues(spec.name, m.name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, " %-18s", "no runs")
				continue
			}
			c := judge(m, va, vb)
			if c.verdict == verdictWorse {
				code = 1
			}
			fmt.Fprintf(w, " %-18s", fmt.Sprintf("%s %+.1f%%", c.verdict, 100*c.worseBy))
			fmt.Fprintf(&detail, "%-16s %-18s a %.4g [%.4g, %.4g] n=%d   b %.4g [%.4g, %.4g] n=%d   worse by %+.2f%% of bound %.0f%%: %s\n",
				spec.name, m.name, c.medA, c.q1A, c.q3A, len(va), c.medB, c.q1B, c.q3B, len(vb), 100*c.worseBy, 100*m.bound, c.verdict)
		}
		attA, failA, digA := a.failures(spec.name)
		attB, failB, digB := b.failures(spec.name)
		if failA+failB > 0 {
			code = 1
		}
		fmt.Fprintf(w, " %-10.4g", float64(failA+failB)/float64(max(attA+attB, 1)))
		exact := "not comparable (seed or sizes differ)"
		if sameInputs {
			exact = "agree"
			for d := range digA {
				if !digB[d] || len(digA) != 1 || len(digB) != 1 {
					exact = "DIFFER"
					code = 1
				}
			}
		}
		fmt.Fprintf(w, " %s\n", exact)
	}
	fmt.Fprintf(w, "\nmedian [q1, q3] per (workload, metric); every run of both files is counted:\n%s", detail.String())
	return code
}
