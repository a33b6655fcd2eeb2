// Knowledge-extraction example: a walk-through of the paper's central
// knowledge-theoretic argument, driven end to end by the registry's named
// extraction pipeline (no hand-rolled workload specs).  It executes a shrunk
// sample of the kx-perfect pipeline — simulate the strong-detector UDC
// workload, index the runs into the interned epistemic system, apply the
// Theorem 3.6 construction, check the extracted detector — and then uses the
// pipeline's system to
//
//  1. evaluate Proposition 3.5's performance condition at every do event
//     (the performer knows the action was initiated, and some correct process
//     knows it too), and
//  2. show how each process's knowledge of crashes, {q : K_p crash(q)},
//     evolves over one run,
//
// before reporting the extracted detector's verdict: it is perfect even
// though the detector the protocol actually used was only strong (it falsely
// suspected correct processes).
//
// Run with:
//
//	go run ./examples/knowledge-extraction
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/epistemic"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "knowledge-extraction:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) error {
	// The catalogued pipeline, shrunk from its standing 64-run sample so the
	// walk-through stays quick.
	sc := registry.MustExtraction("kx-perfect")
	ext := sc.Extraction
	ext.Runs = 10

	fmt.Fprintf(w, "running pipeline %s: %d runs of the strong-detector UDC workload (n=%d)...\n",
		ext.Name, ext.Runs, ext.Source.N)
	result, err := workload.Runner{}.Extract(ext)
	if err != nil {
		return err
	}
	sys := result.System
	fmt.Fprintf(w, "system: %d runs kept (%d excluded), %d processes; index: %d classes over %d points\n\n",
		result.Kept, result.Excluded, sys.N(), result.Stats.Classes, result.Stats.Points)

	// 1. Proposition 3.5's performance condition.
	observations, violations := core.CheckPerformanceKnowledge(sys)
	fmt.Fprintf(w, "Proposition 3.5 check: %d do events inspected, %d violations\n", len(observations), len(violations))
	if len(violations) > 0 {
		return fmt.Errorf("knowledge condition violated: %v", violations[0])
	}
	fmt.Fprintln(w, "  at every do event the performer knew the action had been initiated,")
	fmt.Fprintln(w, "  and some correct process knew it as well.")

	// 2. Knowledge of crashes over time in run 0.
	r := sys.RunAt(0)
	fmt.Fprintf(w, "\nknowledge of crashes in run 0 (faulty set %s):\n", r.Faulty())
	fmt.Fprintf(w, "%-6s", "time")
	for p := model.ProcID(0); int(p) < sys.N(); p++ {
		fmt.Fprintf(w, " K_%d-knows     ", p)
	}
	fmt.Fprintln(w)
	for _, m := range []int{0, 40, 80, 120, 200, r.Horizon} {
		fmt.Fprintf(w, "%-6d", m)
		for p := model.ProcID(0); int(p) < sys.N(); p++ {
			if r.CrashedBy(p, m) {
				fmt.Fprintf(w, " %-14s", "(crashed)")
				continue
			}
			known := sys.KnownCrashed(p, epistemic.Point{Run: 0, Time: m})
			fmt.Fprintf(w, " %-14s", known.String())
		}
		fmt.Fprintln(w)
	}

	// 3. Theorem 3.6: the extracted detector is perfect.
	falseSuspicions := 0
	for _, run := range sys.Runs() {
		falseSuspicions += len(fd.CheckStrongAccuracy(run))
	}
	fmt.Fprintf(w, "\nthe detector the protocol actually used produced %d false suspicions across the system\n", falseSuspicions)

	fmt.Fprintln(w, "applying construction P1-P3 of Theorem 3.6 (reports = {q : K_p crash(q)}):")
	fmt.Fprintf(w, "  property violations across %d transformed runs: %d\n", len(result.Verdicts), result.TotalViolations())
	if !result.OK() {
		return fmt.Errorf("simulated detector is not perfect")
	}
	fmt.Fprintln(w, "  => the system simulates a perfect failure detector, as Theorem 3.6 predicts")
	return nil
}
