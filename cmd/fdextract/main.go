// Command fdextract demonstrates Theorems 3.6 and 4.3: it executes a named
// knowledge-extraction pipeline from the registry catalog — simulate a
// UDC-attaining workload over many seeds, index the recorded runs into an
// epistemic system, apply the knowledge-based construction f (perfect
// detector) or f' (t-useful generalized detector), and verify the extracted
// detector's properties against ground truth.  All stages distribute over a
// worker pool with results byte-identical to a serial execution.
//
// Usage:
//
//	fdextract -scenario kx-perfect -workers 4
//	fdextract -scenario kx-tuseful -runs 32
//	fdextract -scenario kx-perfect -adversary cascade
//	fdextract -scenario kx-perfect -o simulated.bin -format bin
//	fdextract -remote http://127.0.0.1:8080 -scenario kx-perfect
//	fdextract -list-scenarios
//
// With -o the transformed runs (the extracted detector's simulated system)
// are written to a file in the binary System container or as a JSON array.
// With -remote the pipeline is served by a udcd daemon — cached and
// coalesced — instead of executing locally; verdicts are identical either
// way.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fdextract:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	var (
		scenario      string
		adversary     string
		workers       int
		runs          int
		seed          int64
		listScenarios bool
		outPath       string
		format        string
		remote        string
		wire          string
	)
	fs := flag.NewFlagSet("fdextract", flag.ContinueOnError)
	fs.StringVar(&scenario, "scenario", "kx-perfect",
		"extraction pipeline: "+strings.Join(registry.ExtractionNames(), " | "))
	fs.StringVar(&adversary, "adversary", "",
		"fault/network schedule: "+strings.Join(registry.AdversaryNames(), " | ")+" (overrides the scenario's schedule)")
	fs.IntVar(&workers, "workers", 0, "parallel pipeline workers (0 = GOMAXPROCS)")
	fs.IntVar(&runs, "runs", 0, "number of sampled runs (0 = the scenario's standing sample size)")
	fs.Int64Var(&seed, "seed", 0, "first sampling seed (0 = the scenario's standing base seed)")
	fs.BoolVar(&listScenarios, "list-scenarios", false, "list the catalogued extraction pipelines and exit")
	fs.StringVar(&outPath, "o", "", "write the transformed runs (the simulated detector's system) to this file in -format")
	fs.StringVar(&format, "format", store.FormatAuto, "run file format for -o: bin | json | auto (bin)")
	fs.StringVar(&remote, "remote", "", "udcd base URL: serve the pipeline from the daemon instead of executing locally (incompatible with -o and -workers)")
	fs.StringVar(&wire, "wire", "bin", "with -remote: response wire format, bin (the store's codec container, decoded locally) or json")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if listScenarios {
		for _, sc := range registry.Extractions() {
			fmt.Fprintf(w, "%-28s %s\n", sc.Name, sc.Description)
		}
		return nil
	}

	if remote != "" {
		if outPath != "" {
			return fmt.Errorf("-o needs the transformed runs, which only local execution materialises; drop -remote or -o")
		}
		if workers != 0 {
			return fmt.Errorf("-workers sizes the local pool; the daemon's fleet is configured on its side (drop -remote or -workers)")
		}
		if wire != "bin" && wire != "json" {
			return fmt.Errorf("-wire must be bin or json, not %q", wire)
		}
		return runRemote(w, remote, wire, scenario, adversary, runs, seed)
	}

	sc, err := registry.LookupExtraction(scenario)
	if err != nil {
		return err
	}
	ext := sc.Extraction
	if adversary != "" {
		adv, _, err := registry.Adversary(adversary)
		if err != nil {
			return err
		}
		ext.Source.Adversary = adv
	}
	if runs > 0 {
		ext.Runs = runs
	}
	if seed != 0 {
		ext.BaseSeed = seed
	}

	fmt.Fprintf(w, "pipeline %s: sampling %d runs of %s (n=%d, mode=%s)\n",
		ext.Name, ext.Runs, ext.Source.Name, ext.Source.N, ext.Mode)
	result, err := workload.Runner{Workers: workers}.Extract(ext)
	if err != nil {
		return err
	}

	if outPath != "" {
		// The pipeline checks each f(r) and keeps none: rebuild the checked
		// runs, byte for byte, from the index it leaves.
		simulate := core.Transformer{Workers: workers}.SimulateTUsefulDetector
		if ext.Mode == workload.ExtractPerfect {
			simulate = core.Transformer{Workers: workers}.SimulatePerfectDetector
		}
		if err := store.WriteSystemFile(outPath, format, simulate(result.System)); err != nil {
			return err
		}
		fmt.Fprintf(w, "transformed runs written to %s (format %s)\n", outPath, format)
	}

	fmt.Fprintf(w, "system built: %d runs kept, %d excluded (UDC violations)\n", result.Kept, result.Excluded)
	for _, s := range result.ExcludedSeeds {
		fmt.Fprintf(w, "  excluded seed %d\n", s)
	}
	st := result.Stats
	fmt.Fprintf(w, "epistemic index: %d points, %d classes, %d intervals\n", st.Points, st.Classes, st.Intervals)

	switch ext.Mode {
	case workload.ExtractPerfect:
		fmt.Fprintln(w, "simulated detector (construction P1-P3 of Theorem 3.6):")
	default:
		fmt.Fprintf(w, "simulated generalized detector (construction P3' of Theorem 4.3, t=%d):\n", ext.T)
	}
	fmt.Fprintf(w, "  property violations: %d across %d transformed runs\n",
		result.TotalViolations(), len(result.Verdicts))
	if !result.OK() {
		violating := 0
		for _, v := range result.Verdicts {
			if len(v.Violations) > 0 {
				violating++
				fmt.Fprintf(w, "  seed %d: %d violations (first: %v)\n", v.Seed, len(v.Violations), v.Violations[0])
			}
		}
		if sc.Stress {
			fmt.Fprintln(w, "  (stress pipeline: the recorded violations are the expected result)")
			return nil
		}
		return fmt.Errorf("extracted detector violates its properties on %d of %d runs", violating, len(result.Verdicts))
	}
	switch ext.Mode {
	case workload.ExtractPerfect:
		fmt.Fprintln(w, "  => the simulated detector is perfect, as Theorem 3.6 predicts")
	default:
		fmt.Fprintf(w, "  => the simulated detector is %d-useful, as Theorem 4.3 predicts\n", ext.T)
	}
	return nil
}

// runRemote serves the pipeline from a udcd daemon and prints the same
// verdict-level report as a local execution (the transformed runs themselves
// stay on the daemon; only the recorded verdicts travel).  The daemon's
// catalog is authoritative — the pipeline name, and the stress flag that
// decides whether violations are the expected result, both resolve on its
// side, so a client can drive pipelines its own build does not know.
func runRemote(w io.Writer, remote, wire, scenario, adversary string, runs int, seed int64) error {
	client := &server.Client{BaseURL: remote, Wire: wire}
	resp, cache, err := client.Extract(server.ExtractRequest{
		Extraction: scenario,
		Adversary:  adversary,
		Runs:       runs,
		SeedBase:   seed,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "pipeline %s: %d runs sampled remotely (mode=%s) [remote cache %s]\n",
		resp.Extraction, resp.Runs, resp.Mode, cache)
	fmt.Fprintf(w, "system built: %d runs kept, %d excluded (UDC violations)\n", resp.Kept, resp.Excluded)
	for _, s := range resp.ExcludedSeeds {
		fmt.Fprintf(w, "  excluded seed %d\n", s)
	}
	fmt.Fprintf(w, "epistemic index: %d points, %d classes, %d intervals\n",
		resp.Index.Points, resp.Index.Classes, resp.Index.Intervals)
	fmt.Fprintf(w, "  property violations: %d across %d transformed runs\n",
		resp.TotalViolations, len(resp.Verdicts))
	if !resp.OK {
		violating := 0
		for _, v := range resp.Verdicts {
			if !v.OK {
				violating++
				fmt.Fprintf(w, "  seed %d: %d violations (first: %s: %s)\n",
					v.Seed, len(v.Violations), v.Violations[0].Rule, v.Violations[0].Detail)
			}
		}
		if resp.Stress {
			fmt.Fprintln(w, "  (stress pipeline: the recorded violations are the expected result)")
			return nil
		}
		return fmt.Errorf("extracted detector violates its properties on %d of %d runs", violating, len(resp.Verdicts))
	}
	switch workload.ExtractionMode(resp.Mode) {
	case workload.ExtractPerfect:
		fmt.Fprintln(w, "  => the simulated detector is perfect, as Theorem 3.6 predicts")
	default:
		fmt.Fprintf(w, "  => the simulated detector is %d-useful, as Theorem 4.3 predicts\n", resp.T)
	}
	return nil
}
