package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/epistemic"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sim"
)

// This file names the knowledge-extraction pipeline of Theorems 3.6 and 4.3
// as one seedable unit: simulate a UDC workload over many seeds, index the
// recorded runs into an epistemic system, apply the knowledge-based run
// transform (f or f'), and check the extracted detector's properties against
// ground truth.  Every stage is deterministic in (spec, seeds) and the
// parallel stages write to per-seed slots, so the full pipeline's output is
// byte-identical for any worker count.

// ExtractionMode selects which construction the pipeline applies.
type ExtractionMode string

const (
	// ExtractPerfect applies construction P1-P3 of Theorem 3.6 and checks
	// that the simulated detector is perfect.
	ExtractPerfect ExtractionMode = "perfect"
	// ExtractTUseful applies construction P3' of Theorem 4.3 and checks that
	// the simulated generalized detector is t-useful.
	ExtractTUseful ExtractionMode = "tuseful"
)

// Extraction is a parameterised knowledge-extraction pipeline.
type Extraction struct {
	// Name identifies the pipeline in reports.
	Name string
	// Source is the workload whose recorded runs form the sampled system.
	Source Spec
	// Runs is the number of seeds to sample.
	Runs int
	// BaseSeed is the first seed; the sampled seeds are Seeds(BaseSeed, Runs).
	BaseSeed int64
	// Mode selects the construction (perfect or tuseful).
	Mode ExtractionMode
	// T is the failure bound of the t-useful property check (ExtractTUseful).
	T int
}

// ExtractionVerdict is the property check of one transformed run.
type ExtractionVerdict struct {
	// Seed generated the source run.
	Seed int64
	// Violations are the failure-detector property violations found on the
	// transformed run (strong accuracy + strong completeness for the perfect
	// construction; generalized strong accuracy + t-usefulness for P3').
	Violations []model.Violation
}

// ExtractionResult is the output of one pipeline execution.
type ExtractionResult struct {
	// Extraction echoes the executed pipeline.
	Extraction Extraction
	// Kept and Excluded count the sampled runs that did and did not satisfy
	// UDC; only UDC-satisfying runs enter the system (the theorems' hypothesis
	// is a system that attains UDC).
	Kept, Excluded int
	// ExcludedSeeds lists the seeds of excluded runs, in seed order.
	ExcludedSeeds []int64
	// System is the epistemic index over the kept runs.
	System *epistemic.System
	// Stats reports the index's size.
	Stats epistemic.Stats
	// Verdicts holds one property check per transformed run, in kept-seed
	// order.  The transformed runs themselves are checked and dropped; a
	// caller that wants them rebuilds them from System with core.Transformer,
	// whose output is the checked runs byte for byte.
	Verdicts []ExtractionVerdict
}

// TotalViolations returns the number of property violations across all
// transformed runs.
func (res *ExtractionResult) TotalViolations() int {
	total := 0
	for _, v := range res.Verdicts {
		total += len(v.Violations)
	}
	return total
}

// OK reports whether every transformed run satisfied the extracted detector's
// properties.
func (res *ExtractionResult) OK() bool { return res.TotalViolations() == 0 }

// evaluator returns the property check the extraction's mode mandates.
func (e Extraction) evaluator() (Evaluator, error) {
	switch e.Mode {
	case ExtractPerfect:
		return fd.CheckPerfect, nil
	case ExtractTUseful:
		t := e.T
		return func(r *model.Run) []model.Violation {
			return append(fd.CheckGeneralizedStrongAccuracy(r), fd.CheckTUseful(r, t)...)
		}, nil
	default:
		return nil, fmt.Errorf("extraction %q: unknown mode %q", e.Name, e.Mode)
	}
}

// Extract executes the pipeline from scratch: ExtendExtraction from the empty
// state.  Every stage runs over the runner's worker pool: the simulate, filter
// and fused transform-and-check stages distribute work at run granularity with
// slot-indexed results, the index stage at process granularity (each
// process's build walks the kept runs in seed order), and the fold between
// them stays in seed order, so the result is byte-identical to a single-worker
// execution.  Each transformed run is recorded into its worker's reused arena,
// checked there and dropped, so the pass keeps no f(r): the result carries the
// verdicts and the index they were read from.
func (r Runner) Extract(e Extraction) (*ExtractionResult, error) {
	return r.ExtendExtraction(e, &ExtractionState{})
}

// ExtractionState carries the incrementally-maintained prefix of an
// extraction pipeline: the UDC filter verdicts and the epistemic index over
// the first Indexed seeds of Seeds(BaseSeed, ·).  A serving layer that caches
// the state for a pipeline hands it back to ExtendExtraction when a window
// grows, so the simulate, filter and index stages cost O(new runs) instead of
// a from-scratch rebuild.  The zero value is the empty prefix.  Identity (same
// pipeline, source spec and base seed) is the caller's responsibility, as is
// single-threaded use: the state's System is shared with every result built
// from it and grows in place.
type ExtractionState struct {
	// Indexed counts the leading seeds whose runs have been filtered and
	// indexed.
	Indexed int
	// System is the epistemic index over the kept runs so far (nil while
	// Indexed is 0).
	System *epistemic.System
	// KeptSeeds and ExcludedSeeds partition the Indexed seeds, each in seed
	// order.
	KeptSeeds, ExcludedSeeds []int64
}

// ExtendExtraction runs the pipeline over the window Seeds(e.BaseSeed, e.Runs)
// given st, which covers its first st.Indexed seeds.  Only the remaining
// seeds are simulated; their runs are filtered and folded into st's index with
// System.Add, st advances to cover the full window, and the fused
// transform-and-check stage runs over the grown system (knowledge at existing
// points can change as runs arrive, so that stage is inherently whole-window).
// The result is byte-identical to Extract's over the whole window, and st is
// mutated even when the pipeline errors afterwards (the state remains a
// coherent, reusable prefix).
func (r Runner) ExtendExtraction(e Extraction, st *ExtractionState) (*ExtractionResult, error) {
	if e.Runs <= 0 {
		return nil, fmt.Errorf("extraction %q: Runs must be positive", e.Name)
	}
	if st.Indexed > e.Runs {
		return nil, fmt.Errorf("extraction %q: state covers %d seeds of a %d-seed window", e.Name, st.Indexed, e.Runs)
	}
	eval, err := e.evaluator()
	if err != nil {
		return nil, err
	}
	seeds := Seeds(e.BaseSeed, e.Runs)[st.Indexed:]

	// Simulate: one source run per uncovered seed, each kept in its seed's
	// slot (the Runner's fan-out loop, unscored).
	delta := make(model.System, len(seeds))
	source := []Task{{Spec: e.Source, Seeds: seeds}}
	if err := r.simulate(source, (*sim.Engine).Run, func(_, i int, res *sim.Result) { delta[i] = res.Run }); err != nil {
		return nil, err
	}

	// Filter: the theorems assume a system that attains UDC, so runs that
	// violate it are excluded (and reported) rather than indexed.  The checks
	// run over the pool into per-seed slots; the fold stays in seed order.
	violatesUDC := make([]bool, len(delta))
	r.each(len(delta), func(i int) {
		violatesUDC[i] = len(core.CheckUDC(delta[i])) > 0
	})
	kept := make(model.System, 0, len(delta))
	for i, run := range delta {
		if violatesUDC[i] {
			st.ExcludedSeeds = append(st.ExcludedSeeds, seeds[i])
			continue
		}
		kept = append(kept, run)
		st.KeptSeeds = append(st.KeptSeeds, seeds[i])
	}
	if st.System == nil {
		st.System = &epistemic.System{}
	}
	st.System.AddParallel(r.Workers, kept)
	st.Indexed = e.Runs

	result := &ExtractionResult{
		Extraction:    e,
		Kept:          len(st.KeptSeeds),
		Excluded:      len(st.ExcludedSeeds),
		ExcludedSeeds: st.ExcludedSeeds[:len(st.ExcludedSeeds):len(st.ExcludedSeeds)],
	}
	if result.Kept == 0 {
		return nil, fmt.Errorf("extraction %q: no UDC-satisfying runs; cannot extract", e.Name)
	}

	// Index.
	result.System = st.System
	result.Stats = result.System.Stats()

	// Transform and property check, fused: each f(r) is checked in its
	// worker's arena and dropped, its verdict written to its kept slot.
	result.Verdicts = make([]ExtractionVerdict, result.Kept)
	check := func(i int, run *model.Run) {
		result.Verdicts[i] = ExtractionVerdict{Seed: st.KeptSeeds[i], Violations: eval(run)}
	}
	transformer := core.Transformer{Workers: r.Workers}
	switch e.Mode {
	case ExtractPerfect:
		transformer.VisitPerfectDetector(result.System, check)
	default:
		transformer.VisitTUsefulDetector(result.System, check)
	}
	return result, nil
}
