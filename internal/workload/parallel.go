package workload

import (
	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/sim"
)

// Task pairs a scenario with the seeds to sweep and the evaluator to apply.
// A nil Eval means simulate-only: the runs are wanted but no property is
// scored.
type Task struct {
	Spec  Spec
	Seeds []int64
	Eval  Evaluator
}

// SeedRun is the seed-granular result of a task: the scored outcome (zero
// violations/latency fields when the task had no evaluator) plus the recorded
// run itself.  It is the unit the run corpus persists.
type SeedRun struct {
	Outcome RunOutcome
	Run     *model.Run
}

// Runner sweeps scenarios over a pool of worker goroutines, each owning one
// sim.Engine.  Work is distributed at (task, seed) granularity and every
// outcome is written to its (task, seed) slot, so the aggregated SweepResults
// are identical to the serial Sweep's for the same inputs no matter how many
// workers run or how the scheduler interleaves them.
type Runner struct {
	// Workers is the pool size; zero or negative means runtime.GOMAXPROCS(0).
	Workers int
}

// each runs fn(i) for i in [0, n) over the runner's worker pool (the shared
// slot-indexed loop of internal/pool), for stages that need no per-worker
// state.
func (r Runner) each(n int, fn func(i int)) {
	pool.Each(r.Workers, n, fn)
}

// engines is the free list eachWithEngine borrows its engines from.
var engines = pool.NewFreeList(sim.NewEngine)

// eachWithEngine is each with one sim.Engine per worker, borrowed from the
// package's free list for the length of the pass, for stages that execute
// simulations.  Recorded results are independent of an engine's prior runs
// (sim.Engine's contract), so neither sharing an engine within a worker nor
// inheriting one from an earlier pass affects slots.  Simulation stages are
// also where the Fleet gauges move: seeds become in-flight when the pass
// admits them and drain as each finishes, and a worker counts as busy exactly
// while it executes.
func (r Runner) eachWithEngine(n int, fn func(eng *sim.Engine, i int)) {
	Fleet.ActivePasses.Add(1)
	Fleet.InflightSeeds.Add(int64(n))
	defer Fleet.ActivePasses.Add(-1)
	engines.EachSlot(r.Workers, n, func(eng *sim.Engine, i int) {
		Fleet.BusyWorkers.Add(1)
		fn(eng, i)
		Fleet.BusyWorkers.Add(-1)
		Fleet.InflightSeeds.Add(-1)
	})
}

// simulate is the one fan-out loop behind SweepAll, RunAll and Extract: every
// task's (spec, seed) pairs distribute over the worker pool, and each finished
// simulation is handed to keep with its (task, slot) position — from a worker
// goroutine, so keep writes to that slot and nothing else.  run is the engine
// ending the caller needs: (*sim.Engine).Run when keep retains the recorded
// run, (*sim.Engine).RunBorrowed when it reads the result and drops it — then
// the result is the worker engine's own and is overwritten by that worker's
// next seed, so keep must not let it (or its Run) outlive the call.  On
// failure simulate returns the error of the earliest (task, seed) pair,
// matching the serial path's first-error semantics.
func (r Runner) simulate(tasks []Task, run engineRun, keep func(task, slot int, res *sim.Result)) error {
	type job struct{ task, slot int }
	var jobs []job
	for ti, t := range tasks {
		for si := range t.Seeds {
			jobs = append(jobs, job{task: ti, slot: si})
		}
	}
	errs := make([]error, len(jobs))
	r.eachWithEngine(len(jobs), func(eng *sim.Engine, i int) {
		j := jobs[i]
		t := &tasks[j.task]
		res, err := execute(eng, run, t.Spec, t.Seeds[j.slot])
		if err != nil {
			errs[i] = err
			return
		}
		keep(j.task, j.slot, res)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Sweep runs one scenario for every seed, in parallel, and aggregates the
// outcomes in seed order.
func (r Runner) Sweep(spec Spec, seeds []int64, eval Evaluator) (SweepResult, error) {
	results, err := r.SweepAll([]Task{{Spec: spec, Seeds: seeds, Eval: eval}})
	if err != nil {
		return SweepResult{}, err
	}
	return results[0], nil
}

// SweepAll runs every task's (spec, seed) pairs over the worker pool and
// returns one SweepResult per task, with outcomes in seed order.  Each run is
// scored where its engine recorded it — borrowed, never built — and dropped;
// an outcome holds counters and violation strings, nothing of the run.  On
// failure it returns the error of the earliest (task, seed) pair, matching the
// serial path's first-error semantics.
func (r Runner) SweepAll(tasks []Task) ([]SweepResult, error) {
	results := make([]SweepResult, len(tasks))
	for ti, t := range tasks {
		results[ti] = SweepResult{Spec: t.Spec, Outcomes: make([]RunOutcome, len(t.Seeds))}
	}
	err := r.simulate(tasks, (*sim.Engine).RunBorrowed, func(ti, si int, res *sim.Result) {
		t := &tasks[ti]
		results[ti].Outcomes[si] = ScoreRun(res, t.Seeds[si], t.Eval)
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// RunAll is SweepAll with the recorded runs retained: every task's (spec,
// seed) pairs distribute over one worker pool, each seed's SeedRun — an owned
// run, one fresh slab per seed — lands in its slot, and tasks with a nil
// evaluator are simulated but not scored.  It is for callers that keep the
// runs; a caller that wants outcomes only pays for the slabs with nothing to
// show for them and should call SweepAll, whose outcomes are byte-identical
// (both funnel through ScoreRun).
func (r Runner) RunAll(tasks []Task) ([][]SeedRun, error) {
	runs := make([][]SeedRun, len(tasks))
	for ti, t := range tasks {
		runs[ti] = make([]SeedRun, len(t.Seeds))
	}
	err := r.simulate(tasks, (*sim.Engine).Run, func(ti, si int, res *sim.Result) {
		t := &tasks[ti]
		runs[ti][si] = SeedRun{Outcome: ScoreRun(res, t.Seeds[si], t.Eval), Run: res.Run}
	})
	if err != nil {
		return nil, err
	}
	return runs, nil
}
