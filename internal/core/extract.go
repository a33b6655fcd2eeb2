package core

import (
	"repro/internal/epistemic"
	"repro/internal/model"
	"repro/internal/pool"
)

// This file implements the run transformations f and f' of Theorems 3.6 and
// 4.3: a system that attains UDC can simulate a perfect failure detector (f,
// conditions P1-P3) and, in a context with at most t failures, a t-useful
// generalized failure detector (f', with P3 replaced by P3').
//
// Both constructions double time: the event that occurred at time m in r is
// placed at time 2m in f(r), and at every odd time 2m+1 a new suspect' event
// is inserted whose content is computed from what the process *knows* at the
// corresponding point (r, m) of the original system.  Knowledge is computed by
// the epistemic model checker over the sampled system; the resulting detector
// events are then validated against ground truth by the fd package's property
// checkers (see internal/core tests and cmd/fdextract).
//
// Runs are transformed independently of one another, so Transformer
// distributes them over a pool of worker goroutines, mirroring
// workload.Runner.  Each worker records f(r) into a model.RunArena it borrows
// for the pass, and the recorded run leaves the arena by one of the arena's
// two endings: the Simulate methods Build an owned copy into the input run's
// slot, and the Visit methods lend View() to a callback on the worker's
// goroutine and reuse the arena for that worker's next run — the ending for
// a caller that checks f(r) and drops it.  Either way the output is
// identical to the serial transform's for any worker count and any scheduler
// interleaving.

// processReporter computes the simulated detector's report for one process at
// original time m.  It is created per (run, process), so implementations can
// carry a monotone epistemic.Scan cursor across the times of the walk.
type processReporter func(m int) model.SuspectReport

// construction creates the reporter of one (run, process) walk: the part of
// the transform in which f and f' differ.
type construction func(ri int, p model.ProcID) processReporter

// Transformer applies the knowledge-based run transforms over a pool of
// worker goroutines, one run per job.
type Transformer struct {
	// Workers is the pool size; zero or negative means runtime.GOMAXPROCS(0).
	Workers int
}

// SimulatePerfectDetector applies construction P1-P3 of Theorem 3.6 to every
// run of the sampled system: original failure-detector events are removed and
// at each odd step process p's new detector reports {q : K_p crash(q)}.
// The returned runs form the system R^f of the theorem.
func (t Transformer) SimulatePerfectDetector(sys *epistemic.System) model.System {
	return t.build(sys, perfectReporter(sys))
}

// SimulateTUsefulDetector applies construction P3' of Theorem 4.3: at the odd
// step following a history of length l, process p's new detector reports
// (S_l, k) where S_l is the l-th subset of Proc in the fixed enumeration
// (l taken modulo 2^n) and k is the largest number of processes in S_l that p
// knows to have crashed.
func (t Transformer) SimulateTUsefulDetector(sys *epistemic.System) model.System {
	return t.build(sys, tUsefulReporter(sys))
}

// VisitPerfectDetector is SimulatePerfectDetector's lending form: it calls
// visit(ri, f(r)) for every run ri of the system, on the worker goroutine that
// recorded it.  The run lives in that worker's arena and is overwritten by its
// next run, so visit must not retain it or anything that aliases it; visit
// calls run concurrently and must write only to slot ri.
func (t Transformer) VisitPerfectDetector(sys *epistemic.System, visit func(ri int, run *model.Run)) {
	t.transform(sys, perfectReporter(sys), func(ri int, a *model.RunArena) { visit(ri, a.View()) })
}

// VisitTUsefulDetector is SimulateTUsefulDetector's lending form, under
// VisitPerfectDetector's contract.
func (t Transformer) VisitTUsefulDetector(sys *epistemic.System, visit func(ri int, run *model.Run)) {
	t.transform(sys, tUsefulReporter(sys), func(ri int, a *model.RunArena) { visit(ri, a.View()) })
}

// perfectReporter is the report of construction P1-P3: {q : K_p crash(q)}.
func perfectReporter(sys *epistemic.System) construction {
	return func(ri int, p model.ProcID) processReporter {
		scan := sys.Scan(p, ri)
		return func(m int) model.SuspectReport {
			return model.SuspectReport{Suspects: sys.KnownCrashedClass(p, scan.At(m))}
		}
	}
}

// tUsefulReporter is the report of construction P3': (S_l, k), where
// l = |r_p(m+1)|.
func tUsefulReporter(sys *epistemic.System) construction {
	subsetCount := 1 << uint(sys.N())
	return func(ri int, p model.ProcID) processReporter {
		run := sys.RunAt(ri)
		scan := sys.Scan(p, ri)
		// prefix is |r_p(next)| for the last next asked about: the walk is
		// monotone in m, so it advances like the Scan cursor beside it (and,
		// like it, restarts from the front should time ever move backwards).
		evs, prefix := run.Events[p], 0
		return func(m int) model.SuspectReport {
			// P3' indexes the subset by the length of r_p(m+1).
			next := m + 1
			if next > run.Horizon {
				next = run.Horizon
			}
			if prefix > 0 && evs[prefix-1].Time > next {
				prefix = 0
			}
			for prefix < len(evs) && evs[prefix].Time <= next {
				prefix++
			}
			group := model.ProcSet(prefix % subsetCount)
			return model.SuspectReport{
				Generalized: true,
				Group:       group,
				MinFaulty:   sys.MaxKnownCrashedInClass(p, scan.At(m), group),
			}
		}
	}
}

// build is transform's retaining ending: each f(r) is copied out of its
// worker's arena into its run's slot.
func (t Transformer) build(sys *epistemic.System, forProc construction) model.System {
	out := make(model.System, sys.Size())
	t.transform(sys, forProc, func(ri int, a *model.RunArena) { out[ri] = a.Build() })
	return out
}

// arenas is the free list the transform's workers borrow their arenas from.
var arenas = pool.NewFreeList(model.NewRunArena)

// transform records f(r) for every run of the system into its worker's arena
// and hands the arena to end(ri, arena) on that worker's goroutine, before the
// worker's next run resets it.
func (t Transformer) transform(sys *epistemic.System, forProc construction, end func(ri int, a *model.RunArena)) {
	arenas.EachSlot(t.Workers, sys.Size(), func(a *model.RunArena, ri int) {
		recordRun(a, sys.RunAt(ri), ri, forProc)
		end(ri, a)
	})
}

// SimulatePerfectDetector is the serial reference form of
// Transformer.SimulatePerfectDetector; the parallel transform is
// slot-identical to it for any worker count.
func SimulatePerfectDetector(sys *epistemic.System) model.System {
	return Transformer{Workers: 1}.SimulatePerfectDetector(sys)
}

// SimulateTUsefulDetector is the serial reference form of
// Transformer.SimulateTUsefulDetector.
func SimulateTUsefulDetector(sys *epistemic.System) model.System {
	return Transformer{Workers: 1}.SimulateTUsefulDetector(sys)
}

// recordRun records f(r) for run ri into a: events of r at time m are
// recorded at time 2m (dropping r's own failure-detector events), and at
// every odd time 2m+1 a suspect' event computed by the process's reporter is
// inserted for every process that has not crashed by m.  Each event is filled
// where the arena keeps it, and the arena enforces R2 and R4: an event it
// refuses could only come from a corrupted input run, which Validate would
// already flag, and is dropped.
func recordRun(a *model.RunArena, r *model.Run, ri int, forProc construction) {
	a.Reset(r.N, 0)
	for p := model.ProcID(0); int(p) < r.N; p++ {
		crashTime, crashed := r.CrashTime(p)
		report := forProc(ri, p)
		evs, evIdx := r.Events[p], 0
		for m := 0; m <= r.Horizon; m++ {
			// Copy the original events of time m to time 2m.
			for ; evIdx < len(evs) && evs[evIdx].Time == m; evIdx++ {
				src := &evs[evIdx].Event
				if src.Kind == model.EventSuspect {
					continue
				}
				if e, err := a.Record(p, 2*m, src.Kind); err == nil {
					*e = *src
				}
			}
			// Insert the simulated detector report at time 2m+1, unless the
			// process has already crashed (histories do not extend past a
			// crash, condition R4).
			if crashed && crashTime <= m {
				continue
			}
			if e, err := a.Record(p, 2*m+1, model.EventSuspect); err == nil {
				rep := report(m)
				e.SetReport(&rep)
			}
		}
	}
	a.SetHorizon(2*r.Horizon + 1)
}

// CheckA5 verifies assumption A5_t on a sampled system: for every subset S of
// processes with |S| <= t there is a run whose faulty set is exactly S.  (The
// remaining assumptions A1-A4 quantify over extensions of runs and over all
// indistinguishable points, so they are properties of the generating context
// rather than of any finite sample; DESIGN.md discusses how the simulator's
// workloads are set up to respect them.)
func CheckA5(runs model.System, t int) []model.Violation {
	if len(runs) == 0 {
		return []model.Violation{model.Violationf("A5", "empty system")}
	}
	n := runs[0].N
	seen := make(map[model.ProcSet]bool, len(runs))
	for _, r := range runs {
		seen[r.Faulty()] = true
	}
	var out []model.Violation
	for size := 0; size <= t && size <= n; size++ {
		for _, s := range model.SubsetsOfSize(n, size) {
			if !seen[s] {
				out = append(out, model.Violationf("A5",
					"no run in the sample has faulty set exactly %s", s))
			}
		}
	}
	return out
}
