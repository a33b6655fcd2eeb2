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
// workload.Runner: every transformed run is written to its input run's slot,
// which makes the output identical to the serial transform's for any worker
// count and any scheduler interleaving.

// processReporter computes the simulated detector's report for one process at
// original time m.  It is created per (run, process), so implementations can
// carry a monotone epistemic.Scan cursor across the times of the walk.
type processReporter func(m int) model.SuspectReport

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
	return t.transform(sys, func(ri int, p model.ProcID) processReporter {
		scan := sys.Scan(p, ri)
		return func(m int) model.SuspectReport {
			return model.SuspectReport{Suspects: sys.KnownCrashedClass(p, scan.At(m))}
		}
	})
}

// SimulateTUsefulDetector applies construction P3' of Theorem 4.3: at the odd
// step following a history of length l, process p's new detector reports
// (S_l, k) where S_l is the l-th subset of Proc in the fixed enumeration
// (l taken modulo 2^n) and k is the largest number of processes in S_l that p
// knows to have crashed.
func (t Transformer) SimulateTUsefulDetector(sys *epistemic.System) model.System {
	n := sys.N()
	subsetCount := 1 << uint(n)
	return t.transform(sys, func(ri int, p model.ProcID) processReporter {
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
	})
}

// transform builds f(r) for every run of the system, distributing runs over
// the shared slot-indexed worker pool and writing each result to its run's
// slot.
func (t Transformer) transform(sys *epistemic.System, forProc func(ri int, p model.ProcID) processReporter) model.System {
	out := make(model.System, sys.Size())
	pool.Each(t.Workers, sys.Size(), func(ri int) {
		out[ri] = transformRun(sys, ri, forProc)
	})
	return out
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

// transformRun builds f(r) for one run: events of r at time m are copied to
// time 2m (dropping r's own failure-detector events), and at every odd time
// 2m+1 a suspect' event computed by the process's reporter is inserted for
// every process that has not crashed by m.
//
// f(r)'s size is known before it is built — each process keeps its
// non-detector events and gains one report per time it is alive — so the
// histories are spans of one exact-size slab (the RunArena.Build layout:
// three allocations per run, no slot zeroed that is not then filled).  The
// spans start empty and fill through Run.Append, which keeps the R2/R4 checks
// on the path; they are capacity-clipped, so an input run the count
// underestimates (one Validate would reject) regrows a span instead of
// running into its neighbour.
func transformRun(sys *epistemic.System, ri int, forProc func(ri int, p model.ProcID) processReporter) *model.Run {
	r := sys.RunAt(ri)
	sizes := make([]int, r.N)
	total := 0
	for p := range sizes {
		evs := r.Events[p]
		alive := r.Horizon + 1
		if crashTime, crashed := r.CrashTime(model.ProcID(p)); crashed && crashTime < alive {
			alive = crashTime
		}
		kept := 0
		for i := range evs {
			if evs[i].Event.Kind != model.EventSuspect {
				kept++
			}
		}
		sizes[p] = kept + alive
		total += sizes[p]
	}
	slab := make([]model.TimedEvent, 0, total)
	out := &model.Run{N: r.N, Events: make([][]model.TimedEvent, r.N)}
	off := 0
	for p, size := range sizes {
		out.Events[p] = slab[off : off : off+size]
		off += size
	}
	for p := model.ProcID(0); int(p) < r.N; p++ {
		crashTime, crashed := r.CrashTime(p)
		report := forProc(ri, p)
		evIdx := 0
		evs := r.Events[p]
		for m := 0; m <= r.Horizon; m++ {
			// Copy the original events of time m to time 2m.
			for evIdx < len(evs) && evs[evIdx].Time == m {
				e := &evs[evIdx].Event
				evIdx++
				if e.Kind == model.EventSuspect {
					continue
				}
				// Errors are impossible here by construction (times are
				// monotone and crash stays last); they would only indicate a
				// corrupted input run, which Validate would already flag.
				_ = out.Append(p, 2*m, *e)
			}
			// Insert the simulated detector report at time 2m+1, unless the
			// process has already crashed (histories do not extend past a
			// crash, condition R4).
			if crashed && crashTime <= m {
				continue
			}
			_ = out.Append(p, 2*m+1, model.Event{Kind: model.EventSuspect, Report: report(m)})
		}
	}
	out.SetHorizon(2*r.Horizon + 1)
	return out
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
