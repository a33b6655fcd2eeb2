// Package workload generates the experiment scenarios used to reproduce the
// paper's evaluation (Table 1 and the per-proposition experiments indexed in
// DESIGN.md) and provides a small sweep harness that runs a scenario across
// many seeds and aggregates property-check results and cost metrics.
//
// A Spec describes a parameterised scenario (process count, network regime,
// failure bound, detector, protocol, workload intensity); BuildConfig expands
// it deterministically for a given seed into a concrete sim.Config with a
// random-but-reproducible crash pattern and initiation schedule.  Sweep runs a
// spec over a seed list and reports the fraction of runs on which a
// caller-supplied property checker found no violations, together with message
// and latency statistics.
//
// Runner is the parallel form, and its stages differ in what happens to a
// recorded run.  Sweep and SweepAll score each run where its engine recorded
// it — borrowed (sim.Engine.RunBorrowed), valid until that worker's next seed
// — and keep the outcome only, so a sweep allocates no run at all.  RunAll and
// Extract keep their runs, so each seed gets an owned one (sim.Engine.Run, a
// fresh slab per seed), as do Execute, ExecuteWith and the serial Sweep.
// Outcomes are identical whichever way the run was held: all of them funnel
// through ScoreRun.  Runner's workers borrow their engines from a free list
// (internal/pool.FreeList) that keeps them, buffers grown, across passes and
// garbage collections, so a warm pass's seed allocates little beyond its
// protocol instances, its Config and its outcome.  Extract keeps no
// transformed run: each f(r) is checked in the arena its worker recorded it
// into (core.Transformer's lending form) and dropped.
package workload
