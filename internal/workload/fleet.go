package workload

import "sync/atomic"

// FleetMetrics are live gauges over the worker fleet, sampled by the serving
// layer's /metrics endpoint.  They are package-level because every Runner in
// a process shares the same CPUs: the daemon's pass token admits one fleet
// pass at a time, so process-wide occupancy is the number an operator wants.  The per-seed cost is three uncontended
// atomic adds against a simulation that runs for milliseconds.
type FleetMetrics struct {
	// InflightSeeds is the number of (task, seed) simulation jobs admitted to
	// an active fleet pass and not yet finished (queued behind busy workers
	// or executing).
	InflightSeeds atomic.Int64
	// BusyWorkers is the number of workers currently executing a simulation.
	BusyWorkers atomic.Int64
	// ActivePasses is the number of simulation fan-outs in progress: a
	// SweepAll or RunAll pass, or the stage of ExtendExtraction that
	// simulates the seeds its state does not cover.
	ActivePasses atomic.Int64
}

// Fleet is the process-wide fleet gauge set.
var Fleet FleetMetrics
