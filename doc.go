// Package repro is a simulation-and-verification reproduction of Halpern &
// Ricciardi, "A Knowledge-Theoretic Analysis of Uniform Distributed
// Coordination and Failure Detectors" (PODC 1999).
//
// The library implements the paper's formal model (internal/model), an
// asynchronous crash-failure simulator with fair-lossy channels built around
// a reusable engine (internal/sim), every failure-detector class the paper
// uses (internal/fd), the UDC/nUDC protocols and the knowledge-based
// failure-detector simulations of Theorems 3.6 and 4.3, each transformed run
// recorded into a reused arena and lent to its check, or built for a caller
// that keeps it (internal/core), an epistemic model checker
// for the paper's logic whose interned class index builds one process per
// worker, identically for any worker count (internal/epistemic), the
// Chandra-Toueg consensus baselines (internal/consensus), a registry of named
// protocols, oracles and scenarios (internal/registry), a parallel sweep
// runner with deterministic aggregates, whose sweeps score each run borrowed
// from the engine that recorded it and build a run only for callers that keep
// one (internal/workload), the Table 1
// reproduction harness (internal/table1), a dependency-free observability
// layer — Prometheus-format metrics, an exposition parser, the Server-Timing
// stage tracer, W3C traceparent identities with a tail-sampling trace log,
// and the admission token bucket behind udcd's serving path (internal/obs),
// the content-addressed run-corpus store — per-seed records (a sweep's
// scored outcome, an extraction source's recorded run) under whole-request
// records — with its binary codec, length-prefixed frame streams and
// shard-occupancy census (internal/store),
// the fleet toolkit — rendezvous shard assignment, a consecutive-failure
// suspicion detector with half-open probes, seeded-jitter backoff and a
// deterministic fault-injection transport (internal/fleet), and the udcd
// daemon itself — content negotiation across JSON/binary/streamed wire
// formats, seed-granular scheduling (one slot-indexed window resolution per
// request: corpus read, flight-table claim, a local fleet pass — one at a
// time, under the scheduler's pass token — beside remote claims, join
// collection), queue-aware admission control,
// fault-tolerant fleet mode (sharded peers, claim RPCs, hedged reads,
// degraded-mode local fallback, /v1/fleet), graceful drain (/readyz),
// request-scoped tracing with span links across coalesced requests
// (/debug/traces), structured slog request logs and corpus introspection
// (/v1/corpus) (internal/server).  See README.md for a tour.
//
// cmd/table1 regenerates the paper's only table (Table 1) and exits nonzero if
// any cell deviates from the paper; performance is measured by udcbench, the
// end-to-end benchmark under benchmarks/ (see benchmarks/README.md):
//
//	go run ./cmd/table1
//	bash benchmarks/run.sh
package repro
