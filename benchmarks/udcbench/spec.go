package main

// This file is the benchmark's frozen contract: the workload list, the metric
// names and units, and the op counts.  BENCHMARK.json repeats the names (a
// test keeps the two in step), later issues quote them verbatim, and a change
// to any count here invalidates every recorded baseline.

// Workload names.
const (
	wlSweepOffline   = "sweep-offline"
	wlExtractOffline = "extract-offline"
	wlServeWarm      = "serve-warm"
	wlServeDisk      = "serve-disk"
	wlServeCold      = "serve-cold"
	wlFleet3         = "fleet-3"
)

// workloadSpec is one named workload: why it exists and the tail percentile
// its op count supports (the highest with at least ten samples beyond it in
// one run at this commit, frozen so runs stay comparable).
type workloadSpec struct {
	name    string
	tailPct float64
	why     string
}

// workloadImpl is how a workload is set up and traced.
type workloadImpl struct {
	setup func(cfg runConfig) (env, error)
	// reusable environments serve any number of rounds; single-use ones (a
	// cold daemon is cold once) are rebuilt for every round.
	reusable bool
	// opSpan names an op's span after the layer it enters.
	opSpan string
}

var workloadImpls = map[string]workloadImpl{
	wlSweepOffline:   {setup: setupSweepOffline, reusable: true, opSpan: "workload.Sweep"},
	wlExtractOffline: {setup: setupExtractOffline, reusable: true, opSpan: "workload.Extract"},
	wlServeWarm:      {setup: setupCorpus, reusable: true, opSpan: "server.sweep"},
	wlServeDisk:      {setup: setupCorpus, reusable: true, opSpan: "server.sweep"},
	wlServeCold:      {setup: setupCold, opSpan: "server.sweep"},
	wlFleet3:         {setup: setupCold, opSpan: "server.sweep"},
}

var workloads = []workloadSpec{
	{wlSweepOffline, 90, "Table 1 path through workload.Runner: sim+adversary+model do all the work, store/server/fleet idle"},
	{wlExtractOffline, 75, "Thm 3.6/4.3 pipelines through Runner.Extract: epistemic index, core transform and fd checks dominate"},
	{wlServeWarm, 99, "one daemon, corpus in memory: 90% exact repeats (window fast path), 10% novel covered windows (per-seed assemble); sim idle"},
	{wlServeDisk, 95, "same corpus reopened under the default 256-entry LRU: every request assembles from disk reads; sim idle"},
	{wlServeCold, 90, "fresh daemon, every seed new once: sim, flight-table claim/coalesce, seed-record encode and disk writes"},
	{wlFleet3, 90, "serve-cold's ops against a 3-peer fleet with peer 2 killed mid-run: claim hop, partition, suspicion, local fallback"},
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricSpec names one reported metric.  bound is the share of the parent's
// median by which an end-to-end metric may worsen (0 for per-layer metrics,
// which carry none); exact marks counts that must repeat bit for bit across
// runs of one commit and seed.
type metricSpec struct {
	name   string
	unit   string
	better string
	bound  float64
	exact  bool
}

// endToEnd are the metrics a caller of the system would see.  fail_ratio is
// the seventh: it must be 0, so it travels as the result's attempted/failed
// pair (a metric that is always 0 has no median to take a share of).
//
// The bounds are not ISSUE 11's 10/10/15/10/5 %: the contract wants the spread
// of ten runs with ten seeds under a third of each bound, and on this 2-core
// box that spread is 3 to 7.5 % when nothing else runs and 20 to 26 % when
// something does (README, "Measured run-to-run spread"), so the timed metrics
// take the contract's ceiling; allocation, which repeats to 1-3 %, takes 8 %.
// Smaller changes are the business of a same-session A/B.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "seeds_per_s", unit: "seeds/s", better: "higher", bound: 0.25},
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "op_tail_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "cpu_us_per_seed", unit: "us", better: "lower", bound: 0.25},
	{name: "alloc_kb_per_seed", unit: "KiB", better: "lower", bound: 0.08},
}

// perLayer is the layer ladder, prefix = module name.  Order is the order of
// the README's table.
var perLayer = []metricSpec{
	{name: "sim.runs", unit: "count", better: "higher", exact: true},
	{name: "sim.events_per_run", unit: "count", better: "lower", exact: true},
	{name: "sim.msgs_per_run", unit: "count", better: "lower", exact: true},
	{name: "sim.ns_per_run", unit: "ns", better: "lower"},
	{name: "sim.ns_per_event", unit: "ns", better: "lower"},
	{name: "sim.allocs_per_run", unit: "count", better: "lower"},
	{name: "sim.ns_per_event.n8", unit: "ns", better: "lower"},
	{name: "sim.ns_per_event.n16", unit: "ns", better: "lower"},
	{name: "sim.ns_per_event.n32", unit: "ns", better: "lower"},

	{name: "workload.sweep_us_per_seed", unit: "us", better: "lower"},
	{name: "workload.parallel_efficiency", unit: "ratio", better: "higher"},
	{name: "workload.score_ns_per_run", unit: "ns", better: "lower"},
	{name: "workload.extract_simulate_share", unit: "ratio", better: "lower"},

	{name: "epistemic.index_ms", unit: "ms", better: "lower"},
	{name: "epistemic.points", unit: "count", better: "lower", exact: true},
	{name: "epistemic.classes", unit: "count", better: "lower", exact: true},
	{name: "epistemic.index_ns_per_point", unit: "ns", better: "lower"},
	{name: "epistemic.extend_ms", unit: "ms", better: "lower"},
	{name: "epistemic.query_ns", unit: "ns", better: "lower"},

	{name: "core.filter_ms", unit: "ms", better: "lower"},
	{name: "core.transform_perfect_ms", unit: "ms", better: "lower"},
	{name: "core.transform_tuseful_ms", unit: "ms", better: "lower"},
	{name: "fd.check_ms", unit: "ms", better: "lower"},

	{name: "store.seed_record_bytes", unit: "bytes", better: "lower", exact: true},
	{name: "store.encode_seed_us", unit: "us", better: "lower"},
	{name: "store.decode_seed_us", unit: "us", better: "lower"},
	{name: "store.getmulti_mem_us_per_key", unit: "us", better: "lower"},
	{name: "store.getmulti_disk_us_per_key", unit: "us", better: "lower"},
	{name: "store.putmulti_disk_us_per_key", unit: "us", better: "lower"},
	{name: "store.mem_hit_ratio", unit: "ratio", better: "higher"},
	{name: "store.disk_read_kb_per_seed", unit: "KiB", better: "lower"},
	{name: "store.evictions_per_op", unit: "count", better: "lower"},
	{name: "store.corrupt_entries", unit: "count", better: "lower"},

	{name: "server.stage.resolve_us", unit: "us", better: "lower"},
	{name: "server.stage.claim_us", unit: "us", better: "lower"},
	{name: "server.stage.compute_us", unit: "us", better: "lower"},
	{name: "server.stage.assemble_us", unit: "us", better: "lower"},
	{name: "server.stage.persist_us", unit: "us", better: "lower"},
	{name: "server.stage.total_us", unit: "us", better: "lower"},
	{name: "server.unattributed_ratio", unit: "ratio", better: "lower"},
	{name: "server.http_overhead_us", unit: "us", better: "lower"},
	{name: "server.handler_only_us", unit: "us", better: "lower"},
	{name: "server.hit_window_us", unit: "us", better: "lower"},
	{name: "server.hit_assembled_us", unit: "us", better: "lower"},
	{name: "server.partial_us", unit: "us", better: "lower"},
	{name: "server.miss_us", unit: "us", better: "lower"},
	{name: "server.wire.json_us", unit: "us", better: "lower"},
	{name: "server.wire.bin_us", unit: "us", better: "lower"},
	{name: "server.wire.ndjson_us", unit: "us", better: "lower"},
	{name: "server.wire.bin-stream_us", unit: "us", better: "lower"},
	{name: "server.wire.json_bytes_per_seed", unit: "bytes", better: "lower", exact: true},
	{name: "server.wire.bin_bytes_per_seed", unit: "bytes", better: "lower", exact: true},
	{name: "server.seeds_cached", unit: "count", better: "higher"},
	{name: "server.seeds_computed", unit: "count", better: "lower"},
	{name: "server.seeds_coalesced", unit: "count", better: "higher"},
	{name: "server.seeds_remote", unit: "count", better: "higher"},
	{name: "server.tasks_per_batch", unit: "ratio", better: "higher"},
	{name: "server.compute_waste_ratio", unit: "ratio", better: "lower"},

	{name: "fleet.claim_hop_us", unit: "us", better: "lower"},
	{name: "fleet.remote_seed_ratio", unit: "ratio", better: "higher"},
	{name: "fleet.claims", unit: "count", better: "lower"},
	{name: "fleet.claim_failures", unit: "count", better: "lower"},
	{name: "fleet.retries", unit: "count", better: "lower"},
	{name: "fleet.hedges", unit: "count", better: "lower"},
	{name: "fleet.fallback_seeds", unit: "count", better: "lower"},
	{name: "fleet.pre_kill_seeds_per_s", unit: "seeds/s", better: "higher"},
	{name: "fleet.post_kill_seeds_per_s", unit: "seeds/s", better: "higher"},
	{name: "fleet.failover_max_ms", unit: "ms", better: "lower"},
	{name: "fleet.duplicate_compute_ratio", unit: "ratio", better: "lower"},

	{name: "obs.scrape_us", unit: "us", better: "lower"},
	{name: "obs.scrape_bytes", unit: "bytes", better: "lower"},
	{name: "obs.histogram_p50_agreement", unit: "ratio", better: "higher"},

	{name: "proc.peak_rss_mb", unit: "MiB", better: "lower"},
	{name: "proc.gc_cycles", unit: "count", better: "lower"},
	{name: "proc.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "bench.trace_overhead_ratio", unit: "ratio", better: "higher"},
	{name: "bench.verify_s", unit: "s", better: "lower"},
}

// Scenario tables.  Serving windows address seeds by position: position p is
// seed 1 + p*7919 (workload.Seeds' stride), so a window (pos, count) is
// exactly workload.Seeds(seedAt(pos), count).
var (
	serveScenarios = []string{
		"prop2.3-nudc", "prop2.4-reliable-udc", "prop3.1-strong-udc",
		"prop4.1-tuseful-udc", "adv-burst-loss-strong-udc",
	}
	sweepScenarios = append(append([]string(nil), serveScenarios...), "adv-targeted-consensus")
	extractKinds   = []string{"kx-perfect", "kx-tuseful", "kx-perfect-cascade"}
)

const (
	seedStride = 7919
	windowSize = 64
	// corpusScenarios is how many of serveScenarios the warm/disk corpus
	// holds (the first four).
	corpusScenarios = 4
)

func seedAt(pos int) int64 { return 1 + int64(pos)*seedStride }

// sizes are the frozen op counts of one round (one pass over a workload's op
// list).  A run repeats whole rounds until -seconds of timed work has passed,
// so the counts fix the work per round, never its duration.
type sizes struct {
	// SweepRounds × len(sweepScenarios) ops per sweep-offline round.
	SweepRounds int `json:"sweepRounds"`
	// ExtractPerKind × len(extractKinds) ops per extract-offline round, each
	// sampling ExtractRuns source runs.
	ExtractPerKind int `json:"extractPerKind"`
	ExtractRuns    int `json:"extractRuns"`
	// CorpusPositions seed positions of each corpus scenario are primed for
	// serve-warm and serve-disk.
	CorpusPositions int `json:"corpusPositions"`
	// WarmOps requests per serve-warm round over HotWindows hot windows.
	WarmOps    int `json:"warmOps"`
	HotWindows int `json:"hotWindows"`
	// DiskOps requests per serve-disk round.
	DiskOps int `json:"diskOps"`
	// ColdWindows sliding windows per scenario per serve-cold / fleet-3
	// round (× len(serveScenarios) ops).
	ColdWindows int `json:"coldWindows"`
	// VerifyEvery: offline, cold and fleet ops are byte-checked against the
	// serial reference on a deterministic 1-in-VerifyEvery sample.
	VerifyEvery int `json:"verifyEvery"`
}

// fullSizes are the frozen counts, sized on a 2-core box so that three
// set-ups plus the timed rounds of any workload fit the driver's per-run
// budget (ISSUE 11's counts, shrunk proportionally: see the README).
var fullSizes = sizes{
	SweepRounds:     8,
	ExtractPerKind:  14,
	ExtractRuns:     64,
	CorpusPositions: 512,
	WarmOps:         4400,
	HotWindows:      64,
	DiskOps:         300,
	ColdWindows:     8,
	VerifyEvery:     8,
}

// smokeSizes is -smoke: roughly 1/50 of the work, every gate still on.
var smokeSizes = sizes{
	SweepRounds:     1,
	ExtractPerKind:  1,
	ExtractRuns:     16,
	CorpusPositions: 128,
	WarmOps:         90,
	HotWindows:      8,
	DiskOps:         6,
	ColdWindows:     2,
	VerifyEvery:     2,
}

// opsPerRound is how many ops one round of the workload issues.
func opsPerRound(workload string, sz sizes) int {
	switch workload {
	case wlSweepOffline:
		return sz.SweepRounds * len(sweepScenarios)
	case wlExtractOffline:
		return sz.ExtractPerKind * len(extractKinds)
	case wlServeWarm:
		return sz.WarmOps
	case wlServeDisk:
		return sz.DiskOps
	default:
		return sz.ColdWindows / 2 * 2 * len(serveScenarios)
	}
}

// roundsForTail is the least number of rounds whose pooled ops leave ten
// samples beyond the workload's tail percentile: however short -seconds is,
// a run pools enough ops to support the percentile it reports.
func roundsForTail(spec workloadSpec, sz sizes) int {
	ops := opsPerRound(spec.name, sz)
	rounds := 1
	for samplesBeyond(rounds*ops, spec.tailPct) < 10 {
		rounds++
	}
	return rounds
}
