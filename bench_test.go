package repro_test

// The benchmark harness regenerates the paper's evaluation:
//
//   - BenchmarkTable1/... : one benchmark per cell of Table 1 (the paper's
//     only table; it has no figures).  Each cell sweeps its paper-sufficient
//     detector/protocol combination over b.N fresh seeds — distributed over
//     the parallel sweep runner, whose aggregates are byte-identical to a
//     serial sweep — and reports coordination success, message cost and
//     latency as custom metrics, so the table's shape (which detector class
//     suffices where) can be read off the benchmark output.
//   - BenchmarkProp*/BenchmarkCor*/BenchmarkTheorem*: one benchmark per
//     proposition or theorem with executable content (E2-E8 in DESIGN.md),
//     running the registry's named scenarios serially on one reused engine
//     (these track single-run engine performance).
//   - BenchmarkUDCvsConsensus: the cost comparison the introduction motivates
//     (E9).
//   - BenchmarkAblation*: design-choice ablations called out in DESIGN.md
//     (drop rate, retransmission period, detector query period, and the
//     weak-to-strong detector conversions).
//
// All protocols, oracles and scenario shapes are resolved through
// internal/registry, so the benchmarks exercise exactly the constructions the
// commands ship.  Absolute numbers depend on the simulator, not on the
// authors' testbed; the quantities to compare are the relative metrics
// (ok-rate, msgs/run, latency-steps) across benchmarks.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/epistemic"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/table1"
	"repro/internal/workload"
)

// runSpecOnce executes one seed of a spec on the shared engine and reports
// per-run metrics.
func runSpecOnce(b *testing.B, eng *sim.Engine, spec workload.Spec, seed int64, eval workload.Evaluator, agg *benchAgg) {
	b.Helper()
	res, err := workload.ExecuteWith(eng, spec, seed)
	if err != nil {
		b.Fatalf("execute: %v", err)
	}
	agg.add(workload.ScoreRun(res, seed, eval))
}

// benchAgg accumulates custom benchmark metrics.
type benchAgg struct {
	runs         int
	ok           int
	messages     float64
	latency      float64
	latencyCount int
}

// add folds one run outcome into the aggregate.
func (a *benchAgg) add(o workload.RunOutcome) {
	a.runs++
	a.messages += float64(o.Stats.MessagesSent)
	if o.OK() {
		a.ok++
	}
	a.latency += float64(o.LatencySum)
	a.latencyCount += o.LatencyActions
}

// report emits the aggregated custom metrics.
func (a benchAgg) report(b *testing.B) {
	b.Helper()
	if a.runs == 0 {
		return
	}
	b.ReportMetric(float64(a.ok)/float64(a.runs), "ok-rate")
	b.ReportMetric(a.messages/float64(a.runs), "msgs/run")
	if a.latencyCount > 0 {
		b.ReportMetric(a.latency/float64(a.latencyCount), "latency-steps")
	}
}

// benchSerialSpec runs one seed per iteration on a reused engine.
func benchSerialSpec(b *testing.B, spec workload.Spec, eval workload.Evaluator, seedOf func(i int) int64) {
	b.Helper()
	eng := sim.NewEngine()
	var agg benchAgg
	for i := 0; i < b.N; i++ {
		runSpecOnce(b, eng, spec, seedOf(i), eval, &agg)
	}
	agg.report(b)
}

// benchScenario runs the named registry scenario serially, one seed per
// iteration.
func benchScenario(b *testing.B, name string) {
	b.Helper()
	sc := registry.MustScenario(name)
	benchSerialSpec(b, sc.Spec, sc.Eval, func(i int) int64 { return int64(i) + 1 })
}

// BenchmarkTable1 regenerates Table 1: one sub-benchmark per cell, sweeping
// the paper-sufficient scenario over b.N seeds on the parallel sweep runner.
func BenchmarkTable1(b *testing.B) {
	params := table1.Params{N: 6, Seeds: 1, BaseSeed: 5000, MaxSteps: 400}
	for _, cell := range table1.Cells(params) {
		name := fmt.Sprintf("%s/%s/%s", cell.Channel, cell.Problem, cell.Regime)
		spec := cell.Minimal.Spec
		eval := cell.Minimal.Eval
		b.Run(name, func(b *testing.B) {
			seeds := make([]int64, b.N)
			for i := range seeds {
				seeds[i] = params.BaseSeed + int64(i)
			}
			result, err := workload.Runner{}.Sweep(spec, seeds, eval)
			if err != nil {
				b.Fatalf("sweep: %v", err)
			}
			var agg benchAgg
			for _, o := range result.Outcomes {
				agg.add(o)
			}
			agg.report(b)
		})
	}
}

// BenchmarkAdversarySweep sweeps representative adversary scenarios over the
// parallel runner — one per shaper signature (storm drops, duplication,
// extra-delay scheduling) plus a deterministic targeted schedule — so the
// recorded perf trajectory covers the adversary subsystem's hot path
// alongside the Table 1 baseline.
func BenchmarkAdversarySweep(b *testing.B) {
	names := []string{
		"adv-burst-loss-strong-udc",
		"adv-duplicate-storm-nudc",
		"adv-skewed-delays-strong-udc",
		"adv-targeted-consensus",
	}
	for _, name := range names {
		sc := registry.MustScenario(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			seeds := make([]int64, b.N)
			for i := range seeds {
				seeds[i] = int64(i) + 1
			}
			result, err := workload.Runner{}.Sweep(sc.Spec, seeds, sc.Eval)
			if err != nil {
				b.Fatalf("sweep: %v", err)
			}
			var agg benchAgg
			for _, o := range result.Outcomes {
				agg.add(o)
			}
			agg.report(b)
		})
	}
}

// BenchmarkProp23NUDC benchmarks the no-detector nUDC protocol over fair-lossy
// channels with unbounded failures (E2).
func BenchmarkProp23NUDC(b *testing.B) {
	benchScenario(b, "prop2.3-nudc")
}

// BenchmarkProp24ReliableUDC benchmarks the no-detector UDC protocol over
// reliable channels (E3).
func BenchmarkProp24ReliableUDC(b *testing.B) {
	benchScenario(b, "prop2.4-reliable-udc")
}

// BenchmarkProp31StrongFDUDC benchmarks UDC with a strong detector over lossy
// channels and up to n-1 failures (E4).
func BenchmarkProp31StrongFDUDC(b *testing.B) {
	benchScenario(b, "prop3.1-strong-udc")
}

// BenchmarkProp41TUsefulUDC benchmarks UDC with a t-useful generalized
// detector for an intermediate failure bound (E7).
func BenchmarkProp41TUsefulUDC(b *testing.B) {
	benchScenario(b, "prop4.1-tuseful-udc")
}

// BenchmarkCor42QuorumUDC benchmarks the detector-free quorum protocol for
// t < n/2 (E7).
func BenchmarkCor42QuorumUDC(b *testing.B) {
	benchScenario(b, "cor4.2-quorum-udc")
}

// buildSystem samples a UDC system for the extraction benchmarks.
func buildSystem(b *testing.B, spec workload.Spec, runs int, baseSeed int64) *epistemic.System {
	b.Helper()
	eng := sim.NewEngine()
	out := make(model.System, 0, runs)
	for _, seed := range workload.Seeds(baseSeed, runs) {
		res, err := workload.ExecuteWith(eng, spec, seed)
		if err != nil {
			b.Fatalf("execute: %v", err)
		}
		out = append(out, res.Run)
	}
	return epistemic.NewSystem(out)
}

// BenchmarkTheorem36Extraction benchmarks the perfect-detector simulation
// (construction P1-P3) over a sampled system, including the property check
// (E6).
func BenchmarkTheorem36Extraction(b *testing.B) {
	sys := buildSystem(b, registry.MustScenario("thm3.6-extraction").Spec, 10, 9000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simulated := core.SimulatePerfectDetector(sys)
		violations := 0
		for _, r := range simulated {
			violations += len(fd.CheckPerfect(r))
		}
		if violations != 0 {
			b.Fatalf("simulated detector not perfect: %d violations", violations)
		}
	}
}

// BenchmarkTheorem43Extraction benchmarks the t-useful generalized detector
// simulation (construction P3') over a sampled system (E8).
func BenchmarkTheorem43Extraction(b *testing.B) {
	const t = 2
	sys := buildSystem(b, registry.MustScenario("thm4.3-extraction").Spec, 8, 9000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simulated := core.SimulateTUsefulDetector(sys)
		violations := 0
		for _, r := range simulated {
			violations += len(fd.CheckGeneralizedStrongAccuracy(r))
			violations += len(fd.CheckTUseful(r, t))
		}
		if violations != 0 {
			b.Fatalf("simulated detector not %d-useful: %d violations", t, violations)
		}
	}
}

// BenchmarkExtraction tracks the knowledge-extraction hot path on the
// standing kx-* sample shape (n=7, 64 runs): building the interned epistemic
// index (serial, then one process per worker — the pair shows the fan-out
// Runner.Extract gets), the two knowledge-based run transforms over it
// (serial, so the recorded trajectory tracks the per-run cost), and the full
// parallel pipeline with its B/op.  `make bench` records it to BENCH_<n>.json alongside the sweeps.
func BenchmarkExtraction(b *testing.B) {
	perfect := registry.MustExtraction("kx-perfect").Extraction
	tuseful := registry.MustExtraction("kx-tuseful").Extraction
	runs := buildSystem(b, perfect.Source, perfect.Runs, perfect.BaseSeed).Runs()

	b.Run("index/n=7/runs=64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys := epistemic.NewSystem(runs)
			if sys.Size() != len(runs) {
				b.Fatalf("index dropped runs")
			}
		}
	})
	b.Run("index-parallel/n=7/runs=64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys := &epistemic.System{}
			sys.AddParallel(0, runs)
			if sys.Size() != len(runs) {
				b.Fatalf("index dropped runs")
			}
		}
	})

	// The incremental-index pair: rebuilding the doubled window from scratch
	// versus feeding only the delta to System.Add — the server's
	// extraction-source reuse path when a cached window grows.
	grown := buildSystem(b, perfect.Source, 2*perfect.Runs, perfect.BaseSeed).Runs()
	b.Run("index-rebuild/n=7/runs=128", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sys := epistemic.NewSystem(grown)
			if sys.Size() != len(grown) {
				b.Fatalf("index dropped runs")
			}
		}
	})
	b.Run("index-extend/n=7/runs=64to128", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sys := epistemic.NewSystem(grown[:perfect.Runs])
			b.StartTimer()
			sys.Add(grown[perfect.Runs:])
			if sys.Size() != len(grown) {
				b.Fatalf("index dropped runs")
			}
		}
	})

	sys := epistemic.NewSystem(runs)
	st := sys.Stats()
	b.Run("perfect-transform/n=7/runs=64", func(b *testing.B) {
		b.ReportMetric(float64(st.Classes), "classes")
		for i := 0; i < b.N; i++ {
			if out := core.SimulatePerfectDetector(sys); len(out) != sys.Size() {
				b.Fatalf("transform dropped runs")
			}
		}
	})
	b.Run("tuseful-transform/n=7/runs=64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if out := core.SimulateTUsefulDetector(sys); len(out) != sys.Size() {
				b.Fatalf("transform dropped runs")
			}
		}
	})

	for _, bench := range []struct {
		name string
		ext  workload.Extraction
	}{{"pipeline/kx-perfect", perfect}, {"pipeline/kx-tuseful", tuseful}} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := workload.Runner{}.Extract(bench.ext)
				if err != nil {
					b.Fatalf("extract: %v", err)
				}
				if !res.OK() {
					b.Fatalf("extracted detector violated its properties")
				}
			}
		})
	}
}

// BenchmarkEpistemicKnownCrashed benchmarks the knowledge queries that drive
// the extraction (the hot path of Theorems 3.6/4.3).
func BenchmarkEpistemicKnownCrashed(b *testing.B) {
	spec := workload.Spec{
		Name: "epistemic-bench", N: 5, MaxSteps: 250, TickEvery: 2, SuspectEvery: 3,
		Network:  sim.FairLossyNetwork(0.25),
		Oracle:   registry.MustOracle("strong", registry.Options{Seed: 3, FalseSuspicionRate: 0.2}),
		Protocol: registry.MustProtocol("strong", registry.Options{}), Actions: 5,
		MaxFailures: 2, ExactFailures: true, CrashEnd: 70,
	}
	sys := buildSystem(b, spec, 8, 9000)
	r := sys.RunAt(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := i % (r.Horizon + 1)
		for p := model.ProcID(0); int(p) < sys.N(); p++ {
			_ = sys.KnownCrashed(p, epistemic.Point{Run: 0, Time: m})
		}
	}
}

// BenchmarkUDCvsConsensus compares the cost of coordinating one action with
// UDC against deciding one value with consensus on the same substrate (E9),
// across system sizes.
func BenchmarkUDCvsConsensus(b *testing.B) {
	for _, n := range []int{4, 6, 8, 10} {
		udcSpec := workload.Spec{
			Name: "udc-cost", N: n, MaxSteps: 300, TickEvery: 2, SuspectEvery: 3,
			Network:  sim.FairLossyNetwork(0.3),
			Oracle:   registry.MustOracle("strong", registry.Options{Seed: 5, FalseSuspicionRate: 0.1}),
			Protocol: registry.MustProtocol("strong", registry.Options{}), Actions: 1, LastInitTime: 20,
			MaxFailures: 1, ExactFailures: true, CrashStart: 30, CrashEnd: 60,
		}
		consSpec := workload.Spec{
			Name: "consensus-cost", N: n, MaxSteps: 300, TickEvery: 2, SuspectEvery: 3,
			Network:  sim.FairLossyNetwork(0.3),
			Oracle:   registry.MustOracle("strong", registry.Options{Seed: 5, FalseSuspicionRate: 0.1}),
			Protocol: registry.MustProtocol("consensus-rotating", registry.Options{N: n}), Actions: 0,
			MaxFailures: 1, ExactFailures: true, CrashStart: 30, CrashEnd: 60,
		}
		consEval := registry.MustEvaluator("consensus", registry.Options{N: n})
		b.Run(fmt.Sprintf("UDC/n=%d", n), func(b *testing.B) {
			benchSerialSpec(b, udcSpec, workload.UDCEvaluator, func(i int) int64 { return int64(i) + 1 })
		})
		b.Run(fmt.Sprintf("consensus/n=%d", n), func(b *testing.B) {
			benchSerialSpec(b, consSpec, consEval, func(i int) int64 { return int64(i) + 1 })
		})
	}
}

// udcBenchSpec is the shared shape of the ablation benchmarks' workloads.
func udcBenchSpec(name string, n int, oracle fd.Oracle, factory sim.ProtocolFactory, failures int, net sim.NetworkConfig) workload.Spec {
	return workload.Spec{
		Name:          name,
		N:             n,
		MaxSteps:      400,
		TickEvery:     2,
		SuspectEvery:  3,
		Network:       net,
		Oracle:        oracle,
		Protocol:      factory,
		Actions:       n,
		MaxFailures:   failures,
		ExactFailures: true,
		CrashEnd:      100,
	}
}

// BenchmarkAblationDropRate sweeps the channel loss rate for the
// strong-detector UDC protocol.
func BenchmarkAblationDropRate(b *testing.B) {
	for _, drop := range []float64{0, 0.3, 0.6} {
		spec := udcBenchSpec(fmt.Sprintf("drop-%.1f", drop), 6,
			registry.MustOracle("strong", registry.Options{Seed: 2}),
			registry.MustProtocol("strong", registry.Options{}), 3, sim.FairLossyNetwork(drop))
		b.Run(fmt.Sprintf("drop=%.1f", drop), func(b *testing.B) {
			benchSerialSpec(b, spec, workload.UDCEvaluator, func(i int) int64 { return int64(i) + 1 })
		})
	}
}

// BenchmarkAblationRetransmission sweeps the retransmission (tick) period.
func BenchmarkAblationRetransmission(b *testing.B) {
	for _, tick := range []int{1, 2, 5, 10} {
		spec := udcBenchSpec("tick", 6,
			registry.MustOracle("strong", registry.Options{Seed: 2}),
			registry.MustProtocol("strong", registry.Options{}), 3, sim.FairLossyNetwork(0.3))
		spec.TickEvery = tick
		b.Run(fmt.Sprintf("tick=%d", tick), func(b *testing.B) {
			benchSerialSpec(b, spec, workload.UDCEvaluator, func(i int) int64 { return int64(i) + 1 })
		})
	}
}

// BenchmarkAblationDetectorClass compares UDC performance across the detector
// classes of Section 2.2 (all of which suffice, per Cor. 3.2, once the
// protocol accumulates suspicions), resolving every class from the registry.
func BenchmarkAblationDetectorClass(b *testing.B) {
	oracleNames := []string{
		"perfect",
		"strong",
		"impermanent-strong",
		"weak",
		"impermanent-weak",
		"correct-set-strong",
	}
	for _, name := range oracleNames {
		oracle := registry.MustOracle(name, registry.Options{Seed: 2})
		spec := udcBenchSpec("detector-"+name, 6, oracle,
			registry.MustProtocol("strong", registry.Options{}), 4, sim.FairLossyNetwork(0.3))
		b.Run(name, func(b *testing.B) {
			benchSerialSpec(b, spec, workload.UDCEvaluator, func(i int) int64 { return int64(i) + 1 })
		})
	}
}

// BenchmarkCrossoverNoDetectorUDC sweeps the failure bound t for the
// detector-free quorum protocol under an adversarial workload (early crashes,
// heavy loss).  The ok-rate series reproduces the Gopal-Toueg / Table 1
// boundary: coordination is reliably uniform for t < n/2 and starts failing
// once half or more of the processes may crash.
func BenchmarkCrossoverNoDetectorUDC(b *testing.B) {
	const n = 6
	for t := 1; t < n; t++ {
		spec := workload.Spec{
			Name:          fmt.Sprintf("crossover-t%d", t),
			N:             n,
			MaxSteps:      700,
			TickEvery:     2,
			Network:       sim.NetworkConfig{DropProbability: 0.85, MaxDelay: 6, FairnessBound: 50},
			Protocol:      registry.MustProtocol("quorum", registry.Options{T: t}),
			Actions:       n,
			LastInitTime:  25,
			MaxFailures:   t,
			ExactFailures: true,
			CrashStart:    2,
			CrashEnd:      35,
		}
		b.Run(fmt.Sprintf("t=%d", t), func(b *testing.B) {
			benchSerialSpec(b, spec, workload.UDCEvaluator, func(i int) int64 { return int64(i)*13 + 1 })
		})
	}
}

// BenchmarkAblationQuiescence compares the always-retransmitting protocol of
// Proposition 3.1 against the footnote-11 quiescent variant under a strongly
// accurate detector: same coordination outcome, a fraction of the messages.
func BenchmarkAblationQuiescence(b *testing.B) {
	for _, name := range []string{"retransmit-udc", "quiescent-udc"} {
		b.Run(name, func(b *testing.B) {
			benchScenario(b, name)
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed (steps and events
// per second) on one reused engine, independent of any property checking.
func BenchmarkSimulatorThroughput(b *testing.B) {
	spec := registry.MustScenario("throughput").Spec
	eng := sim.NewEngine()
	b.ResetTimer()
	events := 0
	for i := 0; i < b.N; i++ {
		res, err := workload.ExecuteWith(eng, spec, int64(i)+1)
		if err != nil {
			b.Fatalf("execute: %v", err)
		}
		events += res.Run.EventCount()
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
}

// BenchmarkParallelSweep measures sweep throughput end to end: b.N seeds of
// the Prop 3.1 scenario distributed over the worker pool, the shape every
// Table 1 row and ablation ultimately reduces to.
func BenchmarkParallelSweep(b *testing.B) {
	sc := registry.MustScenario("prop3.1-strong-udc")
	seeds := make([]int64, b.N)
	for i := range seeds {
		seeds[i] = int64(i) + 1
	}
	b.ResetTimer()
	result, err := workload.Runner{}.Sweep(sc.Spec, seeds, sc.Eval)
	if err != nil {
		b.Fatalf("sweep: %v", err)
	}
	var agg benchAgg
	for _, o := range result.Outcomes {
		agg.add(o)
	}
	agg.report(b)
}
