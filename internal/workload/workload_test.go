package workload_test

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/workload"
)

func baseSpec() workload.Spec {
	return workload.Spec{
		Name:        "test",
		N:           5,
		MaxSteps:    200,
		TickEvery:   2,
		Network:     sim.FairLossyNetwork(0.3),
		Protocol:    core.NewNUDC,
		Actions:     5,
		MaxFailures: 2,
	}
}

func TestBuildConfigDeterministic(t *testing.T) {
	spec := baseSpec()
	a := workload.BuildConfig(spec, 7)
	b := workload.BuildConfig(spec, 7)
	if len(a.Crashes) != len(b.Crashes) || len(a.Initiations) != len(b.Initiations) {
		t.Fatalf("same seed produced different workloads")
	}
	for i := range a.Crashes {
		if a.Crashes[i] != b.Crashes[i] {
			t.Fatalf("crash schedules differ at %d", i)
		}
	}
	for i := range a.Initiations {
		if a.Initiations[i] != b.Initiations[i] {
			t.Fatalf("initiation schedules differ at %d", i)
		}
	}
	c := workload.BuildConfig(spec, 8)
	if len(a.Crashes) == len(c.Crashes) && len(a.Crashes) > 0 && a.Crashes[0] == c.Crashes[0] &&
		len(a.Initiations) > 0 && len(c.Initiations) > 0 && a.Initiations[0].Time == c.Initiations[0].Time {
		t.Logf("different seeds happened to coincide on the first elements; acceptable but unusual")
	}
}

func TestBuildConfigRespectsBounds(t *testing.T) {
	spec := baseSpec()
	spec.MaxFailures = 3
	spec.ExactFailures = true
	spec.CrashStart = 10
	spec.CrashEnd = 20
	spec.LastInitTime = 50
	for _, seed := range workload.Seeds(3, 20) {
		cfg := workload.BuildConfig(spec, seed)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("seed %d: invalid config: %v", seed, err)
		}
		if len(cfg.Crashes) != 3 {
			t.Fatalf("seed %d: %d crashes, want exactly 3", seed, len(cfg.Crashes))
		}
		crashed := model.EmptySet()
		for _, cr := range cfg.Crashes {
			if cr.Time < 10 || cr.Time > 20 {
				t.Fatalf("seed %d: crash time %d outside [10,20]", seed, cr.Time)
			}
			if crashed.Has(cr.Proc) {
				t.Fatalf("seed %d: process %d crashed twice", seed, cr.Proc)
			}
			crashed = crashed.Add(cr.Proc)
		}
		if len(cfg.Initiations) != spec.Actions {
			t.Fatalf("seed %d: %d initiations, want %d", seed, len(cfg.Initiations), spec.Actions)
		}
		seen := make(map[model.ActionID]bool)
		for _, in := range cfg.Initiations {
			if in.Time < 1 || in.Time > 50 {
				t.Fatalf("seed %d: initiation time %d outside [1,50]", seed, in.Time)
			}
			if in.Action.Initiator != in.Proc {
				t.Fatalf("seed %d: action %v initiated by %d", seed, in.Action, in.Proc)
			}
			if seen[in.Action] {
				t.Fatalf("seed %d: duplicate action %v", seed, in.Action)
			}
			seen[in.Action] = true
		}
	}
}

func TestBuildConfigDefaultsAndClamps(t *testing.T) {
	spec := baseSpec()
	spec.MaxFailures = 99 // more than N: clamped
	spec.LastInitTime = 0 // defaults to MaxSteps/4
	cfg := workload.BuildConfig(spec, 5)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("config invalid: %v", err)
	}
	if len(cfg.Crashes) > spec.N {
		t.Fatalf("more crashes than processes")
	}
	for _, in := range cfg.Initiations {
		if in.Time > spec.MaxSteps/4 {
			t.Fatalf("initiation time %d beyond default LastInitTime", in.Time)
		}
	}
}

func TestSeeds(t *testing.T) {
	s := workload.Seeds(10, 4)
	if len(s) != 4 || s[0] != 10 {
		t.Fatalf("Seeds = %v", s)
	}
	uniq := make(map[int64]bool)
	for _, v := range s {
		uniq[v] = true
	}
	if len(uniq) != 4 {
		t.Fatalf("seeds are not distinct: %v", s)
	}
}

func TestSweepAggregation(t *testing.T) {
	spec := baseSpec()
	spec.MaxFailures = 0
	res, err := workload.Sweep(spec, workload.Seeds(1, 5), workload.NUDCEvaluator)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if len(res.Outcomes) != 5 {
		t.Fatalf("expected 5 outcomes")
	}
	if res.Successes() != 5 || res.SuccessRate() != 1 {
		t.Fatalf("failure-free nUDC sweep should fully succeed: %d/%d", res.Successes(), len(res.Outcomes))
	}
	if res.TotalViolations() != 0 {
		t.Fatalf("unexpected violations: %d", res.TotalViolations())
	}
	if res.MeanMessages() <= 0 {
		t.Fatalf("mean messages should be positive")
	}
	if res.MeanLatency() < 0 {
		t.Fatalf("latency should be measurable when all actions complete")
	}
	line := res.String()
	if !strings.Contains(line, spec.Name) || !strings.Contains(line, "ok=5/5") {
		t.Fatalf("summary line %q missing fields", line)
	}
}

func TestSweepReportsViolations(t *testing.T) {
	// The one-shot reliable-channel protocol over very lossy channels with
	// many early crashes must violate UDC in some run; the sweep should count
	// that, not hide it.
	spec := workload.Spec{
		Name:          "expected-failures",
		N:             6,
		MaxSteps:      250,
		TickEvery:     2,
		Network:       sim.NetworkConfig{DropProbability: 0.85, MaxDelay: 6, FairnessBound: 200},
		Protocol:      core.NewReliableUDC,
		Actions:       6,
		MaxFailures:   5,
		ExactFailures: true,
		CrashEnd:      25,
	}
	res, err := workload.Sweep(spec, workload.Seeds(11, 20), workload.UDCEvaluator)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if res.Successes() == len(res.Outcomes) {
		t.Fatalf("expected at least one violated run")
	}
	if res.TotalViolations() == 0 {
		t.Fatalf("violations not reported")
	}
	if res.SuccessRate() >= 1 {
		t.Fatalf("success rate should reflect failures")
	}
}

func TestEmptySweep(t *testing.T) {
	res, err := workload.Sweep(baseSpec(), nil, workload.UDCEvaluator)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if res.SuccessRate() != 0 || res.MeanMessages() != 0 || res.MeanLatency() != -1 {
		t.Fatalf("empty sweep aggregates wrong: %+v", res)
	}
}

func TestExecutePropagatesErrors(t *testing.T) {
	spec := baseSpec()
	spec.N = 0
	if _, err := workload.Execute(spec, 1); err == nil {
		t.Fatalf("expected an error for an invalid spec")
	}
}

// sweepAllocPerSeed returns the bytes a Runner.Sweep of baseSpec over seeds
// allocates per seed.
func sweepAllocPerSeed(t *testing.T, workers int, seeds []int64) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := (workload.Runner{Workers: workers}).Sweep(baseSpec(), seeds, workload.UDCEvaluator); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(len(seeds))
}

// TestRunnerSweepReusesEngines pins what a warmed Runner.Sweep allocates per
// seed, which is two contracts at once.  The engine free list: a pass borrows
// the engines an earlier pass warmed, instead of growing fresh ones (a fresh
// engine costs about 15 MiB on baseSpec before its first seed is done, 240
// KiB a seed over this sweep).  And the borrowed run: SweepAll scores each run
// in its engine's arena, so no per-seed slab is built (one owned run of
// baseSpec is a slab of about 1.9 MiB, which is what this sweep allocated per
// seed while SweepAll built its runs).  What remains is the seed's protocol
// instances, its Config and its outcome — 9 KiB measured while each seed drew
// its config from a fresh random source, 3 since; the bar sits at 12, and
// TestSweepAllocPerSeed holds the tighter line.
// The best of a few tries is taken, so a stray allocation elsewhere in the
// process does not decide it.
func TestRunnerSweepReusesEngines(t *testing.T) {
	seeds := workload.Seeds(5, 64)
	const bound = 12 << 10         // bytes per seed
	sweepAllocPerSeed(t, 1, seeds) // warm-up
	best := sweepAllocPerSeed(t, 1, seeds)
	for try := 1; try < 8 && best > bound; try++ {
		best = min(best, sweepAllocPerSeed(t, 1, seeds))
	}
	t.Logf("warmed Runner.Sweep: %.1f KiB per seed", float64(best)/1024)
	if best > bound {
		t.Fatalf("a warmed %d-seed Runner.Sweep allocates %d bytes per seed, want <= %d: the pass is building runs or not reusing its engines", len(seeds), best, bound)
	}
}

// sweepOfflineScenarios are the catalog scenarios the end-to-end benchmark's
// sweep-offline workload sweeps: five UDC protocols and one consensus one.
var sweepOfflineScenarios = []string{
	"prop2.3-nudc", "prop2.4-reliable-udc", "prop3.1-strong-udc",
	"prop4.1-tuseful-udc", "adv-burst-loss-strong-udc", "adv-targeted-consensus",
}

// catalogSweepAllocPerSeed returns the bytes one Runner.Sweep of each
// sweep-offline scenario over seeds allocates per seed.
func catalogSweepAllocPerSeed(t *testing.T, seeds []int64) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, name := range sweepOfflineScenarios {
		sc := registry.MustScenario(name)
		if _, err := (workload.Runner{Workers: 1}).Sweep(sc.Spec, seeds, sc.Eval); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(len(seeds)*len(sweepOfflineScenarios))
}

// TestSweepAllocPerSeed pins what a warm seed of the catalog's sweeps
// allocates: its protocol instances, its Config and its outcome.  While
// BuildConfig gave every seed a fresh random source (607 words of
// lagged-Fibonacci state, about 4.75 KiB) and every protocol instance kept
// its per-action state in maps, these sweeps allocated 9.9 KiB a seed; with
// the engine's source lent to config building, 4.6; with one ordered action
// table per protocol instead of the maps, 2.3.  Putting back one map per
// protocol instance (the old membership map alone) measured 3.5, so the bar
// sits at 3: either regression fails it.  The best of a few tries is taken,
// so a stray allocation elsewhere in the process does not decide it.
func TestSweepAllocPerSeed(t *testing.T) {
	seeds := workload.Seeds(1, 64)
	const bound = 3 << 10              // bytes per seed
	catalogSweepAllocPerSeed(t, seeds) // warm-up
	best := catalogSweepAllocPerSeed(t, seeds)
	for try := 1; try < 4 && best > bound; try++ {
		best = min(best, catalogSweepAllocPerSeed(t, seeds))
	}
	t.Logf("warmed sweep-offline scenarios: %.2f KiB per seed (bar %d)", float64(best)/1024, bound>>10)
	if best > bound {
		t.Fatalf("a warmed %d-seed sweep of the sweep-offline scenarios allocates %d bytes per seed, want <= %d: a per-run random source or per-run protocol map is back", len(seeds), best, bound)
	}
}

// TestEnginesSurviveGC pins the engine free list's retention: engines an
// earlier pass warmed are still there after garbage collections, so the next
// pass does not regrow them.  The sweep is first repeated until it runs warm
// (an engine inherited from another test may take a pass or two to meet this
// sweep's largest histories).  A sync.Pool empties within two GCs, and the
// sweep after them then allocated about 540 KiB a seed regrowing both engines;
// with the engines kept it allocates about 9, as a warmed sweep does.
func TestEnginesSurviveGC(t *testing.T) {
	seeds := workload.Seeds(5, 64)
	const bound = 32 << 10 // bytes per seed
	warm := sweepAllocPerSeed(t, 2, seeds)
	for try := 1; try < 8 && warm > bound; try++ {
		warm = sweepAllocPerSeed(t, 2, seeds)
	}
	if warm > bound {
		t.Fatalf("a repeated %d-seed Runner.Sweep still allocates %d bytes per seed, want <= %d", len(seeds), warm, bound)
	}
	runtime.GC()
	runtime.GC()
	perSeed := sweepAllocPerSeed(t, 2, seeds)
	t.Logf("Runner.Sweep after two GCs: %.1f KiB per seed", float64(perSeed)/1024)
	if perSeed > bound {
		t.Fatalf("a %d-seed Runner.Sweep after two GCs allocates %d bytes per seed, want <= %d: its engines were dropped", len(seeds), perSeed, bound)
	}
}
