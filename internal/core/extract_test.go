package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/epistemic"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/workload"
)

// buildUDCSystem runs a UDC-attaining protocol over many seeds and returns the
// sampled system together with the recorded runs.  Crashes happen early and
// actions keep being initiated afterwards, approximating the theorem's
// "infinitely many actions are initiated" hypothesis on a finite horizon.
func buildUDCSystem(t *testing.T, spec workload.Spec, seeds []int64) (model.System, *epistemic.System) {
	t.Helper()
	runs := make(model.System, 0, len(seeds))
	for _, seed := range seeds {
		res, err := workload.Execute(spec, seed)
		if err != nil {
			t.Fatalf("execute seed %d: %v", seed, err)
		}
		if vs := core.CheckUDC(res.Run); len(vs) > 0 {
			t.Fatalf("seed %d: source protocol violated UDC: %v", seed, vs[0])
		}
		runs = append(runs, res.Run)
	}
	return runs, epistemic.NewSystem(runs)
}

// TestTheorem36PerfectDetectorSimulation reproduces Theorem 3.6: from a system
// that attains UDC (here via a merely *strong* detector that falsely suspects
// correct processes), the knowledge-based construction P1-P3 yields a detector
// that is perfect — strongly accurate even though the source detector was not,
// and strongly complete.  It runs on a hand-built spec and on the catalog's
// thm3.6-extraction sampling shape.
func TestTheorem36PerfectDetectorSimulation(t *testing.T) {
	for _, tc := range []struct {
		spec  workload.Spec
		seeds []int64
	}{
		{workload.Spec{
			Name:          "thm3.6-source",
			N:             5,
			MaxSteps:      400,
			TickEvery:     2,
			SuspectEvery:  3,
			Network:       sim.FairLossyNetwork(0.25),
			Oracle:        fd.StrongOracle{FalseSuspicionRate: 0.3, Seed: 17},
			Protocol:      core.NewStrongFDUDC,
			Actions:       8,
			LastInitTime:  250,
			MaxFailures:   3,
			ExactFailures: true,
			CrashEnd:      100,
		}, workload.Seeds(100, 20)},
		{registry.MustScenario("thm3.6-extraction").Spec, workload.Seeds(9000, 10)},
	} {
		t.Run(tc.spec.Name, func(t *testing.T) {
			runs, sys := buildUDCSystem(t, tc.spec, tc.seeds)

			// The source detector is strong but not perfect: confirm that at
			// least one source run contains a false suspicion, so the accuracy
			// of the simulated detector below is not inherited trivially.
			sourceFalse := 0
			for _, r := range runs {
				sourceFalse += len(fd.CheckStrongAccuracy(r))
			}
			if sourceFalse == 0 {
				t.Fatalf("expected the source strong detector to produce false suspicions; adjust FalseSuspicionRate")
			}

			simulated := core.SimulatePerfectDetector(sys)
			if len(simulated) != len(runs) {
				t.Fatalf("expected %d transformed runs, got %d", len(runs), len(simulated))
			}
			for i, r := range simulated {
				if vs := fd.CheckStrongAccuracy(r); len(vs) > 0 {
					t.Errorf("run %d: simulated detector violates strong accuracy: %v", i, vs[0])
				}
				if vs := fd.CheckStrongCompleteness(r); len(vs) > 0 {
					t.Errorf("run %d: simulated detector violates strong completeness: %v", i, vs[0])
				}
			}
		})
	}
}

// TestTheorem36PreservesEvents checks structural properties of the f
// transformation: original non-detector events appear (in order, at doubled
// times), original detector events are removed, and crashes stay final.
func TestTheorem36PreservesEvents(t *testing.T) {
	spec := workload.Spec{
		Name:          "thm3.6-structure",
		N:             4,
		MaxSteps:      200,
		TickEvery:     2,
		SuspectEvery:  4,
		Network:       sim.FairLossyNetwork(0.2),
		Oracle:        fd.StrongOracle{FalseSuspicionRate: 0.2, Seed: 3},
		Protocol:      core.NewStrongFDUDC,
		Actions:       4,
		MaxFailures:   2,
		ExactFailures: true,
		CrashEnd:      60,
	}
	runs, sys := buildUDCSystem(t, spec, workload.Seeds(300, 6))
	simulated := core.SimulatePerfectDetector(sys)

	for i, orig := range runs {
		xform := simulated[i]
		if got, want := xform.Horizon, 2*orig.Horizon+1; got != want {
			t.Fatalf("run %d: horizon %d, want %d", i, got, want)
		}
		for p := model.ProcID(0); int(p) < orig.N; p++ {
			var origEvents, xformEvents []model.Event
			for _, te := range orig.Events[p] {
				if te.Event.Kind != model.EventSuspect {
					origEvents = append(origEvents, te.Event)
				}
			}
			for _, te := range xform.Events[p] {
				if te.Event.Kind != model.EventSuspect {
					xformEvents = append(xformEvents, te.Event)
				}
			}
			if len(origEvents) != len(xformEvents) {
				t.Fatalf("run %d process %d: %d non-detector events became %d", i, p, len(origEvents), len(xformEvents))
			}
			for j := range origEvents {
				if origEvents[j].IdentityHash() != xformEvents[j].IdentityHash() {
					t.Fatalf("run %d process %d: event %d changed under f", i, p, j)
				}
			}
			if ct, ok := orig.CrashTime(p); ok {
				xct, xok := xform.CrashTime(p)
				if !xok || xct != 2*ct {
					t.Fatalf("run %d process %d: crash time %d not doubled (got %d, ok=%v)", i, p, ct, xct, xok)
				}
			}
			if vs := model.Validate(xform, model.ValidateOptions{}); len(vs) > 0 {
				t.Fatalf("run %d: transformed run violates run conditions: %v", i, vs[0])
			}
		}
	}
}

// TestTheorem43TUsefulDetectorSimulation reproduces Theorem 4.3: in a context
// with at most t failures, the P3' construction yields a t-useful generalized
// failure detector.  It runs on a hand-built spec and on the catalog's
// thm4.3-extraction sampling shape, each with t its MaxFailures.
func TestTheorem43TUsefulDetectorSimulation(t *testing.T) {
	const failureBound = 2
	for _, tc := range []struct {
		spec  workload.Spec
		seeds []int64
	}{
		{workload.Spec{
			Name:          "thm4.3-source",
			N:             5,
			MaxSteps:      600,
			TickEvery:     2,
			SuspectEvery:  3,
			Network:       sim.FairLossyNetwork(0.25),
			Oracle:        fd.FaultySetOracle{},
			Protocol:      core.NewTUsefulUDC(failureBound),
			Actions:       10,
			LastInitTime:  400,
			MaxFailures:   failureBound,
			ExactFailures: true,
			CrashEnd:      120,
		}, workload.Seeds(500, 15)},
		{registry.MustScenario("thm4.3-extraction").Spec, workload.Seeds(9000, 8)},
	} {
		t.Run(tc.spec.Name, func(t *testing.T) {
			_, sys := buildUDCSystem(t, tc.spec, tc.seeds)

			simulated := core.SimulateTUsefulDetector(sys)
			for i, r := range simulated {
				if vs := fd.CheckGeneralizedStrongAccuracy(r); len(vs) > 0 {
					t.Errorf("run %d: simulated generalized detector violates accuracy: %v", i, vs[0])
				}
				if vs := fd.CheckTUseful(r, tc.spec.MaxFailures); len(vs) > 0 {
					t.Errorf("run %d: simulated detector is not %d-useful: %v", i, tc.spec.MaxFailures, vs[0])
				}
			}
		})
	}
}

// TestCheckA5 exercises the A5_t sample check used to document the extraction
// experiments' preconditions.
func TestCheckA5(t *testing.T) {
	mk := func(n int, crashed ...model.ProcID) *model.Run {
		r := model.NewRun(n)
		for _, p := range crashed {
			if err := r.Append(p, 1, model.Event{Kind: model.EventCrash}); err != nil {
				t.Fatalf("append: %v", err)
			}
		}
		r.SetHorizon(10)
		return r
	}
	complete := model.System{
		mk(3), mk(3, 0), mk(3, 1), mk(3, 2),
	}
	if vs := core.CheckA5(complete, 1); len(vs) != 0 {
		t.Fatalf("expected A5_1 to hold, got %v", vs)
	}
	if vs := core.CheckA5(complete, 2); len(vs) == 0 {
		t.Fatalf("expected A5_2 to fail on a sample with only singleton failure sets")
	}
	if vs := core.CheckA5(nil, 0); len(vs) == 0 {
		t.Fatalf("expected empty system to be rejected")
	}
}

// TestTransformerParallelMatchesSerial locks the transform engine's contract:
// for any worker count, the transformed system is byte-identical to the
// serial reference, for both constructions.
func TestTransformerParallelMatchesSerial(t *testing.T) {
	spec := workload.Spec{
		Name:          "transformer-determinism",
		N:             5,
		MaxSteps:      300,
		TickEvery:     2,
		SuspectEvery:  3,
		Network:       sim.FairLossyNetwork(0.25),
		Oracle:        fd.StrongOracle{FalseSuspicionRate: 0.3, Seed: 17},
		Protocol:      core.NewStrongFDUDC,
		Actions:       6,
		LastInitTime:  200,
		MaxFailures:   2,
		ExactFailures: true,
		CrashEnd:      80,
	}
	_, sys := buildUDCSystem(t, spec, workload.Seeds(800, 8))

	digest := func(runs model.System) string {
		var b strings.Builder
		for _, r := range runs {
			b.WriteString(runDigest(r))
		}
		return b.String()
	}

	wantPerfect := digest(core.SimulatePerfectDetector(sys))
	wantTUseful := digest(core.SimulateTUsefulDetector(sys))
	for _, workers := range []int{0, 2, 8} {
		tr := core.Transformer{Workers: workers}
		if got := digest(tr.SimulatePerfectDetector(sys)); got != wantPerfect {
			t.Errorf("perfect transform with %d workers differs from serial", workers)
		}
		if got := digest(tr.SimulateTUsefulDetector(sys)); got != wantTUseful {
			t.Errorf("t-useful transform with %d workers differs from serial", workers)
		}
	}
}

// TestTransformFillsOneExactSlabPerRun pins the shape of f(r): every
// history is filled to its capacity (the run was sized before it was built,
// so no event slot is allocated and zeroed that is not then written), and a
// transform allocates a fixed number of objects per run and per process —
// nothing per event, however long the histories are.
func TestTransformFillsOneExactSlabPerRun(t *testing.T) {
	spec := workload.Spec{
		Name:          "transform-allocation",
		N:             5,
		MaxSteps:      300,
		TickEvery:     2,
		SuspectEvery:  3,
		Network:       sim.FairLossyNetwork(0.25),
		Oracle:        fd.StrongOracle{FalseSuspicionRate: 0.3, Seed: 17},
		Protocol:      core.NewStrongFDUDC,
		Actions:       6,
		LastInitTime:  200,
		MaxFailures:   2,
		ExactFailures: true,
		CrashEnd:      80,
	}
	runs, sys := buildUDCSystem(t, spec, workload.Seeds(800, 8))
	for name, transform := range map[string]func(*epistemic.System) model.System{
		"perfect":  core.SimulatePerfectDetector,
		"t-useful": core.SimulateTUsefulDetector,
	} {
		events := 0
		for i, r := range transform(sys) {
			for p, evs := range r.Events {
				if len(evs) != cap(evs) {
					t.Errorf("%s: run %d process %d fills %d of %d event slots", name, i, p, len(evs), cap(evs))
				}
				events += len(evs)
			}
		}
		// Per transform: the result and the pool's closures.  Per run: the
		// run, its span table, the slab and the size table.  Per process: the
		// reporter and the cursors it captures.
		limit := float64(4 + len(runs)*(4+3*spec.N))
		if allocs := testing.AllocsPerRun(5, func() { transform(sys) }); allocs > limit {
			t.Errorf("%s: %.0f allocations for %d runs of %d events, want at most %.0f", name, allocs, len(runs), events, limit)
		}
	}
}

// runDigest renders a run's shape and every event's identity, in history
// order.
func runDigest(r *model.Run) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d/%d:", r.N, r.Horizon)
	for p := range r.Events {
		for i := range r.Events[p] {
			te := &r.Events[p][i]
			fmt.Fprintf(&b, "%d@%d=%x;", p, te.Time, te.Event.IdentityHash())
		}
	}
	return b.String()
}

// TestVisitLendsTheRunsSimulateBuilds pins the lending path against the
// retaining one: for both constructions and any worker count, the run handed
// to visit for slot ri is, event for event, slot ri of Simulate…Detector.
// The visited run lives in an arena its worker reuses, and this spec's
// crashes make f(r)'s histories differ in length from run to run, so a short
// history recorded after a longer one on the same arena must show none of the
// longer one's events — which only holds while the arena's Reset truncates.
func TestVisitLendsTheRunsSimulateBuilds(t *testing.T) {
	spec := workload.Spec{
		Name:          "transform-allocation",
		N:             5,
		MaxSteps:      300,
		TickEvery:     2,
		SuspectEvery:  3,
		Network:       sim.FairLossyNetwork(0.25),
		Oracle:        fd.StrongOracle{FalseSuspicionRate: 0.3, Seed: 17},
		Protocol:      core.NewStrongFDUDC,
		Actions:       6,
		LastInitTime:  200,
		MaxFailures:   2,
		ExactFailures: true,
		CrashEnd:      80,
	}
	_, sys := buildUDCSystem(t, spec, workload.Seeds(800, 8))
	constructions := []struct {
		name     string
		simulate func(*epistemic.System) model.System
		visit    func(core.Transformer, *epistemic.System, func(int, *model.Run))
	}{
		{"perfect", core.SimulatePerfectDetector, core.Transformer.VisitPerfectDetector},
		{"t-useful", core.SimulateTUsefulDetector, core.Transformer.VisitTUsefulDetector},
	}
	for _, c := range constructions {
		built := c.simulate(sys)
		shrinks := 0
		for i := 1; i < len(built); i++ {
			for p := range built[i].Events {
				if len(built[i].Events[p]) < len(built[i-1].Events[p]) {
					shrinks++
				}
			}
		}
		if shrinks == 0 {
			t.Fatalf("%s: no history is shorter than the one before it; the spec no longer exercises arena reuse", c.name)
		}
		for _, workers := range []int{1, 2, 4} {
			lent := make([]string, len(built))
			c.visit(core.Transformer{Workers: workers}, sys, func(ri int, run *model.Run) { lent[ri] = runDigest(run) })
			for ri, r := range built {
				if lent[ri] != runDigest(r) {
					t.Errorf("%s, %d workers: run %d visited differs from the run Simulate builds", c.name, workers, ri)
				}
			}
		}
	}
}

// TestTUsefulSubsetIndexFollowsPrefixLength pins the subset enumeration of P3'
// against its definition: the report at time 2m+1 names the subset indexed by
// |r_p(m+1)|, which the transform tracks with a cursor instead of searching
// for at every step.
func TestTUsefulSubsetIndexFollowsPrefixLength(t *testing.T) {
	spec := workload.Spec{
		Name:          "tuseful-subset-index",
		N:             4,
		MaxSteps:      250,
		TickEvery:     2,
		SuspectEvery:  3,
		Network:       sim.FairLossyNetwork(0.2),
		Oracle:        fd.FaultySetOracle{},
		Protocol:      core.NewTUsefulUDC(2),
		Actions:       5,
		LastInitTime:  150,
		MaxFailures:   2,
		ExactFailures: true,
		CrashEnd:      60,
	}
	runs, sys := buildUDCSystem(t, spec, workload.Seeds(40, 6))
	for i, xform := range core.SimulateTUsefulDetector(sys) {
		orig := runs[i]
		for p := model.ProcID(0); int(p) < orig.N; p++ {
			reports := 0
			for j := range xform.Events[p] {
				te := &xform.Events[p][j]
				if te.Event.Kind != model.EventSuspect {
					continue
				}
				reports++
				next := min((te.Time-1)/2+1, orig.Horizon)
				want := model.ProcSet(orig.PrefixLen(p, next) % (1 << orig.N))
				if got := te.Event.Report().Group; got != want {
					t.Fatalf("run %d process %d time %d: group %s, want %s", i, p, te.Time, got, want)
				}
			}
			if reports == 0 {
				t.Fatalf("run %d process %d: no simulated reports", i, p)
			}
		}
	}
}
