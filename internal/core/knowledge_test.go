package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/epistemic"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestProp35PerformanceKnowledge checks the operational reading of
// Proposition 3.5 on a sampled system of UDC runs: whenever any process
// performs an action, the performer knows the action was initiated, and some
// correct process knows it too (unless every process is faulty).
func TestProp35PerformanceKnowledge(t *testing.T) {
	spec := workload.Spec{
		Name:          "prop3.5",
		N:             5,
		MaxSteps:      350,
		TickEvery:     2,
		SuspectEvery:  3,
		Network:       sim.FairLossyNetwork(0.25),
		Oracle:        fd.StrongOracle{FalseSuspicionRate: 0.2, Seed: 23},
		Protocol:      core.NewStrongFDUDC,
		Actions:       6,
		MaxFailures:   3,
		ExactFailures: true,
		CrashEnd:      90,
	}
	_, sys := buildUDCSystem(t, spec, workload.Seeds(900, 12))

	observations, violations := core.CheckPerformanceKnowledge(sys)
	if len(observations) == 0 {
		t.Fatalf("no do events observed")
	}
	if len(violations) != 0 {
		t.Fatalf("Proposition 3.5 condition violated %d times, first: %v", len(violations), violations[0])
	}
	// Sanity: observations carry coherent data.
	for _, obs := range observations {
		if obs.Action.IsZero() {
			t.Fatalf("observation with zero action: %+v", obs)
		}
		if !obs.PerformerKnowsInit {
			t.Fatalf("violation list empty but observation says performer did not know: %+v", obs)
		}
	}
}

// TestProp35FormulaOnHandCraftedSystem evaluates the paper's formula itself on
// a tiny system where its truth can be verified by hand.
func TestProp35FormulaOnHandCraftedSystem(t *testing.T) {
	a := model.Action(0, 1)
	msg := model.Message{Kind: model.Kind("alpha"), Action: a}

	// Run 0: process 0 initiates, tells 1 and 2, everyone stays up.
	r0 := model.NewRun(3)
	appendEvent(t, r0, 0, 1, model.InitEvent(a))
	appendEvent(t, r0, 0, 2, model.SendEvent(1, msg))
	appendEvent(t, r0, 0, 2, model.SendEvent(2, msg))
	appendEvent(t, r0, 1, 4, model.RecvEvent(0, msg))
	appendEvent(t, r0, 2, 5, model.RecvEvent(0, msg))
	appendEvent(t, r0, 0, 6, model.DoEvent(a))
	r0.SetHorizon(10)

	// Run 1: nothing happens.
	r1 := model.NewRun(3)
	r1.SetHorizon(10)

	sys := epistemic.NewSystem(model.System{r0, r1})

	for p := model.ProcID(0); p < 3; p++ {
		f := core.Prop35Formula(3, p, a)
		valid, witness := sys.Valid(f)
		if !valid {
			t.Errorf("Prop 3.5 formula for observer %d is falsified at %+v", p, witness)
		}
	}

	// The do event at (r0, 6) satisfies the operational condition too.
	observations, violations := core.CheckPerformanceKnowledge(sys)
	if len(observations) != 1 {
		t.Fatalf("expected exactly one do event, got %d", len(observations))
	}
	if len(violations) != 0 {
		t.Fatalf("unexpected violations: %v", violations)
	}
	if !observations[0].HasCorrectWitness {
		t.Fatalf("expected a correct witness for the initiation")
	}
}

// TestPerformanceKnowledgeFlagsPrematurePerform builds a run in which a
// process performs an action that was never initiated anywhere: the checker
// must flag it (this is also a DC3 violation, but here we check the epistemic
// reading).
func TestPerformanceKnowledgeFlagsPrematurePerform(t *testing.T) {
	a := model.Action(0, 1)
	r := model.NewRun(2)
	appendEvent(t, r, 1, 3, model.DoEvent(a))
	r.SetHorizon(5)
	sys := epistemic.NewSystem(model.System{r})
	_, violations := core.CheckPerformanceKnowledge(sys)
	if len(violations) == 0 {
		t.Fatalf("performing a never-initiated action should violate the knowledge condition")
	}
}

func appendEvent(t *testing.T, r *model.Run, p model.ProcID, at int, e model.Event) {
	t.Helper()
	if err := r.Append(p, at, e); err != nil {
		t.Fatalf("append: %v", err)
	}
}
