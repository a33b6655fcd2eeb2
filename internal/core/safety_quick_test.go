package core_test

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The property-based tests in this file throw randomly drawn workloads (seed,
// crash count, loss rate, tick period, protocol) at the simulator and check
// the invariants that must hold on *every* run regardless of schedule:
//
//   - the safety clause DC3 (nothing is performed that was not initiated) and
//     at-most-once performance,
//   - the run conditions R1-R5 of the model, and
//   - determinism of the whole pipeline.
//
// Liveness clauses (DC1/DC2) are deliberately not asserted here because a
// random workload may not leave enough horizon for them; they are covered by
// the targeted per-proposition tests.

// quickParams is the randomised input shape for testing/quick.
type quickParams struct {
	Seed      int64
	Crashes   uint8
	DropTenth uint8 // drop probability in tenths, clamped to [0, 6]
	Tick      uint8
	Proto     uint8
	Actions   uint8
}

// spec converts the random parameters into a valid workload specification.
func (q quickParams) spec() workload.Spec {
	n := 5
	drop := float64(q.DropTenth%7) / 10
	tick := int(q.Tick%4) + 1
	crashes := int(q.Crashes) % (n + 1)
	actions := int(q.Actions)%6 + 1

	var factory sim.ProtocolFactory
	var oracle fd.Oracle
	switch q.Proto % 5 {
	case 0:
		factory, oracle = core.NewNUDC, nil
	case 1:
		factory, oracle = core.NewReliableUDC, nil
	case 2:
		factory, oracle = core.NewStrongFDUDC, fd.StrongOracle{FalseSuspicionRate: 0.2, Seed: q.Seed}
	case 3:
		factory, oracle = core.NewTUsefulUDC(crashes), fd.FaultySetOracle{}
	default:
		factory, oracle = core.NewQuorumUDC(2), nil
	}
	return workload.Spec{
		Name:         "quick",
		N:            n,
		MaxSteps:     150,
		TickEvery:    tick,
		SuspectEvery: 3,
		Network:      sim.FairLossyNetwork(drop),
		Oracle:       oracle,
		Protocol:     factory,
		Actions:      actions,
		MaxFailures:  crashes,
	}
}

// TestQuickSafetyInvariants checks DC3 and at-most-once performance on random
// workloads across every protocol.
func TestQuickSafetyInvariants(t *testing.T) {
	property := func(q quickParams) bool {
		res, err := workload.Execute(q.spec(), q.Seed)
		if err != nil {
			t.Logf("execute: %v", err)
			return false
		}
		run := res.Run
		initiated := make(map[model.ActionID]bool)
		for _, a := range run.InitiatedActions() {
			initiated[a] = true
		}
		for p := model.ProcID(0); int(p) < run.N; p++ {
			performed := make(map[model.ActionID]int)
			for _, te := range run.Events[p] {
				if te.Event.Kind != model.EventDo {
					continue
				}
				if !initiated[te.Event.Action()] {
					t.Logf("seed %d: process %d performed %v which was never initiated", q.Seed, p, te.Event.Action())
					return false
				}
				performed[te.Event.Action()]++
				if performed[te.Event.Action()] > 1 {
					t.Logf("seed %d: process %d performed %v twice", q.Seed, p, te.Event.Action())
					return false
				}
			}
		}
		// DC3 as checked by the specification checker must agree.
		for _, v := range core.CheckUDC(run) {
			if v.Rule == "DC3" {
				t.Logf("seed %d: %v", q.Seed, v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRunConditions checks R1-R5 on random workloads.
func TestQuickRunConditions(t *testing.T) {
	property := func(q quickParams) bool {
		res, err := workload.Execute(q.spec(), q.Seed)
		if err != nil {
			t.Logf("execute: %v", err)
			return false
		}
		if vs := model.Validate(res.Run, model.DefaultValidateOptions()); len(vs) > 0 {
			t.Logf("seed %d: %v", q.Seed, vs[0])
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDeterminism checks that re-running any randomly drawn configuration
// reproduces the identical run.
func TestQuickDeterminism(t *testing.T) {
	property := func(q quickParams) bool {
		spec := q.spec()
		first, err := workload.Execute(spec, q.Seed)
		if err != nil {
			t.Logf("execute: %v", err)
			return false
		}
		second, err := workload.Execute(spec, q.Seed)
		if err != nil {
			t.Logf("execute: %v", err)
			return false
		}
		if first.Stats != second.Stats {
			return false
		}
		for p := model.ProcID(0); int(p) < spec.N; p++ {
			if first.Run.FinalHistory(p).Key() != second.Run.FinalHistory(p).Key() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestHorizonInsensitivity re-runs two liveness-sensitive scenarios with a
// doubled horizon and checks that no verdict changes: the finite-trace
// semantics is already stable at the default horizon (see EXPERIMENTS.md,
// "Horizon sensitivity").
func TestHorizonInsensitivity(t *testing.T) {
	scenarios := []workload.Spec{
		// LastInitTime and the crash window are pinned explicitly so that
		// doubling MaxSteps changes only the horizon, not the generated
		// workload.
		{
			Name: "horizon-nudc", N: 6, MaxSteps: 400, TickEvery: 2,
			Network: sim.FairLossyNetwork(0.3), Protocol: core.NewNUDC,
			Actions: 6, LastInitTime: 100, MaxFailures: 6, CrashStart: 1, CrashEnd: 200,
		},
		{
			Name: "horizon-tuseful", N: 7, MaxSteps: 500, TickEvery: 2, SuspectEvery: 3,
			Network: sim.FairLossyNetwork(0.3), Oracle: fd.FaultySetOracle{},
			Protocol: core.NewTUsefulUDC(4), Actions: 7, LastInitTime: 125,
			MaxFailures: 4, ExactFailures: true, CrashStart: 1, CrashEnd: 120,
		},
	}
	evaluators := []workload.Evaluator{workload.NUDCEvaluator, workload.UDCEvaluator}
	for i, base := range scenarios {
		doubled := base
		doubled.MaxSteps *= 2
		seeds := workload.Seeds(777, 8)
		baseRes, err := workload.Sweep(base, seeds, evaluators[i])
		if err != nil {
			t.Fatalf("sweep: %v", err)
		}
		doubledRes, err := workload.Sweep(doubled, seeds, evaluators[i])
		if err != nil {
			t.Fatalf("sweep: %v", err)
		}
		if baseRes.Successes() != len(seeds) {
			t.Fatalf("%s: expected all seeds to pass at the default horizon", base.Name)
		}
		if doubledRes.Successes() != baseRes.Successes() {
			t.Fatalf("%s: verdicts changed when doubling the horizon: %d vs %d ok",
				base.Name, baseRes.Successes(), doubledRes.Successes())
		}
	}
}
