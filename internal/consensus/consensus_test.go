package consensus_test

import (
	"testing"

	"repro/internal/consensus"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/workload"
)

// proposalsFor builds a proposal map with distinct values per process.
func proposalsFor(n int) map[model.ProcID]int {
	out := make(map[model.ProcID]int, n)
	for i := 0; i < n; i++ {
		out[model.ProcID(i)] = 100 + i
	}
	return out
}

// runConsensus executes a consensus scenario for one seed.
func runConsensus(t *testing.T, spec workload.Spec, seed int64) *model.Run {
	t.Helper()
	res, err := workload.Execute(spec, seed)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	return res.Run
}

// TestRotatingWithStrongDetector checks the Table 1 consensus row for
// n/2 <= t <= n-1: the rotating-coordinator algorithm solves uniform consensus
// with a strong detector even when a majority of processes crash.
func TestRotatingWithStrongDetector(t *testing.T) {
	n := 6
	proposals := proposalsFor(n)
	spec := workload.Spec{
		Name:          "consensus-rotating-strong",
		N:             n,
		MaxSteps:      400,
		TickEvery:     2,
		SuspectEvery:  3,
		Network:       sim.FairLossyNetwork(0.3),
		Oracle:        fd.StrongOracle{FalseSuspicionRate: 0.2, Seed: 9},
		Protocol:      consensus.NewRotating(proposals),
		MaxFailures:   n - 1,
		ExactFailures: true,
		CrashEnd:      100,
	}
	for _, seed := range workload.Seeds(1, 25) {
		run := runConsensus(t, spec, seed)
		if vs := consensus.CheckConsensus(run, proposals); len(vs) > 0 {
			t.Errorf("seed %d: %v", seed, vs[0])
		}
	}
}

// TestRotatingSafetyWithPerfectDetector checks the rotating algorithm with a
// perfect detector and reliable channels (the easiest regime of Table 1).
func TestRotatingSafetyWithPerfectDetector(t *testing.T) {
	n := 5
	proposals := proposalsFor(n)
	spec := workload.Spec{
		Name:          "consensus-rotating-perfect",
		N:             n,
		MaxSteps:      300,
		TickEvery:     2,
		SuspectEvery:  2,
		Network:       sim.ReliableNetwork(),
		Oracle:        fd.PerfectOracle{},
		Protocol:      consensus.NewRotating(proposals),
		MaxFailures:   n - 1,
		ExactFailures: false,
		CrashEnd:      80,
	}
	for _, seed := range workload.Seeds(40, 25) {
		run := runConsensus(t, spec, seed)
		if vs := consensus.CheckConsensus(run, proposals); len(vs) > 0 {
			t.Errorf("seed %d: %v", seed, vs[0])
		}
	}
}

// TestMajorityWithEventuallyStrongDetector checks the Table 1 consensus row
// for t < n/2: the Chandra-Toueg majority algorithm solves uniform consensus
// with only an eventually-strong detector.
func TestMajorityWithEventuallyStrongDetector(t *testing.T) {
	n := 7
	proposals := proposalsFor(n)
	spec := workload.Spec{
		Name:          "consensus-majority-diamond",
		N:             n,
		MaxSteps:      600,
		TickEvery:     2,
		SuspectEvery:  3,
		Network:       sim.FairLossyNetwork(0.2),
		Oracle:        fd.EventuallyStrongOracle{StabilizeAt: 120, ChaosRate: 0.15, Seed: 21},
		Protocol:      consensus.NewMajority(proposals),
		MaxFailures:   3,
		ExactFailures: true,
		CrashEnd:      100,
	}
	for _, seed := range workload.Seeds(70, 20) {
		run := runConsensus(t, spec, seed)
		if vs := consensus.CheckConsensus(run, proposals); len(vs) > 0 {
			t.Errorf("seed %d: %v", seed, vs[0])
		}
	}
}

// TestMajoritySafetyAlways checks that the majority algorithm never violates
// safety (validity, uniform agreement, integrity) even when a majority of
// processes crash and the detector misbehaves for a long time — only
// termination is lost, which is the Table 1 boundary.
func TestMajoritySafetyAlways(t *testing.T) {
	n := 6
	proposals := proposalsFor(n)
	spec := workload.Spec{
		Name:          "consensus-majority-overload",
		N:             n,
		MaxSteps:      400,
		TickEvery:     2,
		SuspectEvery:  3,
		Network:       sim.FairLossyNetwork(0.3),
		Oracle:        fd.EventuallyStrongOracle{StabilizeAt: 200, ChaosRate: 0.4, Seed: 33},
		Protocol:      consensus.NewMajority(proposals),
		MaxFailures:   4,
		ExactFailures: true,
		CrashEnd:      60,
	}
	terminationFailures := 0
	for _, seed := range workload.Seeds(200, 20) {
		run := runConsensus(t, spec, seed)
		if vs := consensus.CheckSafety(run, proposals); len(vs) > 0 {
			t.Errorf("seed %d: safety violation: %v", seed, vs[0])
		}
		for _, v := range consensus.CheckConsensus(run, proposals) {
			if v.Rule == "termination" {
				terminationFailures++
				break
			}
		}
	}
	if terminationFailures == 0 {
		t.Errorf("expected the majority algorithm to lose termination in at least one run with 4 of 6 processes crashing")
	}
}

// TestCheckConsensusDetectsViolations exercises the checker itself on
// hand-crafted runs.
func TestCheckConsensusDetectsViolations(t *testing.T) {
	proposals := map[model.ProcID]int{0: 10, 1: 20, 2: 30}

	t.Run("disagreement", func(t *testing.T) {
		r := model.NewRun(3)
		mustAppend(t, r, 0, 5, model.DoEvent(consensus.DecisionAction(0, 10)))
		mustAppend(t, r, 1, 6, model.DoEvent(consensus.DecisionAction(1, 20)))
		mustAppend(t, r, 2, 7, model.DoEvent(consensus.DecisionAction(2, 10)))
		r.SetHorizon(10)
		if !hasRule(consensus.CheckConsensus(r, proposals), "uniform-agreement") {
			t.Fatalf("expected a uniform-agreement violation")
		}
	})

	t.Run("invalid value", func(t *testing.T) {
		r := model.NewRun(3)
		for p := model.ProcID(0); p < 3; p++ {
			mustAppend(t, r, p, 5, model.DoEvent(consensus.DecisionAction(p, 999)))
		}
		r.SetHorizon(10)
		if !hasRule(consensus.CheckConsensus(r, proposals), "validity") {
			t.Fatalf("expected a validity violation")
		}
	})

	t.Run("missing termination", func(t *testing.T) {
		r := model.NewRun(3)
		mustAppend(t, r, 0, 5, model.DoEvent(consensus.DecisionAction(0, 10)))
		r.SetHorizon(10)
		if !hasRule(consensus.CheckConsensus(r, proposals), "termination") {
			t.Fatalf("expected a termination violation")
		}
	})

	t.Run("double decision", func(t *testing.T) {
		r := model.NewRun(3)
		for p := model.ProcID(0); p < 3; p++ {
			mustAppend(t, r, p, 5, model.DoEvent(consensus.DecisionAction(p, 10)))
		}
		mustAppend(t, r, 0, 6, model.DoEvent(consensus.DecisionAction(0, 20)))
		r.SetHorizon(10)
		if !hasRule(consensus.CheckConsensus(r, proposals), "integrity") {
			t.Fatalf("expected an integrity violation")
		}
	})

	t.Run("crashed non-decider is fine", func(t *testing.T) {
		r := model.NewRun(3)
		mustAppend(t, r, 0, 5, model.DoEvent(consensus.DecisionAction(0, 10)))
		mustAppend(t, r, 1, 5, model.DoEvent(consensus.DecisionAction(1, 10)))
		mustAppend(t, r, 2, 3, model.Event{Kind: model.EventCrash})
		r.SetHorizon(10)
		if vs := consensus.CheckConsensus(r, proposals); len(vs) != 0 {
			t.Fatalf("unexpected violations: %v", vs)
		}
	})
}

// TestDecisionsExtraction checks the decision-extraction helper.
func TestDecisionsExtraction(t *testing.T) {
	r := model.NewRun(2)
	mustAppend(t, r, 0, 1, model.DoEvent(consensus.DecisionAction(0, 42)))
	r.SetHorizon(5)
	got := consensus.Decisions(r)
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("Decisions = %v, want {0:42}", got)
	}
}

func mustAppend(t *testing.T, r *model.Run, p model.ProcID, at int, e model.Event) {
	t.Helper()
	if err := r.Append(p, at, e); err != nil {
		t.Fatalf("append: %v", err)
	}
}

func hasRule(vs []model.Violation, rule string) bool {
	for _, v := range vs {
		if v.Rule == rule {
			return true
		}
	}
	return false
}
