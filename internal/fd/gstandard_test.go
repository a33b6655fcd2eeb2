package fd

import (
	"testing"

	"repro/internal/model"
)

func TestCorrectSetOracleEmitsComplementReports(t *testing.T) {
	gt := newFakeTruth(5, map[model.ProcID]int{1: 3, 4: 7})
	oracle := CorrectSetOracle{Inner: PerfectOracle{}}

	rep, ok := oracle.Report(0, 5, gt)
	if !ok || !rep.CorrectReport {
		t.Fatalf("expected a g-standard correct-set report, got %+v ok=%v", rep, ok)
	}
	// At time 5 only process 1 has crashed, so the report asserts the other
	// four are correct.
	if !rep.Correct.Equal(model.SetOf(0, 2, 3, 4)) {
		t.Fatalf("correct set = %v, want {0,2,3,4}", rep.Correct)
	}
	suspects, isStandard := rep.StandardSuspects(gt.N())
	if !isStandard || !suspects.Equal(model.Singleton(1)) {
		t.Fatalf("g mapping gave %v (standard=%v), want {1}", suspects, isStandard)
	}

	// Generalized inner reports pass through unchanged.
	gen := CorrectSetOracle{Inner: FaultySetOracle{}}
	rep, ok = gen.Report(0, 5, gt)
	if !ok || !rep.Generalized {
		t.Fatalf("generalized inner report should pass through, got %+v", rep)
	}
	// A silent inner oracle stays silent.
	if _, ok := (CorrectSetOracle{Inner: NoOracle{}}).Report(0, 5, gt); ok {
		t.Fatalf("silent inner oracle should stay silent")
	}
}

// TestGStandardReportsSatisfyCheckers verifies the paper's remark that all the
// accuracy/completeness definitions carry over to g-standard detectors: a
// correct-set detector wrapped around a perfect detector still checks out as
// perfect, and wrapped around a strong detector as strong but not perfect.
func TestGStandardReportsSatisfyCheckers(t *testing.T) {
	buildRun := func(oracle Oracle) *model.Run {
		gt := newFakeTruth(4, map[model.ProcID]int{3: 5})
		r := model.NewRun(4)
		if err := r.Append(3, 5, model.Event{Kind: model.EventCrash}); err != nil {
			t.Fatalf("append: %v", err)
		}
		for now := 2; now <= 20; now += 3 {
			for p := model.ProcID(0); p < 3; p++ {
				rep, ok := oracle.Report(p, now, gt)
				if !ok {
					continue
				}
				if err := r.Append(p, now, model.SuspectEvent(rep)); err != nil {
					t.Fatalf("append: %v", err)
				}
			}
		}
		r.SetHorizon(25)
		return r
	}

	perfect := buildRun(CorrectSetOracle{Inner: PerfectOracle{}})
	if vs := CheckPerfect(perfect); len(vs) != 0 {
		t.Fatalf("correct-set wrapping of a perfect detector should remain perfect: %v", vs[0])
	}

	strong := buildRun(CorrectSetOracle{Inner: StrongOracle{FalseSuspicionRate: 0.9, Seed: 5}})
	if vs := CheckStrong(strong); len(vs) != 0 {
		t.Fatalf("correct-set wrapping of a strong detector should remain strong: %v", vs[0])
	}
	if vs := CheckStrongAccuracy(strong); len(vs) == 0 {
		t.Fatalf("the wrapped strong detector's false suspicions should still be visible through g")
	}

	// Run.SuspectsAt applies the g mapping too.
	if got := perfect.SuspectsAt(0, 25); !got.Equal(model.Singleton(3)) {
		t.Fatalf("SuspectsAt through g = %v, want {3}", got)
	}
}
