package fd

import (
	"testing"

	"repro/internal/model"
)

func TestCumulativeRunMakesCompletenessPermanent(t *testing.T) {
	// An impermanent trace: the suspicion of the crashed process is retracted
	// in the final report, so strong completeness fails...
	r := newRunBuilder(t, 3).
		crash(2, 4).
		report(0, 5, 2).report(0, 9).
		report(1, 6, 2).report(1, 10).
		done(12)
	if vs := CheckStrongCompleteness(r); len(vs) == 0 {
		t.Fatalf("precondition: the impermanent trace should fail strong completeness")
	}
	if vs := CheckImpermanentStrongCompleteness(r); len(vs) != 0 {
		t.Fatalf("precondition: impermanent completeness should hold: %v", vs)
	}

	// ...and the Proposition 2.2 conversion restores it while preserving
	// accuracy.
	converted := CumulativeRun(r)
	if vs := CheckStrongCompleteness(converted); len(vs) != 0 {
		t.Fatalf("cumulative run should satisfy strong completeness: %v", vs)
	}
	if vs := CheckStrongAccuracy(converted); len(vs) != 0 {
		t.Fatalf("cumulative conversion must preserve accuracy: %v", vs)
	}
	// The original run is untouched.
	if vs := CheckStrongCompleteness(r); len(vs) == 0 {
		t.Fatalf("CumulativeRun must not mutate its input")
	}
	// Non-detector events are preserved verbatim.
	if converted.EventCount() != r.EventCount() {
		t.Fatalf("event counts differ after conversion: %d vs %d", converted.EventCount(), r.EventCount())
	}
}

func TestCumulativeRunPreservesAccuracyViolations(t *testing.T) {
	// Accuracy violations in the source remain visible after conversion: the
	// conversion only strengthens completeness.
	r := newRunBuilder(t, 3).report(0, 2, 1).crash(1, 5).done(10)
	converted := CumulativeRun(r)
	if vs := CheckStrongAccuracy(converted); len(vs) == 0 {
		t.Fatalf("conversion should not launder premature suspicions")
	}
}

func TestPerfectFromGeneralizedRun(t *testing.T) {
	// Generalized reports with k = |S| pinpoint faulty processes; the
	// conversion accumulates them into standard reports.
	r := newRunBuilder(t, 4).
		crash(1, 3).crash(2, 6).
		generalized(0, 4, model.Singleton(1), 1).
		generalized(0, 7, model.Singleton(2), 1).
		generalized(0, 9, model.SetOf(1, 3), 1). // k < |S|: dropped
		generalized(3, 8, model.SetOf(1, 2), 2).
		done(12)
	converted := PerfectFromGeneralizedRun(r)

	if vs := CheckStrongAccuracy(converted); len(vs) != 0 {
		t.Fatalf("converted detector should be strongly accurate: %v", vs)
	}
	// Process 0's last standard report should accumulate both singletons.
	if got := converted.SuspectsAt(0, 12); !got.Equal(model.SetOf(1, 2)) {
		t.Fatalf("accumulated suspicions = %v, want {1,2}", got)
	}
	if got := converted.SuspectsAt(3, 12); !got.Equal(model.SetOf(1, 2)) {
		t.Fatalf("process 3 suspicions = %v, want {1,2}", got)
	}
	// The uninformative (k < |S|) report is gone.
	for _, te := range converted.Events[0] {
		if _, _, ok := te.Event.GeneralizedReport(); ok {
			t.Fatalf("generalized report survived conversion: %v", te.Event)
		}
	}
	// Completeness of the converted detector on this trace.
	if vs := CheckStrongCompleteness(converted); len(vs) != 0 {
		t.Fatalf("converted detector should be complete here: %v", vs)
	}
}

func TestPerfectFromGeneralizedPassesThroughStandardReports(t *testing.T) {
	r := newRunBuilder(t, 3).crash(2, 2).report(0, 3, 2).done(6)
	converted := PerfectFromGeneralizedRun(r)
	if got := converted.SuspectsAt(0, 6); !got.Equal(model.Singleton(2)) {
		t.Fatalf("standard report should pass through, got %v", got)
	}
}

func TestGossipOracleDropsGeneralizedInnerReports(t *testing.T) {
	gt := newFakeTruth(3, map[model.ProcID]int{2: 1})
	g := GossipOracle{Inner: FaultySetOracle{}}
	if _, ok := g.Report(0, 5, gt); ok {
		t.Fatalf("gossiping a purely generalized detector should produce no standard report")
	}
}

func TestCumulativeOracleSilentInner(t *testing.T) {
	gt := newFakeTruth(3, nil)
	if _, ok := (CumulativeOracle{Inner: NoOracle{}}).Report(0, 5, gt); ok {
		t.Fatalf("cumulative over a silent oracle should stay silent")
	}
}
