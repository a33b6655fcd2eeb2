package epistemic_test

import (
	"testing"

	"repro/internal/epistemic"
	"repro/internal/model"
)

// TestDistributedKnowledge exercises the D_S operator the paper appeals to in
// footnote 4 (the A4 discussion): a group has distributed knowledge of a fact
// exactly when no point compatible with all of its members' observations
// refutes it, even if no single member knows it.
func TestDistributedKnowledge(t *testing.T) {
	sys := twoRunSystem(t)
	crash1 := epistemic.Crashed(1)
	pt := epistemic.Point{Run: 0, Time: 4}

	// Individually: process 2 knows crash(1) (its detector reported it);
	// process 0 does not.
	if sys.Eval(epistemic.Knows(0, crash1), pt) {
		t.Fatalf("process 0 should not know crash(1) at time 4")
	}
	if !sys.Eval(epistemic.Knows(2, crash1), pt) {
		t.Fatalf("process 2 should know crash(1) at time 4")
	}

	// Any group containing a knower has distributed knowledge.
	if !sys.DistributedKnows(model.SetOf(0, 2), crash1, pt) {
		t.Fatalf("D_{0,2} crash(1) should hold when process 2 knows it")
	}
	// A group whose members have seen nothing that distinguishes the crash run
	// from the crash-free run lacks distributed knowledge.  Note that the
	// crashed process itself cannot be used for this: its own crash event is
	// part of its history, so any group containing process 1 trivially "knows"
	// crash(1) from time 3 on.
	if sys.DistributedKnows(model.Singleton(0), crash1, pt) {
		t.Fatalf("D_{0} crash(1) should fail at time 4")
	}
	if !sys.DistributedKnows(model.SetOf(0, 1), crash1, pt) {
		t.Fatalf("D_{0,1} crash(1) should hold: process 1's history records its own crash")
	}
	// Singleton distributed knowledge coincides with individual knowledge.
	for _, p := range []model.ProcID{0, 1, 2} {
		want := sys.Eval(epistemic.Knows(p, crash1), pt)
		if got := sys.DistributedKnows(model.Singleton(p), crash1, pt); got != want {
			t.Fatalf("D_{%d} disagrees with K_%d: %v vs %v", p, p, got, want)
		}
	}
	// The empty group only "knows" system validities.
	if sys.DistributedKnows(model.EmptySet(), crash1, pt) {
		t.Fatalf("the empty group should not have distributed knowledge of a contingent fact")
	}
	valid := epistemic.Implies(epistemic.Knows(0, crash1), crash1)
	if !sys.DistributedKnows(model.EmptySet(), valid, pt) {
		t.Fatalf("the empty group should know validities")
	}

	// Distributed knowledge is monotone in the group: adding observers never
	// destroys it.
	if sys.DistributedKnows(model.SetOf(0, 2), crash1, pt) &&
		!sys.DistributedKnows(model.SetOf(0, 1, 2), crash1, pt) {
		t.Fatalf("distributed knowledge must be monotone in the group")
	}
	if epistemic.DistributedKnows(model.SetOf(0, 1), crash1).String() == "" {
		t.Fatalf("D_S formulas should render")
	}
}

// TestDistributedKnowledgeCombinesObservations builds the classic scenario
// where the group knows strictly more than any member: process 0 learns "a or
// b happened", process 1 learns "not b", so together they can pin down "a"
// while neither can alone.  Here a/b are the crashes of processes 2 and 3.
func TestDistributedKnowledgeCombinesObservations(t *testing.T) {
	// Run 0: process 2 crashes; p0 is notified that "someone crashed"
	// (modelled as receiving a notification that is sent in runs where 2 or 3
	// crashed) and p1 is notified "3 is alive" (sent whenever 3 has not
	// crashed).
	someoneCrashed := model.Message{Kind: model.Kind("someone-crashed")}
	threeAlive := model.Message{Kind: model.Kind("three-alive")}

	mk := func(crash2, crash3 bool) *model.Run {
		r := model.NewRun(5)
		if crash2 {
			mustAppend(t, r, 2, 2, model.Event{Kind: model.EventCrash})
		}
		if crash3 {
			mustAppend(t, r, 3, 2, model.Event{Kind: model.EventCrash})
		}
		if crash2 || crash3 {
			mustAppend(t, r, 4, 3, model.SendEvent(0, someoneCrashed))
			mustAppend(t, r, 0, 4, model.RecvEvent(4, someoneCrashed))
		}
		if !crash3 {
			mustAppend(t, r, 4, 3, model.SendEvent(1, threeAlive))
			mustAppend(t, r, 1, 4, model.RecvEvent(4, threeAlive))
		}
		r.SetHorizon(8)
		return r
	}

	sys := epistemic.NewSystem(model.System{
		mk(true, false),  // run 0: only 2 crashed
		mk(false, true),  // run 1: only 3 crashed
		mk(false, false), // run 2: nobody crashed
	})
	crash2 := epistemic.Crashed(2)
	pt := epistemic.Point{Run: 0, Time: 5}

	if sys.Eval(epistemic.Knows(0, crash2), pt) {
		t.Fatalf("process 0 alone cannot distinguish which process crashed")
	}
	if sys.Eval(epistemic.Knows(1, crash2), pt) {
		t.Fatalf("process 1 alone cannot rule out the crash-free run")
	}
	if !sys.DistributedKnows(model.SetOf(0, 1), crash2, pt) {
		t.Fatalf("together, processes 0 and 1 pin down that process 2 crashed")
	}
}
