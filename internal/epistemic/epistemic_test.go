package epistemic_test

import (
	"testing"

	"repro/internal/epistemic"
	"repro/internal/model"
)

// The hand-crafted systems in this file exercise the knowledge semantics
// directly: two runs that a process cannot tell apart must block knowledge of
// anything that differs between them, and an observable difference (receiving
// a message, getting a detector report) must unlock it.

func mustAppend(t *testing.T, r *model.Run, p model.ProcID, at int, e model.Event) {
	t.Helper()
	if err := r.Append(p, at, e); err != nil {
		t.Fatalf("append: %v", err)
	}
}

// twoRunSystem builds the canonical example: in run 0 process 1 crashes at
// time 3 and process 0 is later told about it (a "crashed" message at time 6);
// in run 1 nobody crashes and process 0 receives nothing.  Up to time 5
// process 0's local history is identical in both runs.
func twoRunSystem(t *testing.T) *epistemic.System {
	t.Helper()
	notify := model.Message{Kind: model.Kind("crashed"), Value: 1}

	r0 := model.NewRun(3)
	mustAppend(t, r0, 1, 3, model.Event{Kind: model.EventCrash})
	mustAppend(t, r0, 2, 4, model.SuspectEvent(model.SuspectReport{Suspects: model.Singleton(1)}))
	mustAppend(t, r0, 2, 5, model.SendEvent(0, notify))
	mustAppend(t, r0, 0, 6, model.RecvEvent(2, notify))
	r0.SetHorizon(10)

	r1 := model.NewRun(3)
	r1.SetHorizon(10)

	return epistemic.NewSystem(model.System{r0, r1})
}

func TestKnowledgeRequiresDistinguishingEvidence(t *testing.T) {
	sys := twoRunSystem(t)
	crash1 := epistemic.Crashed(1)

	// At time 4 of run 0 the crash has happened but process 0 has seen
	// nothing, and run 1 (no crash) is indistinguishable: no knowledge.
	pt := epistemic.Point{Run: 0, Time: 4}
	if !sys.Eval(crash1, pt) {
		t.Fatalf("crash(1) should hold at (r0,4)")
	}
	if sys.Eval(epistemic.Knows(0, crash1), pt) {
		t.Fatalf("process 0 should not know crash(1) before receiving evidence")
	}
	// Process 2 got a failure-detector report at time 4, so it does know.
	if !sys.Eval(epistemic.Knows(2, crash1), pt) {
		t.Fatalf("process 2 should know crash(1) after its detector report")
	}
	// After receiving the notification at time 6, process 0 knows too.
	after := epistemic.Point{Run: 0, Time: 6}
	if !sys.Eval(epistemic.Knows(0, crash1), after) {
		t.Fatalf("process 0 should know crash(1) after the notification")
	}
	// In the crash-free run nobody ever knows crash(1) (it is false).
	if sys.Eval(epistemic.Knows(2, crash1), epistemic.Point{Run: 1, Time: 8}) {
		t.Fatalf("knowledge of a false fact is impossible")
	}
	// Knowledge is veridical: K_p phi implies phi at every point checked above.
}

func TestKnownCrashedMatchesKnowsOperator(t *testing.T) {
	sys := twoRunSystem(t)
	for ri := 0; ri < sys.Size(); ri++ {
		r := sys.RunAt(ri)
		for m := 0; m <= r.Horizon; m++ {
			pt := epistemic.Point{Run: ri, Time: m}
			for p := model.ProcID(0); int(p) < sys.N(); p++ {
				fast := sys.KnownCrashed(p, pt)
				for q := model.ProcID(0); int(q) < sys.N(); q++ {
					slow := sys.Eval(epistemic.Knows(p, epistemic.Crashed(q)), pt)
					if fast.Has(q) != slow {
						t.Fatalf("KnownCrashed and Knows disagree at run %d time %d p=%d q=%d: fast=%v slow=%v",
							ri, m, p, q, fast.Has(q), slow)
					}
				}
			}
		}
	}
}

func TestMaxKnownCrashedIn(t *testing.T) {
	sys := twoRunSystem(t)
	all := model.FullSet(3)
	// Process 2 knows about the crash of 1 from time 4 onwards in run 0.
	if got := sys.MaxKnownCrashedIn(2, epistemic.Point{Run: 0, Time: 4}, all); got != 1 {
		t.Fatalf("MaxKnownCrashedIn = %d, want 1", got)
	}
	if got := sys.MaxKnownCrashedIn(2, epistemic.Point{Run: 0, Time: 4}, model.SetOf(0, 2)); got != 0 {
		t.Fatalf("MaxKnownCrashedIn over a group excluding the crashed process = %d, want 0", got)
	}
	// Process 0 knows nothing at time 4.
	if got := sys.MaxKnownCrashedIn(0, epistemic.Point{Run: 0, Time: 4}, all); got != 0 {
		t.Fatalf("process 0 should not know of any crash at time 4, got %d", got)
	}
	if got := sys.MaxKnownCrashedIn(0, epistemic.Point{Run: 0, Time: 7}, all); got != 1 {
		t.Fatalf("process 0 should know of one crash after the notification, got %d", got)
	}
}

func TestTemporalOperators(t *testing.T) {
	sys := twoRunSystem(t)
	crash1 := epistemic.Crashed(1)

	// Diamond: at time 0 of run 0 the crash is in the future.
	if !sys.Eval(epistemic.Eventually(crash1), epistemic.Point{Run: 0, Time: 0}) {
		t.Fatalf("<>crash(1) should hold at (r0,0)")
	}
	if sys.Eval(epistemic.Eventually(crash1), epistemic.Point{Run: 1, Time: 0}) {
		t.Fatalf("<>crash(1) should fail in the crash-free run")
	}
	// Box: crash is stable, so []crash(1) holds from time 3 on in run 0.
	if !sys.Eval(epistemic.Always(crash1), epistemic.Point{Run: 0, Time: 3}) {
		t.Fatalf("[]crash(1) should hold from the crash onwards")
	}
	if sys.Eval(epistemic.Always(crash1), epistemic.Point{Run: 0, Time: 0}) {
		t.Fatalf("[]crash(1) should fail before the crash")
	}
	// Box of a non-stable formula.
	notCrash := epistemic.Not(crash1)
	if sys.Eval(epistemic.Always(notCrash), epistemic.Point{Run: 0, Time: 0}) {
		t.Fatalf("[]~crash(1) should fail in run 0")
	}
	if !sys.Eval(epistemic.Always(notCrash), epistemic.Point{Run: 1, Time: 0}) {
		t.Fatalf("[]~crash(1) should hold in run 1")
	}
}

func TestBooleanOperatorsAndValidity(t *testing.T) {
	sys := twoRunSystem(t)
	crash1 := epistemic.Crashed(1)
	crash2 := epistemic.Crashed(2)

	pt := epistemic.Point{Run: 0, Time: 5}
	if !sys.Eval(epistemic.And(crash1, epistemic.Not(crash2)), pt) {
		t.Fatalf("conjunction evaluation wrong")
	}
	if !sys.Eval(epistemic.Or(crash2, crash1), pt) {
		t.Fatalf("disjunction evaluation wrong")
	}
	if !sys.Eval(epistemic.Implies(crash2, epistemic.False()), pt) {
		t.Fatalf("implication with false antecedent should hold")
	}
	if sys.Eval(epistemic.Implies(crash1, crash2), pt) {
		t.Fatalf("implication with true antecedent and false consequent should fail")
	}
	// Knowledge axiom T (veridicality) as a validity: K_0 crash(1) => crash(1).
	valid, _ := sys.Valid(epistemic.Implies(epistemic.Knows(0, crash1), crash1))
	if !valid {
		t.Fatalf("the knowledge axiom K phi => phi must be valid")
	}
	// crash(1) itself is not valid; Valid must return a witness.
	valid, witness := sys.Valid(crash1)
	if valid {
		t.Fatalf("crash(1) should not be valid")
	}
	if witness.Run == 0 && witness.Time >= 3 {
		t.Fatalf("witness point %+v does not falsify crash(1)", witness)
	}
	if epistemic.True().String() != "true" || epistemic.False().String() != "false" {
		t.Fatalf("constant formulas misnamed")
	}
}

func TestLocalityAndStability(t *testing.T) {
	sys := twoRunSystem(t)

	// crash(1) is stable but not local to process 0 (process 0 cannot tell
	// whether it holds at time 4).
	crash1 := epistemic.Crashed(1)
	if !sys.IsStable(crash1) {
		t.Fatalf("crash(1) should be stable")
	}
	if sys.IsLocal(0, crash1) {
		t.Fatalf("crash(1) should not be local to process 0")
	}
	// Formulas about a process's own history are local to it.
	recvd := epistemic.Received(0, 2, model.Kind("crashed"))
	if !sys.IsLocal(0, recvd) {
		t.Fatalf("a process's own receive events are local to it")
	}
	if !sys.IsStable(recvd) {
		t.Fatalf("receive events are stable facts")
	}
	// K_p phi is always local to p (a standard property of knowledge).
	if !sys.IsLocal(0, epistemic.Knows(0, crash1)) {
		t.Fatalf("K_0 crash(1) should be local to process 0")
	}
	// Negation of a stable formula need not be stable.
	if sys.IsStable(epistemic.Not(crash1)) {
		t.Fatalf("~crash(1) is not stable in a system where the crash happens")
	}
}

func TestSentReceivedInitiatedDidProps(t *testing.T) {
	a := model.Action(0, 7)
	r := model.NewRun(2)
	msg := model.Message{Kind: model.Kind("alpha"), Action: a}
	mustAppend(t, r, 0, 1, model.InitEvent(a))
	mustAppend(t, r, 0, 2, model.SendEvent(1, msg))
	mustAppend(t, r, 1, 4, model.RecvEvent(0, msg))
	mustAppend(t, r, 1, 5, model.DoEvent(a))
	r.SetHorizon(8)
	sys := epistemic.NewSystem(model.System{r})

	cases := []struct {
		f    epistemic.Formula
		time int
		want bool
	}{
		{epistemic.Initiated(a), 0, false},
		{epistemic.Initiated(a), 1, true},
		{epistemic.Sent(0, 1, model.Kind("alpha")), 1, false},
		{epistemic.Sent(0, 1, model.Kind("alpha")), 2, true},
		{epistemic.Received(1, 0, model.Kind("alpha")), 3, false},
		{epistemic.Received(1, 0, model.Kind("alpha")), 4, true},
		{epistemic.Did(1, a), 4, false},
		{epistemic.Did(1, a), 5, true},
		{epistemic.Did(0, a), 8, false},
	}
	for _, tc := range cases {
		if got := sys.Eval(tc.f, epistemic.Point{Run: 0, Time: tc.time}); got != tc.want {
			t.Errorf("%s at time %d = %v, want %v", tc.f, tc.time, got, tc.want)
		}
	}

	// Once process 1 has received the alpha message it knows the action was
	// initiated (the message could only exist if it was).
	if !sys.Eval(epistemic.Knows(1, epistemic.Initiated(a)), epistemic.Point{Run: 0, Time: 4}) {
		t.Fatalf("receiving the alpha message should imply knowledge of initiation in this system")
	}
}

func TestKnowledgeOfInitiationBlockedByIndistinguishableRun(t *testing.T) {
	// Same shape as above but with a second run in which the action is never
	// initiated and process 1 receives nothing: before receiving the message,
	// process 1 must not know init(a); after receiving it, it must.
	a := model.Action(0, 7)
	msg := model.Message{Kind: model.Kind("alpha"), Action: a}

	r0 := model.NewRun(2)
	mustAppend(t, r0, 0, 1, model.InitEvent(a))
	mustAppend(t, r0, 0, 2, model.SendEvent(1, msg))
	mustAppend(t, r0, 1, 4, model.RecvEvent(0, msg))
	r0.SetHorizon(8)

	r1 := model.NewRun(2)
	r1.SetHorizon(8)

	sys := epistemic.NewSystem(model.System{r0, r1})
	knowsInit := epistemic.Knows(1, epistemic.Initiated(a))
	if sys.Eval(knowsInit, epistemic.Point{Run: 0, Time: 3}) {
		t.Fatalf("process 1 should not know init(a) before receiving the message")
	}
	if !sys.Eval(knowsInit, epistemic.Point{Run: 0, Time: 4}) {
		t.Fatalf("process 1 should know init(a) after receiving the message")
	}
	// Proposition 3.5's antecedent-style formula: process 0 always knows its
	// own initiation.
	if !sys.Eval(epistemic.Knows(0, epistemic.Initiated(a)), epistemic.Point{Run: 0, Time: 1}) {
		t.Fatalf("the initiator knows its own initiation")
	}
}

func TestSystemIndexLookups(t *testing.T) {
	sys := twoRunSystem(t)
	if sys.N() != 3 || sys.Size() != 2 {
		t.Fatalf("system shape wrong: n=%d size=%d", sys.N(), sys.Size())
	}
	// Process 0's local state in run 0 at times 0..5 equals its state in run 1
	// at any time: the keys must agree.
	k0 := sys.KeyAt(0, epistemic.Point{Run: 0, Time: 4})
	k1 := sys.KeyAt(0, epistemic.Point{Run: 1, Time: 9})
	if k0 != k1 {
		t.Fatalf("indistinguishable local states got different keys")
	}
	if sys.KeyAt(0, epistemic.Point{Run: 0, Time: 6}) == k1 {
		t.Fatalf("distinguishable local states share a key")
	}
	if len(sys.Runs()) != 2 {
		t.Fatalf("Runs() should return the underlying runs")
	}
}

func TestEmptySystem(t *testing.T) {
	sys := epistemic.NewSystem(nil)
	if sys.Size() != 0 || sys.N() != 0 {
		t.Fatalf("empty system should have no runs and no processes")
	}
}
