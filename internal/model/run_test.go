package model

import (
	"strings"
	"testing"
)

func mustAppend(t *testing.T, r *Run, p ProcID, at int, e Event) {
	t.Helper()
	if err := r.Append(p, at, e); err != nil {
		t.Fatalf("append %v at %d to p%d: %v", e, at, p, err)
	}
}

func sampleRun(t *testing.T) *Run {
	t.Helper()
	r := NewRun(3)
	a := Action(0, 1)
	msg := Message{Kind: Kind("alpha"), Action: a}
	mustAppend(t, r, 0, 1, InitEvent(a))
	mustAppend(t, r, 0, 1, SendEvent(1, msg))
	mustAppend(t, r, 0, 1, SendEvent(2, msg))
	mustAppend(t, r, 0, 2, DoEvent(a))
	mustAppend(t, r, 1, 3, RecvEvent(0, msg))
	mustAppend(t, r, 1, 4, DoEvent(a))
	mustAppend(t, r, 1, 6, SuspectEvent(SuspectReport{Suspects: Singleton(2)}))
	mustAppend(t, r, 2, 5, Event{Kind: EventCrash})
	r.SetHorizon(10)
	return r
}

func TestRunAppendRules(t *testing.T) {
	r := NewRun(2)
	if err := r.Append(5, 0, Event{Kind: EventCrash}); err == nil {
		t.Fatalf("expected out-of-range process to be rejected")
	}
	if err := r.Append(0, -1, Event{Kind: EventCrash}); err == nil {
		t.Fatalf("expected negative time to be rejected")
	}
	mustAppend(t, r, 0, 5, InitEvent(Action(0, 1)))
	if err := r.Append(0, 4, DoEvent(Action(0, 1))); err == nil {
		t.Fatalf("expected non-monotone time to be rejected")
	}
	mustAppend(t, r, 0, 6, Event{Kind: EventCrash})
	if err := r.Append(0, 7, DoEvent(Action(0, 1))); err == nil {
		t.Fatalf("expected append after crash to be rejected (R4)")
	}
}

func TestRunQueries(t *testing.T) {
	r := sampleRun(t)
	a := Action(0, 1)

	if got := r.Faulty(); !got.Equal(Singleton(2)) {
		t.Fatalf("Faulty = %v, want {2}", got)
	}
	if got := r.Correct(); !got.Equal(SetOf(0, 1)) {
		t.Fatalf("Correct = %v, want {0,1}", got)
	}
	if ct, ok := r.CrashTime(2); !ok || ct != 5 {
		t.Fatalf("CrashTime(2) = %d,%v", ct, ok)
	}
	if r.CrashedBy(2, 4) {
		t.Fatalf("process 2 should not have crashed by 4")
	}
	if !r.CrashedBy(2, 5) {
		t.Fatalf("process 2 should have crashed by 5")
	}
	if it, ok := r.InitTime(a); !ok || it != 1 {
		t.Fatalf("InitTime = %d,%v", it, ok)
	}
	if dt, ok := r.DoTime(1, a); !ok || dt != 4 {
		t.Fatalf("DoTime(1) = %d,%v", dt, ok)
	}
	if _, ok := r.DoTime(2, a); ok {
		t.Fatalf("process 2 should not have performed the action")
	}
	if got := r.InitiatedActions(); len(got) != 1 || got[0] != a {
		t.Fatalf("InitiatedActions = %v", got)
	}
	if got := r.SuspectsAt(1, 5); !got.IsEmpty() {
		t.Fatalf("SuspectsAt before report = %v", got)
	}
	if got := r.SuspectsAt(1, 7); !got.Equal(Singleton(2)) {
		t.Fatalf("SuspectsAt after report = %v", got)
	}
	if got := r.CountKind(EventSend); got != 2 {
		t.Fatalf("CountKind(send) = %d", got)
	}
	if got := r.EventCount(); got != 8 {
		t.Fatalf("EventCount = %d", got)
	}
}

func TestHistoryAtIsPrefix(t *testing.T) {
	r := sampleRun(t)
	full := r.FinalHistory(0)
	for m := 0; m <= r.Horizon; m++ {
		h := r.HistoryAt(0, m)
		if len(h) > len(full) {
			t.Fatalf("history at %d longer than final", m)
		}
		for i := range h {
			if h[i].IdentityHash() != full[i].IdentityHash() {
				t.Fatalf("history at %d is not a prefix of the final history", m)
			}
		}
		if r.PrefixLen(0, m) != len(h) {
			t.Fatalf("PrefixLen(%d) = %d, want %d", m, r.PrefixLen(0, m), len(h))
		}
	}
	if len(r.HistoryAt(0, 0)) != 0 {
		t.Fatalf("history at time 0 should be empty (R1)")
	}
}

func TestHistoryHelpers(t *testing.T) {
	r := sampleRun(t)
	a := Action(0, 1)
	h0 := r.FinalHistory(0)
	if !h0.Initiated(a) || !h0.Did(a) || h0.Crashed() {
		t.Fatalf("history predicates wrong for p0")
	}
	h2 := r.FinalHistory(2)
	if !h2.Crashed() || h2.Did(a) {
		t.Fatalf("history predicates wrong for p2")
	}
	h1 := r.FinalHistory(1)
	if got := h1.Suspects(); !got.Equal(Singleton(2)) {
		t.Fatalf("Suspects = %v", got)
	}
	if rep, ok := h1.LastSuspectReport(); !ok || !rep.Suspects.Equal(Singleton(2)) {
		t.Fatalf("LastSuspectReport = %v,%v", rep, ok)
	}
	if _, ok := h0.LastSuspectReport(); ok {
		t.Fatalf("p0 has no reports")
	}
	if h0.Count(func(e Event) bool { return e.Kind == EventSend }) != 2 {
		t.Fatalf("Count(send) wrong")
	}
}

func TestHistoryKeyDistinguishesHistories(t *testing.T) {
	r := sampleRun(t)
	keys := make(map[HistoryKey]int)
	for p := ProcID(0); int(p) < r.N; p++ {
		for m := 0; m <= r.Horizon; m++ {
			k := r.HistoryAt(p, m).Key()
			prefLen := r.PrefixLen(p, m)
			if prev, ok := keys[k]; ok && prev != prefLen {
				t.Fatalf("key collision between prefixes of length %d and %d", prev, prefLen)
			}
			keys[k] = prefLen
		}
	}
	// Distinct prefixes of the same process must have distinct keys.
	h1 := r.HistoryAt(0, 1)
	h2 := r.HistoryAt(0, 2)
	if h1.Key() == h2.Key() {
		t.Fatalf("different prefixes share a key")
	}
	// Identical content must produce identical keys.
	if r.HistoryAt(0, 2).Key() != r.HistoryAt(0, 3).Key() {
		t.Fatalf("identical histories have different keys")
	}
}

func TestRunClone(t *testing.T) {
	r := sampleRun(t)
	cp := r.Clone()
	mustAppend(t, cp, 0, 9, DoEvent(Action(0, 99)))
	if r.EventCount() == cp.EventCount() {
		t.Fatalf("clone shares storage with original")
	}
}

func TestDecisions(t *testing.T) {
	r := NewRun(2)
	mustAppend(t, r, 0, 1, DoEvent(Action(0, 7)))
	mustAppend(t, r, 0, 2, DoEvent(Action(0, 9)))
	got := r.Decisions()
	if len(got) != 1 || got[0].Seq != 7 {
		t.Fatalf("Decisions = %v", got)
	}
}

func TestEventStringAndKinds(t *testing.T) {
	cases := []struct {
		e    Event
		want string
	}{
		{SendEvent(2, Message{Kind: Kind("alpha")}), "send(->2,alpha)"},
		{RecvEvent(1, Message{Kind: Kind("ack")}), "recv(<-1,ack)"},
		{InitEvent(Action(1, 2)), "init(a(1,2))"},
		{DoEvent(Action(1, 2)), "do(a(1,2))"},
		{Event{Kind: EventCrash}, "crash"},
		{SuspectEvent(SuspectReport{Suspects: Singleton(1)}), "suspect{1}"},
		{SuspectEvent(SuspectReport{Generalized: true, Group: SetOf(0, 1), MinFaulty: 1}), "suspect({0,1},1)"},
	}
	for _, tc := range cases {
		if got := tc.e.String(); got != tc.want {
			t.Errorf("Event.String = %q, want %q", got, tc.want)
		}
	}
	for k := EventSend; k <= EventSuspect; k++ {
		if strings.HasPrefix(k.String(), "unknown") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if !strings.HasPrefix(EventKind(99).String(), "unknown") {
		t.Errorf("unknown kind should render as unknown")
	}
}

func TestMessageKeyDistinguishesContent(t *testing.T) {
	base := Message{Kind: Kind("alpha"), Action: Action(1, 2), Round: 3, Value: 4}
	variants := []Message{
		{Kind: Kind("ack"), Action: Action(1, 2), Round: 3, Value: 4},
		{Kind: Kind("alpha"), Action: Action(1, 3), Round: 3, Value: 4},
		{Kind: Kind("alpha"), Action: Action(1, 2), Round: 4, Value: 4},
		{Kind: Kind("alpha"), Action: Action(1, 2), Round: 3, Value: 5},
		{Kind: Kind("alpha"), Action: Action(1, 2), Round: 3, Value: 4, Aux: 9},
	}
	for _, v := range variants {
		if v.Key() == base.Key() {
			t.Errorf("message %+v should have a different key from %+v", v, base)
		}
	}
	same := Message{Kind: Kind("alpha"), Action: Action(1, 2), Round: 3, Value: 4, Suspects: Singleton(1)}
	if same.Key() != base.Key() {
		t.Errorf("piggybacked suspicions should not change the fairness key")
	}
}

func TestActionID(t *testing.T) {
	if !(ActionID{}).IsZero() {
		t.Fatalf("zero action should be zero")
	}
	if Action(1, 2).IsZero() {
		t.Fatalf("non-zero action should not be zero")
	}
	if Action(1, 2).String() != "a(1,2)" {
		t.Fatalf("String = %q", Action(1, 2).String())
	}
}
