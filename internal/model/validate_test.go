package model

import (
	"testing"
)

func TestValidateCleanRun(t *testing.T) {
	r := NewRun(3)
	a := Action(0, 1)
	msg := Message{Kind: Kind("alpha"), Action: a}
	mustAppend(t, r, 0, 1, InitEvent(a))
	mustAppend(t, r, 0, 1, SendEvent(1, msg))
	mustAppend(t, r, 1, 3, RecvEvent(0, msg))
	mustAppend(t, r, 2, 4, Event{Kind: EventCrash})
	r.SetHorizon(10)
	if vs := Validate(r, DefaultValidateOptions()); len(vs) != 0 {
		t.Fatalf("unexpected violations: %v", vs)
	}
}

// TestValidateRejectsImpossibleEvents builds the events of a three-process
// run that the layout can hold but no run can contain; Validate must name
// each.  (An action initiated by a negative process, or a part that does not
// belong to the event's kind, cannot be built at all: SetAction panics, and
// the decoders reject them in SetParts.)
func TestValidateRejectsImpossibleEvents(t *testing.T) {
	cases := []struct {
		name  string
		event Event
	}{
		{"send to peer 70", SendEvent(70, Message{Kind: Kind("alpha")})},
		{"event of kind 99", Event{Kind: 99}},
		{"action initiated by 5", InitEvent(Action(5, 1))},
		{"message about an action initiated by 3", SendEvent(1, Message{Kind: Kind("alpha"), Action: Action(3, 0)})},
	}
	for _, c := range cases {
		r := NewRun(3)
		mustAppend(t, r, 0, 1, c.event)
		r.SetHorizon(5)
		if vs := Validate(r, ValidateOptions{}); !hasRule(vs, "event") {
			t.Errorf("%s: expected an event violation, got %v", c.name, vs)
		}
	}
}

func TestValidateR3ReceiveWithoutSend(t *testing.T) {
	r := NewRun(2)
	msg := Message{Kind: Kind("alpha"), Action: Action(0, 1)}
	mustAppend(t, r, 1, 3, RecvEvent(0, msg))
	r.SetHorizon(5)
	vs := Validate(r, ValidateOptions{})
	if !hasRule(vs, "R3") {
		t.Fatalf("expected an R3 violation, got %v", vs)
	}
}

func TestValidateR3ReceiveBeforeSend(t *testing.T) {
	r := NewRun(2)
	msg := Message{Kind: Kind("alpha"), Action: Action(0, 1)}
	mustAppend(t, r, 1, 3, RecvEvent(0, msg))
	mustAppend(t, r, 0, 5, SendEvent(1, msg))
	r.SetHorizon(6)
	vs := Validate(r, ValidateOptions{})
	if !hasRule(vs, "R3") {
		t.Fatalf("expected an R3 violation for receive preceding send, got %v", vs)
	}
}

func TestValidateR3DuplicateReceives(t *testing.T) {
	r := NewRun(2)
	msg := Message{Kind: Kind("alpha"), Action: Action(0, 1)}
	mustAppend(t, r, 0, 1, SendEvent(1, msg))
	mustAppend(t, r, 1, 2, RecvEvent(0, msg))
	mustAppend(t, r, 1, 3, RecvEvent(0, msg))
	r.SetHorizon(5)
	vs := Validate(r, ValidateOptions{})
	if !hasRule(vs, "R3") {
		t.Fatalf("expected an R3 violation for more receives than sends, got %v", vs)
	}

	// A second send legitimises the second receive.
	r2 := NewRun(2)
	mustAppend(t, r2, 0, 1, SendEvent(1, msg))
	mustAppend(t, r2, 0, 2, SendEvent(1, msg))
	mustAppend(t, r2, 1, 3, RecvEvent(0, msg))
	mustAppend(t, r2, 1, 4, RecvEvent(0, msg))
	r2.SetHorizon(5)
	if vs := Validate(r2, ValidateOptions{}); len(vs) != 0 {
		t.Fatalf("unexpected violations: %v", vs)
	}
}

func TestValidateR4CrashNotLast(t *testing.T) {
	// Run.Append refuses to extend a crashed history, so construct the
	// offending run directly to exercise the checker.
	r := &Run{N: 1, Horizon: 5, Events: [][]TimedEvent{{
		{Time: 1, Event: Event{Kind: EventCrash}},
		{Time: 2, Event: DoEvent(Action(0, 1))},
	}}}
	vs := Validate(r, ValidateOptions{})
	if !hasRule(vs, "R4") {
		t.Fatalf("expected an R4 violation, got %v", vs)
	}
}

func TestValidateR2NonMonotoneTimes(t *testing.T) {
	r := &Run{N: 1, Horizon: 5, Events: [][]TimedEvent{{
		{Time: 3, Event: InitEvent(Action(0, 1))},
		{Time: 2, Event: DoEvent(Action(0, 1))},
	}}}
	if vs := Validate(r, ValidateOptions{}); !hasRule(vs, "R2") {
		t.Fatalf("expected an R2 violation, got %v", vs)
	}
	r2 := &Run{N: 1, Horizon: 1, Events: [][]TimedEvent{{
		{Time: 3, Event: InitEvent(Action(0, 1))},
	}}}
	if vs := Validate(r2, ValidateOptions{}); !hasRule(vs, "R2") {
		t.Fatalf("expected an R2 violation for event beyond horizon, got %v", vs)
	}
}

func TestValidateR5FairnessHeuristic(t *testing.T) {
	r := NewRun(2)
	msg := Message{Kind: Kind("alpha"), Action: Action(0, 1)}
	for i := 0; i < 60; i++ {
		mustAppend(t, r, 0, i+1, SendEvent(1, msg))
	}
	r.SetHorizon(100)
	vs := Validate(r, DefaultValidateOptions())
	if !hasRule(vs, "R5") {
		t.Fatalf("expected an R5 violation for a starved correct receiver, got %v", vs)
	}

	// If the receiver crashed, fairness imposes nothing.
	r2 := NewRun(2)
	for i := 0; i < 60; i++ {
		mustAppend(t, r2, 0, i+1, SendEvent(1, msg))
	}
	mustAppend(t, r2, 1, 70, Event{Kind: EventCrash})
	r2.SetHorizon(100)
	if vs := Validate(r2, DefaultValidateOptions()); hasRule(vs, "R5") {
		t.Fatalf("crashed receiver should not trigger R5, got %v", vs)
	}

	// One successful delivery satisfies the heuristic.
	r3 := NewRun(2)
	for i := 0; i < 60; i++ {
		mustAppend(t, r3, 0, i+1, SendEvent(1, msg))
	}
	mustAppend(t, r3, 1, 65, RecvEvent(0, msg))
	r3.SetHorizon(100)
	if vs := Validate(r3, DefaultValidateOptions()); hasRule(vs, "R5") {
		t.Fatalf("delivered message should not trigger R5, got %v", vs)
	}

	// Disabling the threshold disables the check.
	if vs := Validate(r, ValidateOptions{FairnessThreshold: 0}); hasRule(vs, "R5") {
		t.Fatalf("threshold 0 should disable R5 checking")
	}
}

func TestViolationFormatting(t *testing.T) {
	v := Violationf("DC2", "process %d missing", 3)
	if v.String() != "DC2: process 3 missing" {
		t.Fatalf("String = %q", v.String())
	}
}

func hasRule(vs []Violation, rule string) bool {
	for _, v := range vs {
		if v.Rule == rule {
			return true
		}
	}
	return false
}
