package model

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestKindInternsNames pins the intern table's contract: a name maps to one
// kind for the life of the process, 0 is "", JSON carries the name, and a
// name past the length bound is refused rather than stored.
func TestKindInternsNames(t *testing.T) {
	if k := Kind(""); k != 0 || k.String() != "" {
		t.Fatalf(`Kind("") = %d %q, want 0 ""`, k, k)
	}
	a, b := Kind("kind-test-a"), Kind("kind-test-b")
	if a == b || a == 0 || Kind("kind-test-a") != a {
		t.Fatalf("kinds %d, %d: want distinct, nonzero and stable", a, b)
	}
	if a.String() != "kind-test-a" {
		t.Fatalf("String() = %q", a.String())
	}
	raw, err := json.Marshal(Message{Kind: a})
	if err != nil || string(raw) != `{"kind":"kind-test-a","action":{"initiator":0,"seq":0}}` {
		t.Fatalf("Message JSON = %s (%v)", raw, err)
	}
	var m Message
	if err := json.Unmarshal([]byte(`{"kind":"kind-test-c"}`), &m); err != nil || m.Kind.String() != "kind-test-c" {
		t.Fatalf("Unmarshal: kind %q (%v)", m.Kind, err)
	}
	if _, err := InternKind([]byte(strings.Repeat("x", maxKindLen+1))); err == nil {
		t.Fatalf("a %d-byte kind was interned", maxKindLen+1)
	}
}

// TestInternKindConcurrent interns and reads kinds from several goroutines
// at once, for the race detector: readers take no lock.
func TestInternKindConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("kind-race-%d", i)
				k, err := InternKind([]byte(name))
				if err != nil {
					t.Error(err)
					return
				}
				if k.String() != name {
					t.Errorf("kind %d reads %q, want %q", k, k, name)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestEventJSONRoundTrip pins the event's JSON to what the struct marshalled
// to while message, action and report were fields side by side (all three
// always present), and decodes it back.
func TestEventJSONRoundTrip(t *testing.T) {
	alpha := Kind("alpha")
	cases := []struct {
		event Event
		json  string
	}{
		{SendEvent(2, Message{Kind: alpha, Action: Action(1, 3), Round: 4, Suspects: SetOf(0), KnownInits: true}),
			`{"kind":1,"peer":2,"msg":{"kind":"alpha","action":{"initiator":1,"seq":3},"round":4,"suspects":1,"knownInits":true},"action":{"initiator":0,"seq":0},"report":{}}`},
		{DoEvent(Action(1, 3)),
			`{"kind":4,"msg":{"kind":"","action":{"initiator":0,"seq":0}},"action":{"initiator":1,"seq":3},"report":{}}`},
		{SuspectEvent(SuspectReport{Generalized: true, Group: SetOf(1, 2), MinFaulty: 1, Correct: SetOf(0)}),
			`{"kind":6,"msg":{"kind":"","action":{"initiator":0,"seq":0}},"action":{"initiator":0,"seq":0},"report":{"generalized":true,"group":6,"minFaulty":1,"correct":1}}`},
		{Event{Kind: EventCrash},
			`{"kind":5,"msg":{"kind":"","action":{"initiator":0,"seq":0}},"action":{"initiator":0,"seq":0},"report":{}}`},
	}
	for _, c := range cases {
		raw, err := json.Marshal(c.event)
		if err != nil || string(raw) != c.json {
			t.Errorf("%v: JSON\n got %s (%v)\nwant %s", c.event, raw, err, c.json)
			continue
		}
		var back Event
		if err := json.Unmarshal(raw, &back); err != nil || back != c.event {
			t.Errorf("%v: round trip gave %v (%v)", c.event, back, err)
		}
	}
}
