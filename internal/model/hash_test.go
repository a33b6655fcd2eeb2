package model

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// legacyIdentityKey reproduces the retired string-keyed classing path
// (Event.IdentityKey as it stood before the FNV field-fold replaced it).  The
// cross-check below pins that the hash partition agrees with the string
// partition, so the epistemic checker's classing is unchanged by the
// retirement.
func legacyIdentityKey(e Event) string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(int(e.Kind)))
	b.WriteByte(':')
	b.WriteString(strconv.Itoa(int(e.Peer)))
	b.WriteByte(':')
	switch e.Kind {
	case EventSend, EventRecv:
		m := e.Msg()
		b.WriteString(m.Key())
		b.WriteByte(':')
		b.WriteString(m.Suspects.String())
		b.WriteByte(':')
		b.WriteString(m.KnownCrashed.String())
	case EventInit, EventDo:
		b.WriteString(e.Action().String())
	case EventSuspect:
		b.WriteString(e.Report().String())
	}
	return b.String()
}

// legacyHistoryKey is the retired History.Key string: FNV over the identity
// strings plus length and final key.
func legacyHistoryKey(h History) string {
	keys := make([]string, len(h))
	for i, e := range h {
		keys[i] = legacyIdentityKey(e)
	}
	last := ""
	if len(keys) > 0 {
		last = keys[len(keys)-1]
	}
	return fmt.Sprintf("%s/%d/%s", strings.Join(keys, "\x00"), len(h), last)
}

// randomEvent draws an event covering every kind and a broad mix of field
// combinations, including near-collisions (shared prefixes, swapped fields).
func randomEvent(rng *rand.Rand) Event {
	kind := EventKind(1 + rng.Intn(6))
	e := Event{Kind: kind, Peer: ProcID(rng.Intn(4))}
	switch kind {
	case EventSend, EventRecv:
		kinds := []string{"alpha", "ack", "estimate", "decide", "a", "al"}
		e.SetMsg(&Message{
			Kind:         Kind(kinds[rng.Intn(len(kinds))]),
			Action:       Action(ProcID(rng.Intn(3)), rng.Intn(3)),
			Round:        rng.Intn(3),
			Phase:        rng.Intn(2),
			Value:        rng.Intn(3) - 1,
			Aux:          rng.Intn(2),
			Suspects:     ProcSet(rng.Intn(8)),
			KnownCrashed: ProcSet(rng.Intn(8)),
			KnownInits:   rng.Intn(2) == 0,
		})
	case EventInit, EventDo:
		e.SetAction(Action(ProcID(rng.Intn(3)), rng.Intn(4)))
	case EventSuspect:
		switch rng.Intn(3) {
		case 0:
			e.SetReport(&SuspectReport{Suspects: ProcSet(rng.Intn(8))})
		case 1:
			e.SetReport(&SuspectReport{Generalized: true, Group: ProcSet(rng.Intn(8)), MinFaulty: rng.Intn(3)})
		default:
			e.SetReport(&SuspectReport{CorrectReport: true, Correct: ProcSet(rng.Intn(8))})
		}
	}
	return e
}

// TestIdentityHashAgreesWithStringPartition is the cross-check kept from the
// string-keyed era: over a corpus of generated events, two events share a
// legacy identity string if and only if they share an identity hash, so the
// hash-based classing partitions local states exactly as the string-based
// classing did.
func TestIdentityHashAgreesWithStringPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	byString := make(map[string]uint64)
	byHash := make(map[uint64]string)
	for i := 0; i < 20000; i++ {
		e := randomEvent(rng)
		s, h := legacyIdentityKey(e), e.IdentityHash()
		if prev, ok := byString[s]; ok && prev != h {
			t.Fatalf("same identity string %q hashed to %x and %x", s, prev, h)
		}
		if prev, ok := byHash[h]; ok && prev != s {
			t.Fatalf("identity hash %x collided: %q vs %q", h, prev, s)
		}
		byString[s] = h
		byHash[h] = s
	}
	if len(byString) < 100 {
		t.Fatalf("generator produced only %d distinct events; cross-check too weak", len(byString))
	}
}

// TestHistoryKeyAgreesWithStringPartition extends the cross-check to history
// fingerprints: prefixes of generated histories partition identically under
// the legacy string key and the HistoryKey fingerprint.
func TestHistoryKeyAgreesWithStringPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	byString := make(map[string]HistoryKey)
	byKey := make(map[HistoryKey]string)
	for trial := 0; trial < 200; trial++ {
		events := make(History, rng.Intn(12))
		for i := range events {
			events[i] = randomEvent(rng)
		}
		for cut := 0; cut <= len(events); cut++ {
			h := events[:cut]
			s, k := legacyHistoryKey(h), h.Key()
			if prev, ok := byString[s]; ok && prev != k {
				t.Fatalf("same history string keyed to %+v and %+v", prev, k)
			}
			if prev, ok := byKey[k]; ok && prev != s {
				t.Fatalf("history key %+v collided across distinct histories", k)
			}
			byString[s] = k
			byKey[k] = s
		}
	}
}

// TestIdentityHashGolden pins the identity hash across event layouts: the
// value below was computed with Message.Kind a string and the message, action
// and report side by side, so a layout change that moves one hash — and with
// it every epistemic class and index digest — fails here first.
func TestIdentityHashGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := IdentityHashSeed
	for i := 0; i < 20000; i++ {
		e := randomEvent(rng)
		h = ChainHash(h, e.IdentityHash())
	}
	const want = 0x389ef5d67fb81104
	if h != want {
		t.Fatalf("chained identity hash of the corpus = %#x, want %#x", h, uint64(want))
	}
}
