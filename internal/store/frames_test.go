package store_test

import (
	"bytes"
	"io"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

func sampleOutcomes() []workload.RunOutcome {
	return []workload.RunOutcome{
		{
			Seed:  1,
			Stats: sim.Stats{Steps: 400, MessagesSent: 120, MessagesDelivered: 100, MessagesDropped: 20, DoEvents: 6, InitEvents: 6},
		},
		{
			Seed:  -42,
			Stats: sim.Stats{Steps: 10, CrashEvents: 2},
			Violations: []model.Violation{
				{Rule: "R3", Detail: "p2 did a without init"},
				{Rule: "strong-accuracy", Detail: "p0 suspected before crashing"},
			},
			LatencySum:     17,
			LatencyActions: 3,
		},
		{}, // zero value must survive too
	}
}

func TestOutcomeFrameRoundTrip(t *testing.T) {
	for i, o := range sampleOutcomes() {
		decoded, err := store.DecodeOutcome(store.EncodeOutcome(o))
		if err != nil {
			t.Fatalf("outcome %d: %v", i, err)
		}
		if !reflect.DeepEqual(decoded, o) {
			t.Fatalf("outcome %d round trip differs:\n%+v\nvs\n%+v", i, decoded, o)
		}
	}
}

func TestStreamErrorRoundTrip(t *testing.T) {
	msg, err := store.DecodeStreamError(store.EncodeStreamError("compute queue full"))
	if err != nil {
		t.Fatal(err)
	}
	if msg != "compute queue full" {
		t.Fatalf("decoded %q", msg)
	}
	// An outcome container is also a sweep's per-seed corpus record, so it
	// shares the store with window records: a sweep-record decode must reject
	// it, not alias it.
	if _, err := store.DecodeSweepRecord(store.EncodeOutcome(workload.RunOutcome{Seed: 9})); err == nil {
		t.Fatal("sweep-record decode accepted an outcome container")
	}
}

// TestOutcomeMatchesSeedRecordOutcome is the differential behind storing a
// sweep's per-seed record as an outcome container: for random scored seeds
// it decodes to exactly the outcome the run-carrying seed record yields, and
// both equal what was swept.
func TestOutcomeMatchesSeedRecordOutcome(t *testing.T) {
	run := model.NewRun(2)
	property := func(o workload.RunOutcome) bool {
		if len(o.Violations) == 0 {
			o.Violations = nil // both decoders render "none" as nil
		}
		got, err := store.DecodeOutcome(store.EncodeOutcome(o))
		if err != nil {
			t.Logf("outcome container: %v", err)
			return false
		}
		rec, err := store.DecodeSeedRecord(store.EncodeSeedRecord(store.NewSeedRecord(workload.SeedRun{Outcome: o, Run: run}, true)))
		if err != nil {
			t.Logf("seed record: %v", err)
			return false
		}
		return reflect.DeepEqual(got, rec.Outcome()) && reflect.DeepEqual(got, o)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameReaderRoundTrip(t *testing.T) {
	outcomes := sampleOutcomes()
	var wire []byte
	for _, o := range outcomes {
		wire = store.AppendFrame(wire, store.EncodeOutcome(o))
	}
	wire = store.AppendFrame(wire, store.EncodeStreamError("trailer"))

	fr := store.NewFrameReader(bytes.NewReader(wire))
	var got []workload.RunOutcome
	for i := 0; i < len(outcomes); i++ {
		frame, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		o, err := store.DecodeOutcome(frame)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got = append(got, o)
	}
	frame, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if msg, err := store.DecodeStreamError(frame); err != nil || msg != "trailer" {
		t.Fatalf("trailer = %q, %v", msg, err)
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after the last frame err = %v, want io.EOF", err)
	}
	if !reflect.DeepEqual(got, outcomes) {
		t.Fatalf("frames decoded %+v, want %+v", got, outcomes)
	}
}

func TestFrameReaderDetectsTruncation(t *testing.T) {
	var wire []byte
	for _, o := range sampleOutcomes() {
		wire = store.AppendFrame(wire, store.EncodeOutcome(o))
	}
	// Chop mid-frame: the reader must distinguish this from a clean boundary.
	fr := store.NewFrameReader(bytes.NewReader(wire[:len(wire)-3]))
	var err error
	for err == nil {
		_, err = fr.Next()
	}
	if err == io.EOF {
		t.Fatal("truncated stream reported a clean EOF")
	}
	// A flipped byte inside a frame body fails the container checksum.
	corrupt := bytes.Clone(wire)
	corrupt[len(corrupt)-5] ^= 0xff
	fr = store.NewFrameReader(bytes.NewReader(corrupt))
	err = nil
	for err == nil {
		_, err = fr.Next()
	}
	if err == io.EOF {
		t.Fatal("corrupt frame passed the container check")
	}
}
