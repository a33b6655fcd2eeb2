package store

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/workload"
)

// FuzzDecodeOutcome fuzzes the parser behind a sweep's per-seed corpus
// records — bytes read back from disk, which the daemon does not control.
// A mutated container almost never keeps a valid CRC, so every input is
// decoded twice: as it is (the framing checks) and sealed as the payload of a
// well-formed container (the field parser behind them).  Neither decode may
// panic or allocate beyond what reader.length allows, an accepted outcome
// must survive decode∘encode unchanged, and no single-bit flip of an accepted
// container may be accepted too.
func FuzzDecodeOutcome(f *testing.F) {
	for _, o := range []workload.RunOutcome{
		{},
		{Seed: 1, Stats: sim.Stats{Steps: 400, MessagesSent: 120, MessagesDelivered: 100, MessagesDropped: 20, DoEvents: 6, InitEvents: 6, LastEventTime: 399}},
		{Seed: -7919, Stats: sim.Stats{Steps: 10, CrashEvents: 2}, Violations: []model.Violation{{Rule: "R3", Detail: "p2 did a without init"}, {Rule: "udc"}}, LatencySum: 17, LatencyActions: 3},
	} {
		container := EncodeOutcome(o)
		f.Add(container)
		f.Add(container[5 : len(container)-4])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, container := range [][]byte{data, seal(KindOutcome, data)} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			o, err := DecodeOutcome(container)
			runtime.ReadMemStats(&after)
			// A violation count is bounded by the bytes that remain and a
			// Violation is two string headers, so the parser's own share is
			// under 33 bytes per input byte; the rest is slack for the error
			// value and whatever else the process allocates meanwhile.
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(container)+64<<10); got > limit {
				t.Fatalf("decoding %d bytes allocated %d, limit %d", len(container), got, limit)
			}
			if err != nil {
				continue
			}
			canonical := EncodeOutcome(o)
			again, err := DecodeOutcome(canonical)
			if err != nil || !reflect.DeepEqual(again, o) {
				t.Fatalf("decode∘encode is not the identity: %+v -> %+v (%v)", o, again, err)
			}
			// Quadratic in the container, so only at the size real records
			// have (a few dozen bytes, more with violations).
			flipped := append([]byte(nil), container...) // the engine owns data
			for bit := 0; len(flipped) <= 512 && bit < 8*len(flipped); bit++ {
				flipped[bit/8] ^= 1 << (bit % 8)
				if _, err := DecodeOutcome(flipped); err == nil {
					t.Fatalf("container accepted with bit %d flipped", bit)
				}
				flipped[bit/8] ^= 1 << (bit % 8)
			}
		}
	})
}

// FuzzDecodeRun fuzzes the run parser behind every run-carrying container —
// the seed records of extraction sources, and run files — which the daemon
// and udcsim read from disk.  Its shape is FuzzDecodeOutcome's: every input
// is decoded as it is and sealed as a payload; neither decode may panic or
// allocate more than the input's length allows, an accepted run must survive
// decode∘encode unchanged, and no single-bit flip of an accepted container
// may be accepted too.  The seeds are recorded runs of every catalogued
// scenario and the events TestDecodeRejectsImpossibleEvents rejects.  Input
// that invents message kinds fills the bounded intern table and then fails
// to decode; TestKindInterning pins that bound.
func FuzzDecodeRun(f *testing.F) {
	for _, run := range SampleRuns(f) {
		container := EncodeRun(run)
		f.Add(container)
		f.Add(container[5 : len(container)-4])
	}
	for _, c := range impossibleEvents {
		container := c.container()
		f.Add(container)
		f.Add(container[5 : len(container)-4])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, container := range [][]byte{data, seal(KindRun, data)} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run, err := DecodeRun(container)
			runtime.ReadMemStats(&after)
			// An event costs at least one byte of the count it is read
			// under and lands in an 80-byte slab that may have doubled, and
			// the returned run is one more slab: under 256 bytes per input
			// byte, plus slack for the error value and whatever else the
			// process allocates meanwhile.
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(256*len(container)+64<<10); got > limit {
				t.Fatalf("decoding %d bytes allocated %d, limit %d", len(container), got, limit)
			}
			if err != nil {
				continue
			}
			canonical := EncodeRun(run)
			again, err := DecodeRun(canonical)
			if err != nil || !reflect.DeepEqual(again, run) || !bytes.Equal(EncodeRun(again), canonical) {
				t.Fatalf("decode∘encode is not the identity (%v)", err)
			}
			flipped := append([]byte(nil), container...) // the engine owns data
			for bit := 0; len(flipped) <= 512 && bit < 8*len(flipped); bit++ {
				flipped[bit/8] ^= 1 << (bit % 8)
				if _, err := DecodeRun(flipped); err == nil {
					t.Fatalf("container accepted with bit %d flipped", bit)
				}
				flipped[bit/8] ^= 1 << (bit % 8)
			}
		}
	})
}
