package store

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/sim"
)

// decodeTestRun builds a run exercising every event kind, message field and
// report field, so pooled and plain decoding are compared over the full
// codec surface.
func decodeTestRun(seed int64, events int) *model.Run {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(6)
	run := model.NewRun(n)
	kinds := []model.MsgKind{model.Kind("alpha"), model.Kind("ack"), model.Kind("estimate"), model.Kind("decide")}
	t := 1
	for placed := 0; placed < events; t++ {
		for p := 0; p < n && placed < events; p++ {
			var e model.Event
			switch rng.Intn(5) {
			case 0:
				e = model.InitEvent(model.Action(model.ProcID(p), rng.Intn(4)))
			case 1:
				e = model.SendEvent(model.ProcID((p+1)%n), model.Message{
					Kind: kinds[rng.Intn(len(kinds))], Round: rng.Intn(900), Phase: rng.Intn(3),
					Value: rng.Intn(100) - 50, Suspects: model.ProcSet(rng.Intn(1 << n)), KnownInits: rng.Intn(2) == 0,
				})
			case 2:
				e = model.RecvEvent(model.ProcID((p+n-1)%n), model.Message{
					Kind: kinds[rng.Intn(len(kinds))], Aux: rng.Intn(1000), KnownCrashed: model.ProcSet(rng.Intn(1 << n)),
				})
			case 3:
				e = model.SuspectEvent(model.SuspectReport{
					Suspects: model.ProcSet(rng.Intn(1 << n)), Generalized: rng.Intn(2) == 0,
					Group: model.ProcSet(rng.Intn(1 << n)), MinFaulty: rng.Intn(3),
				})
			default:
				e = model.DoEvent(model.Action(model.ProcID(rng.Intn(n)), rng.Intn(8)))
			}
			if err := run.Append(model.ProcID(p), t, e); err != nil {
				panic(err)
			}
			placed++
		}
	}
	run.SetHorizon(t + rng.Intn(10))
	return run
}

// TestRunDecoderMatchesDecodeRun pins the pooled decoder to the plain API:
// for varied runs, the transient view equals the owned decode exactly, and a
// CompactClone of it survives the decoder moving on to the next payload.
func TestRunDecoderMatchesDecodeRun(t *testing.T) {
	d := NewRunDecoder()
	for seed := int64(1); seed <= 8; seed++ {
		data := EncodeRun(decodeTestRun(seed, 64+int(seed)*37))
		want, err := DecodeRun(data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.DecodeRun(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: pooled decode differs from plain decode", seed)
		}
		clone := got.CompactClone()
		// The transient view dies with the next decode; the clone must not.
		if _, err := d.DecodeRun(EncodeRun(decodeTestRun(seed+100, 32))); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(clone, want) {
			t.Fatalf("seed %d: CompactClone corrupted by the decoder's next use", seed)
		}
	}
}

// TestRunDecoderSeedRecordMatchesPlain pins the pooled seed-record decode to
// the plain API over scored and unscored records.
func TestRunDecoderSeedRecordMatchesPlain(t *testing.T) {
	d := NewRunDecoder()
	for seed := int64(1); seed <= 4; seed++ {
		rec := &SeedRecord{
			Seed:   seed,
			Stats:  sim.Stats{Steps: 100, MessagesSent: int(seed) * 11, DoEvents: 3},
			Scored: seed%2 == 0,
			Violations: []model.Violation{
				{Rule: "UDC", Detail: fmt.Sprintf("detail %d", seed)},
			},
			LatencySum:     int(seed) * 7,
			LatencyActions: int(seed),
			Run:            decodeTestRun(seed, 50),
		}
		if seed%2 != 0 {
			rec.Violations = nil
		}
		data := EncodeSeedRecord(rec)
		want, err := DecodeSeedRecord(data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.DecodeSeedRecord(data)
		if err != nil {
			t.Fatal(err)
		}
		owned := *got
		owned.Run = got.Run.CompactClone()
		if !reflect.DeepEqual(&owned, want) {
			t.Fatalf("seed %d: pooled seed-record decode differs from plain decode", seed)
		}
	}
}

// TestRunDecoderErrorsMatchPlain verifies the pooled path rejects malformed
// containers with the same errors as the plain path, and that a failed decode
// does not poison the decoder for subsequent use.
func TestRunDecoderErrorsMatchPlain(t *testing.T) {
	d := NewRunDecoder()
	good := EncodeRun(decodeTestRun(3, 40))
	bad := [][]byte{
		nil,
		good[:10],
		append(append([]byte{}, good...), 0xff),
	}
	flipped := append([]byte{}, good...)
	flipped[len(flipped)/2] ^= 0x40
	bad = append(bad, flipped)
	for i, data := range bad {
		_, wantErr := DecodeRun(data)
		_, gotErr := d.DecodeRun(data)
		if wantErr == nil || gotErr == nil {
			t.Fatalf("case %d: malformed container accepted (plain=%v pooled=%v)", i, wantErr, gotErr)
		}
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("case %d: error mismatch:\nplain:  %v\npooled: %v", i, wantErr, gotErr)
		}
	}
	if _, err := d.DecodeRun(good); err != nil {
		t.Fatalf("decoder poisoned by failed decodes: %v", err)
	}
}

// TestPooledDecodeAllocs pins the pooled ownership contract: once a decoder's
// buffers are warm, transiently decoding a run or seed record performs at
// most one allocation per call (zero in the steady state; the bound leaves
// headroom for map-internal rehashing noise).
func TestPooledDecodeAllocs(t *testing.T) {
	d := NewRunDecoder()
	runData := EncodeRun(decodeTestRun(5, 512))
	recData := EncodeSeedRecord(&SeedRecord{Seed: 5, Run: decodeTestRun(6, 512)})
	if _, err := d.DecodeRun(runData); err != nil {
		t.Fatal(err)
	}
	if _, err := d.DecodeSeedRecord(recData); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := d.DecodeRun(runData); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Fatalf("warm pooled run decode allocated %.1f times per call, want <= 1", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := d.DecodeSeedRecord(recData); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Fatalf("warm pooled seed-record decode allocated %.1f times per call, want <= 1", allocs)
	}
}

// TestKindInterning verifies that decoded message kinds are the process's
// interned kinds, and that input inventing kinds fills the bounded intern
// table only so far and then fails to decode.  The flood runs in a child
// process, so the full table does not leak into the other tests.
func TestKindInterning(t *testing.T) {
	alpha := model.Kind("alpha")
	run := model.NewRun(2)
	for i := 0; i < 4; i++ {
		if err := run.Append(0, i+1, model.SendEvent(1, model.Message{Kind: alpha})); err != nil {
			t.Fatal(err)
		}
	}
	run.SetHorizon(10)
	known := EncodeRun(run)
	got, err := NewRunDecoder().DecodeRun(known)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got.Events[0] {
		if k := got.Events[0][i].Event.MsgKind(); k != alpha {
			t.Fatalf("event %d decoded kind %v, want the interned %v", i, k, alpha)
		}
	}

	if os.Getenv("STORE_KIND_FLOOD") == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestKindInterning$")
		cmd.Env = append(os.Environ(), "STORE_KIND_FLOOD=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("kind flood: %v\n%s", err, out)
		}
		return
	}
	const batch = 100
	for first := 0; ; first += batch {
		if first > 1<<16 {
			t.Fatalf("%d invented kinds decoded without hitting the table's bound", first)
		}
		_, err := DecodeRun(kindFlood(first, batch))
		if err == nil {
			continue
		}
		if !strings.Contains(err.Error(), "message-kind table full") {
			t.Fatalf("after %d invented kinds: %v, want a full kind table", first, err)
		}
		break
	}
	// Kinds interned before the flood still decode.
	if _, err := DecodeRun(known); err != nil {
		t.Fatalf("known kinds stopped decoding after the flood: %v", err)
	}
}

// kindFlood encodes a two-process run whose count sends each carry a kind no
// protocol declares, written without interning them.
func kindFlood(first, count int) []byte {
	var w writer
	w.int(2)
	w.int(1)
	w.uvarint(uint64(count))
	for i := 0; i < count; i++ {
		w.int(1)
		w.uvarint(uint64(model.EventSend))
		w.uvarint(1<<0 | 1<<1) // peer and message
		w.svarint(1)
		w.uvarint(1 << 0) // the message's kind alone
		w.str(fmt.Sprintf("invented-%d", first+i))
	}
	w.uvarint(0)
	return seal(KindRun, w.buf)
}
