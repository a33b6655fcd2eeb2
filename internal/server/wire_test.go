package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// The sweep JSON appenders must write exactly what encoding/json writes for
// the wire types.  These tests hold them to it over every catalog scenario,
// hand-built records aimed at each rule the appenders reimplement (escaping,
// float format, omitempty), and fuzzed records.

var catalogRecords = sync.OnceValue(func() []*store.SweepRecord {
	var recs []*store.SweepRecord
	for _, sc := range registry.Scenarios() {
		res, err := workload.Sweep(sc.Spec, workload.Seeds(1, 24), sc.Eval)
		if err != nil {
			panic(err)
		}
		recs = append(recs, store.NewSweepRecord(sc.Name, sc.Check, "", 1, res))
	}
	return recs
})

// handBuiltRecords are the records no catalog sweep produces: no outcomes
// (meanLatency -1), an adversary, violation strings holding every class of
// byte encoding/json escapes, and means that print in exponent form or at the
// ends of the int range.  meanMessages is a sum of ints over the outcome
// count, so it only reaches exponent form past a million outcomes; meanLatency
// divides by LatencyActions and gets there with one, and the shared float
// appender is checked directly in the floats subtest.
func handBuiltRecords() []*store.SweepRecord {
	odd := []string{`q"uote`, `back\slash`, "<b>&amp;</b>", "line\nbreak\ttab", "ctl\x01\x1f\x7f", "sep\u2028\u2029", "café", "bad\xff\xfeutf8", ""}
	var vs []model.Violation
	for i, s := range odd {
		vs = append(vs, model.Violation{Rule: s, Detail: odd[len(odd)-1-i]})
	}
	return []*store.SweepRecord{
		{Scenario: "empty", Check: "udc", SeedBase: 1},
		{Scenario: "adv", Check: "nudc", Adversary: "burst-loss", SeedBase: -5, Outcomes: []workload.RunOutcome{
			{Seed: -5, Stats: sim.Stats{Steps: 3, MessagesSent: -7}, Violations: vs, LatencySum: -2, LatencyActions: 3},
			{Seed: 0, Violations: vs[:1]},
		}},
		{Scenario: "tiny<latency>&", Check: "udc", SeedBase: 1, Outcomes: []workload.RunOutcome{
			{Seed: 1, Stats: sim.Stats{MessagesSent: 1}, LatencySum: 1, LatencyActions: 10_000_000},
		}},
		{Scenario: "tinier", Check: "udc", SeedBase: 1, Outcomes: []workload.RunOutcome{
			{Seed: 1, LatencySum: 3, LatencyActions: 1 << 62},
			{Seed: 2, LatencySum: -1},
		}},
		{Scenario: "huge", Check: "udc", SeedBase: math.MaxInt64, Outcomes: []workload.RunOutcome{
			{Seed: math.MaxInt64, Stats: sim.Stats{MessagesSent: math.MaxInt64, LastEventTime: math.MinInt64}, LatencySum: math.MaxInt64, LatencyActions: 1},
			{Seed: math.MinInt64, Stats: sim.Stats{MessagesSent: math.MaxInt64}},
		}},
	}
}

// checkSweepJSON fails unless the buffered body and the NDJSON lines the
// streamer writes for rec equal their encoding/json renderings.
func checkSweepJSON(t *testing.T, rec *store.SweepRecord) {
	t.Helper()
	if got, want := appendSweepBody(nil, rec), MarshalBody(SweepResponseOf(rec)); !bytes.Equal(got, want) {
		t.Fatalf("%s: sweep body differs from encoding/json\n got %s\nwant %s", rec.Scenario, got, want)
	}
	w := httptest.NewRecorder()
	st := newStreamer(&request{w: w, format: formatNDJSON})
	var want []byte
	for _, o := range rec.Outcomes {
		st.emitOutcome(o)
		want = append(want, MarshalBody(outcomeJSON(o))...)
	}
	if got := w.Body.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("%s: NDJSON lines differ from encoding/json\n got %s\nwant %s", rec.Scenario, got, want)
	}
}

func TestSweepJSONMatchesEncodingJSON(t *testing.T) {
	t.Run("catalog", func(t *testing.T) {
		for _, rec := range catalogRecords() {
			checkSweepJSON(t, rec)
		}
	})
	t.Run("hand-built", func(t *testing.T) {
		for _, rec := range handBuiltRecords() {
			checkSweepJSON(t, rec)
		}
	})
	t.Run("floats", func(t *testing.T) {
		for _, f := range []float64{0, math.Copysign(0, -1), -1, 0.5, 1.0 / 3, 2.5e-6, 1e-6, 9.99999e-7, 1e-7, -1.5e-9, 1.2e-10, 5e-324,
			1e20, 1e21, -3.4e22, 123456789012345678, math.MaxFloat64, float64(math.MaxInt64)} {
			want, err := json.Marshal(f)
			if err != nil {
				t.Fatal(err)
			}
			if got := appendFloat(nil, f); !bytes.Equal(got, want) {
				t.Errorf("appendFloat(%g) = %s, encoding/json writes %s", f, got, want)
			}
		}
	})
}

// sealSweep wraps a payload in the container framing of a sweep record
// (magic, version, kind, payload, CRC-32C), so fuzzed payloads reach the
// field parser instead of failing the checksum.
func sealSweep(payload []byte) []byte {
	out := append([]byte{'U', 'D', 'C', store.CodecVersion, store.KindSweep}, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crc32.MakeTable(crc32.Castagnoli)))
}

// FuzzSweepJSON renders every sweep record the store's decoder accepts, from
// the fuzzed bytes as they are and sealed as a payload, and holds the
// appenders to encoding/json on it.  The seeds are the encoded catalog and
// hand-built records.
func FuzzSweepJSON(f *testing.F) {
	for _, rec := range append(catalogRecords(), handBuiltRecords()...) {
		container := store.EncodeSweepRecord(rec)
		f.Add(container)
		f.Add(container[5 : len(container)-4])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, container := range [][]byte{data, sealSweep(data)} {
			if rec, err := store.DecodeSweepRecord(container); err == nil {
				checkSweepJSON(t, rec)
			}
		}
	})
}

// sweepPayload is the stored container of a DefaultSeeds-seed sweep of
// prop3.1-strong-udc, the catalog's Table 1 row the benchmarks serve.
func sweepPayload(tb testing.TB) []byte {
	sc := registry.MustScenario("prop3.1-strong-udc")
	res, err := workload.Sweep(sc.Spec, workload.Seeds(1, DefaultSeeds), sc.Eval)
	if err != nil {
		tb.Fatal(err)
	}
	return store.EncodeSweepRecord(store.NewSweepRecord(sc.Name, sc.Check, "", 1, res))
}

// TestSweepJSONHitAllocs pins what a warm buffered JSON hit allocates to
// decode and render its body: renderBody on a warm scratch allocates nothing
// (measured: 0 allocations), for the 64-seed record and for every catalog
// record, violations included.  With a fresh store.DecodeSweepRecord in its
// place the step measures 3 allocations a hit.  The scratch is the test's
// own, not jsonBufs', so the race detector's random pool drops cannot show.
func TestSweepJSONHitAllocs(t *testing.T) {
	payloads := [][]byte{sweepPayload(t)}
	for _, rec := range catalogRecords() {
		payloads = append(payloads, store.EncodeSweepRecord(rec))
	}
	for _, payload := range payloads {
		want, err := store.DecodeSweepRecord(payload)
		if err != nil {
			t.Fatal(err)
		}
		var sc jsonScratch
		allocs := testing.AllocsPerRun(100, func() {
			if err := sc.renderBody(payload); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("%s: a warm hit's decode and render allocates %.0f times, want 0", want.Scenario, allocs)
		}
		if !bytes.Equal(sc.body, appendSweepBody(nil, want)) {
			t.Errorf("%s: the recycled record renders a different body", want.Scenario)
		}
	}
}

// BenchmarkSweepJSON decodes and renders one 64-seed sweep record: through a
// fresh decode and encoding/json's reflection, and through a pooled scratch's
// renderBody, the path handleSweep takes.
func BenchmarkSweepJSON(b *testing.B) {
	payload := sweepPayload(b)
	rec, err := store.DecodeSweepRecord(payload)
	if err != nil {
		b.Fatal(err)
	}
	want := MarshalBody(SweepResponseOf(rec))
	for _, leg := range []struct {
		name   string
		render func(body []byte) []byte // appends the body to body[:0]
	}{
		{"reflect", func([]byte) []byte {
			rec, err := store.DecodeSweepRecord(payload)
			if err != nil {
				b.Fatal(err)
			}
			return MarshalBody(SweepResponseOf(rec))
		}},
		{"append", func(body []byte) []byte {
			sc := jsonBufs.Get().(*jsonScratch)
			defer sc.release()
			if err := sc.renderBody(payload); err != nil {
				b.Fatal(err)
			}
			return append(body[:0], sc.body...)
		}},
	} {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			var body []byte
			for i := 0; i < b.N; i++ {
				body = leg.render(body)
			}
			if !bytes.Equal(body, want) {
				b.Fatalf("%s body differs from MarshalBody(SweepResponseOf(rec))", leg.name)
			}
			b.SetBytes(int64(len(body)))
		})
	}
}
