package store_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

func jsonOf(t *testing.T, r *model.Run) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.EncodeJSON(&buf, r); err != nil {
		t.Fatalf("encode json: %v", err)
	}
	return buf.Bytes()
}

func TestRunRoundTripsByteIdentical(t *testing.T) {
	for _, run := range store.SampleRuns(t) {
		bin := store.EncodeRun(run)
		decoded, err := store.DecodeRun(bin)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !bytes.Equal(store.EncodeRun(decoded), bin) {
			t.Fatalf("binary re-encode differs")
		}
		// The decoded run must be JSON-indistinguishable from the original,
		// so the binary format is a drop-in replacement for the trace files.
		j1, j2 := jsonOf(t, run), jsonOf(t, decoded)
		if !bytes.Equal(j1, j2) {
			t.Fatalf("JSON round trip differs:\n%s\nvs\n%s", j1, j2)
		}
		if len(bin) >= len(j1) {
			t.Errorf("binary encoding (%d bytes) not smaller than JSON (%d bytes)", len(bin), len(j1))
		}
	}
}

func TestSystemRoundTrip(t *testing.T) {
	runs := store.SampleRuns(t)[:6]
	bin := store.EncodeSystem(runs)
	decoded, err := store.DecodeSystem(bin)
	if err != nil {
		t.Fatalf("decode system: %v", err)
	}
	if len(decoded) != len(runs) {
		t.Fatalf("decoded %d runs, want %d", len(decoded), len(runs))
	}
	if !bytes.Equal(store.EncodeSystem(decoded), bin) {
		t.Fatalf("system re-encode differs")
	}
	for i := range runs {
		if !bytes.Equal(jsonOf(t, runs[i]), jsonOf(t, decoded[i])) {
			t.Fatalf("run %d JSON differs after system round trip", i)
		}
	}
}

func sampleSweepRecord(t *testing.T) *store.SweepRecord {
	t.Helper()
	sc := registry.MustScenario("prop3.1-strong-udc")
	res, err := workload.Sweep(sc.Spec, workload.Seeds(1, 6), sc.Eval)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	return store.NewSweepRecord(sc.Name, sc.Check, "", 1, res)
}

func TestSweepRecordRoundTrip(t *testing.T) {
	rec := sampleSweepRecord(t)
	// A stress scenario contributes outcomes with violations so the
	// violation path round-trips too.
	stress := registry.MustScenario("adv-targeted-final-fd")
	sres, err := workload.Sweep(stress.Spec, workload.Seeds(1, 4), stress.Eval)
	if err != nil {
		t.Fatalf("stress sweep: %v", err)
	}
	if sres.TotalViolations() == 0 {
		t.Fatalf("stress scenario produced no violations; test needs some")
	}
	records := []*store.SweepRecord{
		rec,
		store.NewSweepRecord(stress.Name, stress.Check, "targeted-final", 1, sres),
	}
	for _, rec := range records {
		bin := store.EncodeSweepRecord(rec)
		decoded, err := store.DecodeSweepRecord(bin)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !bytes.Equal(store.EncodeSweepRecord(decoded), bin) {
			t.Fatalf("sweep record re-encode differs")
		}
	}
}

// TestSeedRecordRoundTrip covers the per-seed corpus unit: scored sweep
// seeds (with and without violations) and an unscored extraction-source seed,
// each re-encoding byte-identically with the run and outcome intact.
func TestSeedRecordRoundTrip(t *testing.T) {
	sc := registry.MustScenario("adv-targeted-final-fd")
	tasks := []workload.Task{{Spec: sc.Spec, Seeds: workload.Seeds(1, 4), Eval: sc.Eval}}
	scored, err := workload.Runner{}.RunAll(tasks)
	if err != nil {
		t.Fatal(err)
	}
	unscoredTasks := []workload.Task{{Spec: sc.Spec, Seeds: workload.Seeds(1, 1)}}
	unscored, err := workload.Runner{}.RunAll(unscoredTasks)
	if err != nil {
		t.Fatal(err)
	}
	records := make([]*store.SeedRecord, 0, 5)
	for _, sr := range scored[0] {
		records = append(records, store.NewSeedRecord(sr, true))
	}
	records = append(records, store.NewSeedRecord(unscored[0][0], false))

	sawViolations := false
	for i, rec := range records {
		bin := store.EncodeSeedRecord(rec)
		decoded, err := store.DecodeSeedRecord(bin)
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		if !bytes.Equal(store.EncodeSeedRecord(decoded), bin) {
			t.Fatalf("record %d: re-encode differs", i)
		}
		if decoded.Scored != rec.Scored || decoded.Seed != rec.Seed {
			t.Fatalf("record %d: identity fields lost: %+v", i, decoded)
		}
		if !bytes.Equal(jsonOf(t, rec.Run), jsonOf(t, decoded.Run)) {
			t.Fatalf("record %d: embedded run differs after round trip", i)
		}
		if len(decoded.Violations) > 0 {
			sawViolations = true
		}
	}
	if !sawViolations {
		t.Fatalf("stress scenario produced no violations; the violation path went untested")
	}

	// The outcome reconstructed from a decoded record equals the swept one.
	bin := store.EncodeSeedRecord(records[0])
	decoded, err := store.DecodeSeedRecord(bin)
	if err != nil {
		t.Fatal(err)
	}
	want := scored[0][0].Outcome
	got := decoded.Outcome()
	if got.Seed != want.Seed || got.Stats != want.Stats ||
		got.LatencySum != want.LatencySum || got.LatencyActions != want.LatencyActions ||
		len(got.Violations) != len(want.Violations) {
		t.Fatalf("Outcome() = %+v, want %+v", got, want)
	}
}

// TestSeedKeySpecDigests pins the seed-granular identity: the same
// (name, adversary, seed) triple digests identically, and namespaces,
// adversaries and neighbouring seeds all separate.
func TestSeedKeySpecDigests(t *testing.T) {
	base := store.SeedKeySpec("scenario:prop2.3-nudc", "", 42)
	if base.Key() != store.SeedKeySpec("scenario:prop2.3-nudc", "", 42).Key() {
		t.Fatalf("equal seed specs produced different keys")
	}
	for _, other := range []store.KeySpec{
		store.SeedKeySpec("extraction:prop2.3-nudc", "", 42),
		store.SeedKeySpec("scenario:prop2.3-nudc", "cascade", 42),
		store.SeedKeySpec("scenario:prop2.3-nudc", "", 43),
		{Kind: "sweep", Name: "scenario:prop2.3-nudc", SeedBase: 42, Count: 1},
	} {
		if base.Key() == other.Key() {
			t.Fatalf("distinct seed specs collided: %+v", other)
		}
	}
}

// TestSeedKeysMatchSeedKeySpec pins the batch derivation to the per-seed
// one: a digest that moved would silently orphan every stored record.  The
// keys are appended after what dst already holds.
func TestSeedKeysMatchSeedKeySpec(t *testing.T) {
	seeds := []int64{0, 1, -1, 7919, -7919, 1 << 40, math.MaxInt64, math.MinInt64}
	for _, name := range []string{"scenario:prop2.3-nudc", "extraction:kx-perfect", "scenario:"} {
		for _, adversary := range []string{"", "cascade"} {
			held := store.KeySpec{Kind: "held"}.Key()
			keys := store.AppendSeedKeys([]store.Key{held}, name, adversary, seeds)
			if len(keys) != 1+len(seeds) || keys[0] != held {
				t.Fatalf("%d keys for %d seeds after one held key", len(keys), len(seeds))
			}
			keys = keys[1:]
			for i, seed := range seeds {
				if want := store.SeedKeySpec(name, adversary, seed).Key(); keys[i] != want {
					t.Errorf("AppendSeedKeys(%q, %q)[seed %d] = %s, want %s", name, adversary, seed, keys[i], want)
				}
			}
		}
	}
	if keys := store.AppendSeedKeys(nil, "scenario:x", "", nil); len(keys) != 0 {
		t.Fatalf("no seeds yielded %d keys", len(keys))
	}
}

func TestExtractionRecordRoundTrip(t *testing.T) {
	sc, err := registry.LookupExtraction("kx-perfect")
	if err != nil {
		t.Fatal(err)
	}
	ext := sc.Extraction
	ext.Runs = 8
	res, err := workload.Runner{}.Extract(ext)
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	rec := store.NewExtractionRecord("", sc.Stress, res)
	bin := store.EncodeExtractionRecord(rec)
	decoded, err := store.DecodeExtractionRecord(bin)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(store.EncodeExtractionRecord(decoded), bin) {
		t.Fatalf("extraction record re-encode differs")
	}
	if decoded.Kept != res.Kept || decoded.Index != res.Stats || len(decoded.Verdicts) != len(res.Verdicts) {
		t.Fatalf("decoded record fields differ: %+v", decoded)
	}
}

// TestDecodeRejectsEveryTruncation feeds every strict prefix of an encoded
// blob to the decoder: all must fail cleanly (the trailing checksum catches
// what the bounds checks don't), none may panic.
func TestDecodeRejectsEveryTruncation(t *testing.T) {
	run := store.SampleRuns(t)[0]
	bin := store.EncodeRun(run)
	for i := 0; i < len(bin); i++ {
		if _, err := store.DecodeRun(bin[:i]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded successfully", i, len(bin))
		}
	}
}

func TestDecodeRejectsBitFlips(t *testing.T) {
	bin := store.EncodeRun(store.SampleRuns(t)[0])
	for _, pos := range []int{0, 4, 5, len(bin) / 2, len(bin) - 1} {
		corrupt := append([]byte(nil), bin...)
		corrupt[pos] ^= 0x40
		if err := store.Check(corrupt); err == nil {
			t.Fatalf("bit flip at %d passed the container check", pos)
		}
	}
}

func TestKindMismatchRejected(t *testing.T) {
	bin := store.EncodeRun(store.SampleRuns(t)[0])
	if _, err := store.DecodeSweepRecord(bin); err == nil {
		t.Fatalf("run container decoded as a sweep record")
	}
	kind, err := store.Kind(bin)
	if err != nil || kind != store.KindRun {
		t.Fatalf("Kind = %d, %v; want %d, nil", kind, err, store.KindRun)
	}
}

func TestKeySpecDigests(t *testing.T) {
	base := store.KeySpec{Kind: "sweep", Name: "prop3.1-strong-udc", SeedBase: 1, Count: 64}
	same := base
	if base.Key() != same.Key() {
		t.Fatalf("equal specs produced different keys")
	}
	for _, other := range []store.KeySpec{
		{Kind: "extract", Name: base.Name, SeedBase: 1, Count: 64},
		{Kind: "sweep", Name: "prop2.3-nudc", SeedBase: 1, Count: 64},
		{Kind: "sweep", Name: base.Name, Adversary: "cascade", SeedBase: 1, Count: 64},
		{Kind: "sweep", Name: base.Name, SeedBase: 2, Count: 64},
		{Kind: "sweep", Name: base.Name, SeedBase: 1, Count: 65},
	} {
		if base.Key() == other.Key() {
			t.Fatalf("distinct specs %+v and %+v collided", base, other)
		}
	}
}

// TestDecodeRejectsImpossibleRuns frames structurally invalid runs in valid
// containers (intact magic + CRC) and checks that the binary decoder rejects
// them exactly like trace.DecodeJSON would — a well-checksummed file is not
// the same thing as a well-formed run.
func TestDecodeRejectsImpossibleRuns(t *testing.T) {
	bad := []*model.Run{
		{N: 2, Horizon: -5, Events: make([][]model.TimedEvent, 2)},
		{N: 2, Horizon: 10, Events: [][]model.TimedEvent{
			{{Time: 7, Event: model.Event{Kind: model.EventInit}}, {Time: 3, Event: model.Event{Kind: model.EventDo}}}, // non-monotone (R2)
			{},
		}},
		{N: 2, Horizon: 10, Events: [][]model.TimedEvent{
			{{Time: 99, Event: model.Event{Kind: model.EventInit}}}, // beyond horizon
			{},
		}},
		{N: 2, Horizon: 10, Events: [][]model.TimedEvent{
			{{Time: -1, Event: model.Event{Kind: model.EventInit}}}, // negative time
			{},
		}},
	}
	for i, run := range bad {
		bin := store.EncodeRun(run)
		if err := store.Check(bin); err != nil {
			t.Fatalf("case %d: container framing itself invalid: %v", i, err)
		}
		if _, err := store.DecodeRun(bin); err == nil {
			t.Errorf("case %d: structurally invalid run decoded successfully", i)
		}
		if _, err := store.DecodeSystem(store.EncodeSystem(model.System{run})); err == nil {
			t.Errorf("case %d: invalid run decoded successfully inside a system", i)
		}
	}
}

// TestProbeDoesNotCountMisses pins the stats contract the scheduler's
// singleflight re-probe relies on.
func TestProbeDoesNotCountMisses(t *testing.T) {
	s, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Probe(keyOf(1)); ok {
		t.Fatalf("probe of empty store hit")
	}
	if _, ok := s.Get(keyOf(1)); ok {
		t.Fatalf("get of empty store hit")
	}
	st := s.Stats()
	if st.Misses != 1 {
		t.Fatalf("Misses = %d after one Get and one Probe, want 1", st.Misses)
	}
	if err := s.Put(keyOf(1), payloadOf("a")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Probe(keyOf(1)); !ok {
		t.Fatalf("probe missed a stored entry")
	}
	if st := s.Stats(); st.Hits() != 1 {
		t.Fatalf("probe hit not counted: %+v", st)
	}
}
