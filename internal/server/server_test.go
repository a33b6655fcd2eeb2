package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/workload"
)

// newTestServer assembles a daemon over a fresh store (disk-backed when dir
// is non-empty) and returns it with its httptest front.
func newTestServer(t *testing.T, dir string) (*server.Server, *httptest.Server) {
	t.Helper()
	srv, err := server.New(server.Config{Store: reopen(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

// reopen opens a fresh store on dir, as a restarted daemon would.
func reopen(t testing.TB, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func get(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, body
}

// goldenSweepBody renders the response body a direct serial workload.Sweep
// would yield for the request — the byte-identity reference of the
// acceptance criteria.
func goldenSweepBody(t *testing.T, req server.SweepRequest) []byte {
	t.Helper()
	sc := registry.MustScenario(req.Scenario)
	if req.Adversary != "" {
		sc.Spec.Adversary = registry.MustAdversary(req.Adversary)
	}
	res, err := workload.Sweep(sc.Spec, workload.Seeds(req.SeedBase, req.Seeds), sc.Eval)
	if err != nil {
		t.Fatal(err)
	}
	rec := store.NewSweepRecord(sc.Name, sc.Check, req.Adversary, req.SeedBase, res)
	return server.MarshalBody(server.SweepResponseOf(rec))
}

// goldenExtractBody renders the response body a direct Runner.Extract would
// yield for the request.
func goldenExtractBody(t testing.TB, req server.ExtractRequest) []byte {
	t.Helper()
	sc, err := registry.LookupExtraction(req.Extraction)
	if err != nil {
		t.Fatal(err)
	}
	ext := sc.Extraction
	if req.Adversary != "" {
		ext.Source.Adversary = registry.MustAdversary(req.Adversary)
	}
	if req.Runs > 0 {
		ext.Runs = req.Runs
	}
	if req.SeedBase != 0 {
		ext.BaseSeed = req.SeedBase
	}
	res, err := workload.Runner{}.Extract(ext)
	if err != nil {
		t.Fatal(err)
	}
	rec := store.NewExtractionRecord(req.Adversary, sc.Stress, res)
	return server.MarshalBody(server.ExtractResponseOf(rec))
}

// TestSweepGoldenByteIdentical is the acceptance-criteria golden test: for
// catalogued scenarios (including an adversary override and a stress
// scenario with violations), the daemon's body equals a direct serial
// sweep's rendering byte for byte — on the cold miss, on the warm cache hit,
// and via GET and POST alike.
func TestSweepGoldenByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	requests := []server.SweepRequest{
		{Scenario: "prop3.1-strong-udc", Seeds: 8, SeedBase: 1},
		{Scenario: "prop2.3-nudc", Seeds: 6, SeedBase: 40},
		{Scenario: "adv-targeted-final-fd", Seeds: 5, SeedBase: 1},                      // records violations
		{Scenario: "prop2.4-reliable-udc", Adversary: "cascade", Seeds: 6, SeedBase: 1}, // adversary override
	}
	for _, req := range requests {
		golden := goldenSweepBody(t, req)

		url := fmt.Sprintf("%s/v1/sweep?scenario=%s&seeds=%d&seedBase=%d&adversary=%s",
			ts.URL, req.Scenario, req.Seeds, req.SeedBase, req.Adversary)
		status, header, body := get(t, url)
		if status != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", req.Scenario, status, body)
		}
		if header.Get("X-Cache") != "miss" {
			t.Fatalf("%s: first response X-Cache = %q, want miss", req.Scenario, header.Get("X-Cache"))
		}
		if !bytes.Equal(body, golden) {
			t.Fatalf("%s: cold body differs from direct serial sweep:\n%s\nvs\n%s", req.Scenario, body, golden)
		}

		// Warm: served from the store, still byte-identical.
		status, header, body = get(t, url)
		if status != http.StatusOK || header.Get("X-Cache") != "hit" {
			t.Fatalf("%s: warm response HTTP %d X-Cache %q", req.Scenario, status, header.Get("X-Cache"))
		}
		if !bytes.Equal(body, golden) {
			t.Fatalf("%s: cached body differs from direct serial sweep", req.Scenario)
		}

		// POST path renders the same body.
		payload := server.MarshalBody(req)
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		postBody, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: POST HTTP %d: %v", req.Scenario, resp.StatusCode, err)
		}
		if !bytes.Equal(postBody, golden) {
			t.Fatalf("%s: POST body differs from GET body", req.Scenario)
		}
	}
}

func TestExtractGoldenByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, t.TempDir())
	requests := []server.ExtractRequest{
		{Extraction: "kx-perfect", Runs: 8},
		{Extraction: "kx-perfect-starved", Runs: 8}, // stress: verdicts carry violations
		{Extraction: "kx-tuseful", Runs: 6, SeedBase: 77},
	}
	for _, req := range requests {
		golden := goldenExtractBody(t, req)
		url := fmt.Sprintf("%s/v1/extract?extraction=%s&runs=%d&seedBase=%d", ts.URL, req.Extraction, req.Runs, req.SeedBase)
		status, header, body := get(t, url)
		if status != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", req.Extraction, status, body)
		}
		if !bytes.Equal(body, golden) {
			t.Fatalf("%s: cold body differs from direct Runner.Extract:\n%s\nvs\n%s", req.Extraction, body, golden)
		}
		status, header, body = get(t, url)
		if status != http.StatusOK || header.Get("X-Cache") != "hit" {
			t.Fatalf("%s: warm response HTTP %d X-Cache %q", req.Extraction, status, header.Get("X-Cache"))
		}
		if !bytes.Equal(body, golden) {
			t.Fatalf("%s: cached body differs", req.Extraction)
		}
	}
}

// seedStride is the arithmetic step of workload.Seeds: shifting a window's
// seedBase by k*seedStride slides it k positions along the same derived seed
// progression, which is how the overlap tests construct windows that share
// seeds.  Derived from workload.Seeds so it tracks the real derivation.
var seedStride = workload.Seeds(1, 2)[1] - workload.Seeds(1, 2)[0]

// TestSweepPartialHitGolden is the partial-hit acceptance test: growing,
// shrinking and sliding a served window must assemble responses byte-
// identical to direct serial sweeps, computing only the seeds the corpus has
// never seen, with the X-Cache header grading hit/partial/miss.
func TestSweepPartialHitGolden(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir())
	sweepURL := func(req server.SweepRequest) string {
		return fmt.Sprintf("%s/v1/sweep?scenario=%s&seeds=%d&seedBase=%d", ts.URL, req.Scenario, req.Seeds, req.SeedBase)
	}

	steps := []struct {
		name          string
		req           server.SweepRequest
		wantCache     string
		wantNewSeeds  uint64 // newly computed seeds this step
		wantHitChange uint64 // seeds served from the corpus this step
	}{
		// Cold prime: window positions 0..7.
		{"cold", server.SweepRequest{Scenario: "prop2.3-nudc", Seeds: 8, SeedBase: 1}, "miss", 8, 0},
		// Grown window 0..15: the primed half assembles, the rest computes.
		{"grown", server.SweepRequest{Scenario: "prop2.3-nudc", Seeds: 16, SeedBase: 1}, "partial", 8, 8},
		// Pure subset 0..3: zero recompute, served entirely from seed records.
		{"subset", server.SweepRequest{Scenario: "prop2.3-nudc", Seeds: 4, SeedBase: 1}, "hit", 0, 4},
		// Sliding window 12..19: positions 12..15 are corpus, 16..19 are new.
		{"slide", server.SweepRequest{Scenario: "prop2.3-nudc", Seeds: 8, SeedBase: 1 + 12*seedStride}, "partial", 4, 4},
		// The identical grown window again: request-level record, zero work.
		{"replay", server.SweepRequest{Scenario: "prop2.3-nudc", Seeds: 16, SeedBase: 1}, "hit", 0, 0},
	}

	var wantComputed, wantCached uint64
	for _, step := range steps {
		golden := goldenSweepBody(t, step.req)
		status, header, body := get(t, sweepURL(step.req))
		if status != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", step.name, status, body)
		}
		if got := header.Get("X-Cache"); got != step.wantCache {
			t.Fatalf("%s: X-Cache = %q, want %q", step.name, got, step.wantCache)
		}
		if !bytes.Equal(body, golden) {
			t.Fatalf("%s: body differs from direct serial sweep", step.name)
		}
		wantComputed += step.wantNewSeeds
		wantCached += step.wantHitChange
		ss := srv.SchedulerStats()
		if ss.SeedsComputed != wantComputed {
			t.Fatalf("%s: SeedsComputed = %d, want %d", step.name, ss.SeedsComputed, wantComputed)
		}
		if ss.SeedsCached != wantCached {
			t.Fatalf("%s: SeedsCached = %d, want %d", step.name, ss.SeedsCached, wantCached)
		}
	}
	ss := srv.SchedulerStats()
	if ss.FullHits != 2 || ss.PartialHits != 2 || ss.Misses != 1 {
		t.Fatalf("request classification after the window walk: %+v", ss)
	}
}

// TestConcurrentOverlappingRequests is the 64-way overlap acceptance test:
// concurrent requests whose windows slide across a shared seed progression
// must each come back byte-identical to their dedicated serial sweep, while
// the fleet computes every distinct seed exactly once across all requests.
func TestConcurrentOverlappingRequests(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir())
	const dups = 64
	const windows = 16 // distinct seedBases; windows overlap their neighbours by 7 seeds
	reqs := make([]server.SweepRequest, dups)
	for i := range reqs {
		reqs[i] = server.SweepRequest{Scenario: "prop2.3-nudc", Seeds: 8, SeedBase: 1 + int64(i%windows)*seedStride}
	}
	goldens := make(map[int64][]byte, windows)
	for _, req := range reqs[:windows] {
		goldens[req.SeedBase] = goldenSweepBody(t, req)
	}

	bodies := make([][]byte, dups)
	errs := make([]error, dups)
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(fmt.Sprintf("%s/v1/sweep?scenario=%s&seeds=%d&seedBase=%d",
				ts.URL, reqs[i].Scenario, reqs[i].Seeds, reqs[i].SeedBase))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("HTTP %d", resp.StatusCode)
				return
			}
			bodies[i], errs[i] = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i := range reqs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !bytes.Equal(bodies[i], goldens[reqs[i].SeedBase]) {
			t.Fatalf("request %d (seedBase %d): body differs from direct serial sweep", i, reqs[i].SeedBase)
		}
	}

	// The 16 sliding windows cover positions 0..22 of the progression: 23
	// distinct seeds, each of which the fleet may simulate exactly once no
	// matter how the 64 requests interleave.
	const distinctSeeds = windows + 8 - 1
	ss := srv.SchedulerStats()
	if ss.SeedsComputed != distinctSeeds {
		t.Fatalf("SeedsComputed = %d, want %d (every distinct seed exactly once)", ss.SeedsComputed, distinctSeeds)
	}
	if ss.SeedsCached+ss.SeedsCoalesced+ss.SeedsComputed != ss.SeedsRequested {
		t.Fatalf("seed accounting: %+v", ss)
	}
	if ss.FullHits+ss.PartialHits+ss.Misses != dups {
		t.Fatalf("request accounting: %+v", ss)
	}
	if st := srv.Store().Stats(); st.Puts < distinctSeeds+1 || st.Puts > distinctSeeds+dups {
		t.Fatalf("store Puts = %d, want %d seed records plus window records", st.Puts, distinctSeeds)
	}
}

// TestPartialHitSurvivesRestart re-opens the corpus directory under a fresh
// daemon: a grown window must assemble from the previous daemon's per-seed
// records, computing only the new half.
func TestPartialHitSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, dir)
	get(t, ts.URL+"/v1/sweep?scenario=prop2.3-nudc&seeds=8")

	grown := server.SweepRequest{Scenario: "prop2.3-nudc", Seeds: 16, SeedBase: 1}
	golden := goldenSweepBody(t, grown)
	srv2, ts2 := newTestServer(t, dir)
	status, header, body := get(t, ts2.URL+"/v1/sweep?scenario=prop2.3-nudc&seeds=16")
	if status != http.StatusOK || header.Get("X-Cache") != "partial" {
		t.Fatalf("restarted daemon grown window: HTTP %d X-Cache %q", status, header.Get("X-Cache"))
	}
	if !bytes.Equal(body, golden) {
		t.Fatalf("restarted partial-hit body differs from direct serial sweep")
	}
	ss := srv2.SchedulerStats()
	if ss.SeedsCached != 8 || ss.SeedsComputed != 8 {
		t.Fatalf("restarted daemon seed stats: %+v", ss)
	}
}

// TestExtractGrowthExtendsCachedIndex pins extraction growth.  On the same
// daemon, a grown window extends the cached epistemic index with only the new
// source seeds and is a partial.  A restarted daemon has no index state and
// the corpus keeps no source runs, so the same growth there is a miss that
// simulates every seed.  Both bodies are the exact bytes a direct
// Runner.Extract of the grown sample renders.
func TestExtractGrowthExtendsCachedIndex(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, dir)
	get(t, ts.URL+"/v1/extract?extraction=kx-perfect&runs=6")
	if ss := srv.SchedulerStats(); ss.SeedsComputed != 6 {
		t.Fatalf("cold extraction seed stats: %+v", ss)
	}

	grown := server.ExtractRequest{Extraction: "kx-perfect", Runs: 8}
	golden := goldenExtractBody(t, grown)
	status, header, body := get(t, ts.URL+"/v1/extract?extraction=kx-perfect&runs=8")
	if status != http.StatusOK || header.Get("X-Cache") != "partial" {
		t.Fatalf("grown extraction: HTTP %d X-Cache %q", status, header.Get("X-Cache"))
	}
	if !bytes.Equal(body, golden) {
		t.Fatalf("grown extraction body differs from direct Runner.Extract")
	}
	ss := srv.SchedulerStats()
	if ss.SeedsComputed != 8 || ss.SeedsCached != 0 || ss.IndexReuses != 1 || ss.IndexedRunsReused != 6 {
		t.Fatalf("grown extraction should have simulated 2 seeds over the cached 6-run index: %+v", ss)
	}

	// The identical request again is a request-level hit.
	_, header, _ = get(t, ts.URL+"/v1/extract?extraction=kx-perfect&runs=8")
	if header.Get("X-Cache") != "hit" {
		t.Fatalf("replayed extraction X-Cache = %q", header.Get("X-Cache"))
	}

	regrown := server.ExtractRequest{Extraction: "kx-perfect", Runs: 10}
	golden = goldenExtractBody(t, regrown)
	srv2, ts2 := newTestServer(t, dir)
	status, header, body = get(t, ts2.URL+"/v1/extract?extraction=kx-perfect&runs=10")
	if status != http.StatusOK || header.Get("X-Cache") != "miss" {
		t.Fatalf("restarted grown extraction: HTTP %d X-Cache %q", status, header.Get("X-Cache"))
	}
	if !bytes.Equal(body, golden) {
		t.Fatalf("restarted grown extraction body differs from direct Runner.Extract")
	}
	if ss := srv2.SchedulerStats(); ss.SeedsComputed != 10 || ss.SeedsCached != 0 || ss.IndexReuses != 0 {
		t.Fatalf("restarted grown extraction should have simulated all 10 seeds: %+v", ss)
	}
}

// TestSeedFaultIsolation damages a single per-seed record in a primed
// corpus's log: a window touching it must still be served byte-identically,
// with exactly that one seed recomputed (and repaired), the damage counted by
// the store, and nothing else disturbed.  A flipped payload byte is caught by
// the record's checksum on read; a torn record — the frame moved to the log's
// end and cut short, as a crash mid-append leaves it — is cut off by Open.
func TestSeedFaultIsolation(t *testing.T) {
	seeds := workload.Seeds(1, 8)
	for name, mutate := range map[string]func(log []byte, off, n int64) []byte{
		"bit-flipped": func(log []byte, off, n int64) []byte {
			m := append([]byte(nil), log...)
			m[off+n/2] ^= 0x01
			return m
		},
		"truncated": func(log []byte, off, n int64) []byte {
			frame := off - store.FrameHeaderSize
			m := append(append([]byte(nil), log[:frame]...), log[off+n:]...)
			return append(m, log[frame:off+n/2]...)
		},
	} {
		dir := t.TempDir()
		srv, ts := newTestServer(t, dir)
		get(t, ts.URL+"/v1/sweep?scenario=prop2.3-nudc&seeds=8")

		// Damage seed position 2's record in the log.
		off, n, ok := srv.Store().Locate(server.SweepSeedKey("prop2.3-nudc", "", seeds[2]))
		if !ok {
			t.Fatalf("%s: seed record not in the log", name)
		}
		path := srv.Store().LogPath()
		log, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: read log: %v", name, err)
		}
		if err := os.WriteFile(path, mutate(log, off, int64(n)), 0o644); err != nil {
			t.Fatal(err)
		}

		// A 5-seed window over the damaged corpus (fresh daemon, so nothing
		// is shielded by the memory layer): served, byte-identical, exactly
		// one seed recomputed and re-persisted.
		sub := server.SweepRequest{Scenario: "prop2.3-nudc", Seeds: 5, SeedBase: 1}
		golden := goldenSweepBody(t, sub)
		srv2, ts2 := newTestServer(t, dir)
		status, header, body := get(t, ts2.URL+"/v1/sweep?scenario=prop2.3-nudc&seeds=5")
		if status != http.StatusOK || header.Get("X-Cache") != "partial" {
			t.Fatalf("%s: HTTP %d X-Cache %q", name, status, header.Get("X-Cache"))
		}
		if !bytes.Equal(body, golden) {
			t.Fatalf("%s: body differs from direct serial sweep", name)
		}
		st := srv2.Store().Stats()
		if st.CorruptEntries != 1 || st.Misses != 1 {
			t.Fatalf("%s: store stats: %+v (want the one damaged seed counted as one corrupt miss)", name, st)
		}
		ss := srv2.SchedulerStats()
		if ss.SeedsComputed != 1 || ss.SeedsCached != 4 || ss.PartialHits != 1 || ss.PutErrors != 0 {
			t.Fatalf("%s: scheduler stats: %+v", name, ss)
		}

		// The recompute repaired the shard: a third daemon reads it clean.
		srv3, ts3 := newTestServer(t, dir)
		_, header, body = get(t, ts3.URL+"/v1/sweep?scenario=prop2.3-nudc&seeds=5")
		if header.Get("X-Cache") != "hit" || !bytes.Equal(body, golden) {
			t.Fatalf("%s: repaired corpus not served as a hit", name)
		}
		if st := srv3.Store().Stats(); st.CorruptEntries != 0 {
			t.Fatalf("%s: repaired corpus still counts corruption: %+v", name, st)
		}
	}
}

// TestSweepReplacesRunCarryingSeedRecord covers a corpus written before
// sweeps stored outcome-only per-seed records: a run-carrying seed record
// under a scenario's seed key is intact but of another kind, so it is neither
// served nor counted as corruption — that one seed is recomputed, the
// response is the serial sweep's bytes, and the entry is overwritten with an
// outcome container.
func TestSweepReplacesRunCarryingSeedRecord(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, dir)
	get(t, ts.URL+"/v1/sweep?scenario=prop2.3-nudc&seeds=8")

	sc := registry.MustScenario("prop2.3-nudc")
	seed := workload.Seeds(1, 8)[2]
	runs, err := workload.Runner{}.RunAll([]workload.Task{{Spec: sc.Spec, Seeds: []int64{seed}, Eval: sc.Eval}})
	if err != nil {
		t.Fatal(err)
	}
	key := server.SweepSeedKey("prop2.3-nudc", "", seed)
	planted := store.EncodeSeedRecord(store.NewSeedRecord(runs[0][0], true))
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(key, planted); err != nil {
		t.Fatal(err)
	}

	sub := server.SweepRequest{Scenario: "prop2.3-nudc", Seeds: 5, SeedBase: 1}
	golden := goldenSweepBody(t, sub)
	srv2, ts2 := newTestServer(t, dir)
	status, header, body := get(t, ts2.URL+"/v1/sweep?scenario=prop2.3-nudc&seeds=5")
	if status != http.StatusOK || header.Get("X-Cache") != "partial" {
		t.Fatalf("HTTP %d X-Cache %q", status, header.Get("X-Cache"))
	}
	if !bytes.Equal(body, golden) {
		t.Fatalf("body differs from direct serial sweep")
	}
	if ss := srv2.SchedulerStats(); ss.SeedsComputed != 1 || ss.SeedsCached != 4 || ss.PutErrors != 0 {
		t.Fatalf("scheduler stats: %+v (want the planted seed computed, not cached)", ss)
	}
	if st := srv2.Store().Stats(); st.CorruptEntries != 0 {
		t.Fatalf("an intact record of another kind counted as corruption: %+v", st)
	}
	raw, ok := reopen(t, dir).Get(key)
	if !ok {
		t.Fatal("seed entry not served after the sweep")
	}
	if o, err := store.DecodeOutcome(raw); err != nil || o.Seed != seed {
		t.Fatalf("seed entry after the sweep: outcome %+v, %v; want seed %d's outcome container", o, err, seed)
	}
}

// TestSweepStoresOutcomesExtractStoresNoRuns pins what each route keeps.  A
// sweep's per-seed records are outcome containers — no recorded run, well
// under 1 KiB each — and still assemble novel windows after a restart.  A cold
// extraction adds its request-level record and nothing else: no source run.
func TestSweepStoresOutcomesExtractStoresNoRuns(t *testing.T) {
	const window = 64
	dir := t.TempDir()
	srv, ts := newTestServer(t, dir)
	get(t, ts.URL+fmt.Sprintf("/v1/sweep?scenario=prop2.3-nudc&seeds=%d", window))
	want := srv.Store().ScanShards(true).Kinds
	get(t, ts.URL+"/v1/extract?extraction=kx-perfect&runs=6&seedBase=1")
	want["extraction"]++
	if got := srv.Store().ScanShards(true).Kinds; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("kind census after a cold extraction: %v, want %v (one extraction record added)", got, want)
	}

	corpus := reopen(t, dir)
	for _, seed := range workload.Seeds(1, window) {
		raw, ok := corpus.Get(server.SweepSeedKey("prop2.3-nudc", "", seed))
		if !ok {
			t.Fatalf("sweep seed %d: no entry", seed)
		}
		if kind, err := store.Kind(raw); err != nil || kind != store.KindOutcome || len(raw) > 1<<10 {
			t.Fatalf("sweep seed %d: %d-byte entry of kind %d (%v), want an outcome container of at most 1 KiB", seed, len(raw), kind, err)
		}
	}

	srv2, ts2 := newTestServer(t, dir)
	sub := server.SweepRequest{Scenario: "prop2.3-nudc", Seeds: window / 2, SeedBase: 1}
	status, header, body := get(t, ts2.URL+fmt.Sprintf("/v1/sweep?scenario=prop2.3-nudc&seeds=%d", window/2))
	if status != http.StatusOK || header.Get("X-Cache") != "hit" {
		t.Fatalf("restarted sub-window: HTTP %d X-Cache %q", status, header.Get("X-Cache"))
	}
	if !bytes.Equal(body, goldenSweepBody(t, sub)) {
		t.Fatalf("restarted sub-window body differs from direct serial sweep")
	}
	if ss := srv2.SchedulerStats(); ss.SeedsCached != window/2 || ss.SeedsComputed != 0 {
		t.Fatalf("restarted sub-window seed stats: %+v", ss)
	}
}

// TestColdSweepAndClaimBuildNoRuns is the scenario namespace's side of the
// same split: a cold /v1/sweep and a cold /v1/claim answer the bytes of the
// serial reference while keeping outcomes only, so their fleet pass scores each
// run in its engine's arena and no run is ever built.  The yardstick is what
// the request allocates per seed: one owned run of this scenario is a slab of
// several hundred KiB, and the whole request — pass, outcome records, store
// writes, response — stays under 128 KiB a seed once the pooled engines are
// warm.  Every try is a fresh, never-seen window (so it is a miss); the best
// of a few is taken because the first warms the engines.
func TestColdSweepAndClaimBuildNoRuns(t *testing.T) {
	const scenario, window, bound = "prop3.1-strong-udc", 48, 128 << 10
	// One worker, so a pass depends on one pooled engine surviving, not on
	// GOMAXPROCS of them.
	st, err := store.Open("", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Store: st, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	ask := map[string]func(req server.SweepRequest) []byte{
		"sweep": func(req server.SweepRequest) []byte {
			status, header, body := get(t, fmt.Sprintf("%s/v1/sweep?scenario=%s&seeds=%d&seedBase=%d", ts.URL, req.Scenario, req.Seeds, req.SeedBase))
			if status != http.StatusOK || header.Get("X-Cache") != "miss" {
				t.Fatalf("sweep: HTTP %d X-Cache %q, want a 200 miss", status, header.Get("X-Cache"))
			}
			return body
		},
		"claim": func(req server.SweepRequest) []byte {
			payload := server.MarshalBody(map[string]any{"scenario": req.Scenario, "seeds": workload.Seeds(req.SeedBase, req.Seeds)})
			resp, err := http.Post(ts.URL+"/v1/claim", "application/json", bytes.NewReader(payload))
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
				t.Fatalf("claim: HTTP %d X-Cache %q, read error %v, want a 200 miss", resp.StatusCode, resp.Header.Get("X-Cache"), err)
			}
			rec, err := store.DecodeSweepRecord(raw)
			if err != nil {
				t.Fatalf("claim response is not a sweep-record container: %v", err)
			}
			// A claim names seeds, not a window; label the record as the
			// sweep of the same window so the two render alike.
			rec.Scenario, rec.Check, rec.SeedBase = req.Scenario, registry.MustScenario(req.Scenario).Check, req.SeedBase
			return server.MarshalBody(server.SweepResponseOf(rec))
		},
	}
	// The references come first: a serial sweep builds its runs, which no
	// try should count.
	const tries = 6
	var requests []server.SweepRequest
	var goldens [][]byte
	for i := 0; i < 2*tries; i++ {
		req := server.SweepRequest{Scenario: scenario, Seeds: window, SeedBase: 1_000_003 + int64(i)*7919*window}
		requests, goldens = append(requests, req), append(goldens, goldenSweepBody(t, req))
	}
	for r, route := range []string{"sweep", "claim"} {
		best := uint64(1 << 62)
		for try := 0; try < tries && best > bound; try++ {
			i := r*tries + try
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			body := ask[route](requests[i])
			runtime.ReadMemStats(&after)
			if !bytes.Equal(body, goldens[i]) {
				t.Fatalf("cold %s body differs from direct serial sweep:\n%s\nvs\n%s", route, body, goldens[i])
			}
			best = min(best, (after.TotalAlloc-before.TotalAlloc)/window)
		}
		t.Logf("cold %s: %.1f KiB allocated per seed", route, float64(best)/1024)
		if best > bound {
			t.Errorf("a cold %s allocates %d bytes per seed, want <= %d: its fleet pass is building runs", route, best, bound)
		}
	}
}

// TestConcurrentDuplicatesComputeOnce fires 64 concurrent identical sweep
// requests at a cold daemon.  All 64 bodies must be byte-identical to the
// direct serial sweep, and each of the 8 seeds must have been computed (and
// stored) exactly once — asserted via the store's Puts counter and the
// scheduler's seed-granular counters.
func TestConcurrentDuplicatesComputeOnce(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir())
	req := server.SweepRequest{Scenario: "prop3.1-strong-udc", Seeds: 8, SeedBase: 500}
	golden := goldenSweepBody(t, req)
	url := fmt.Sprintf("%s/v1/sweep?scenario=%s&seeds=%d&seedBase=%d", ts.URL, req.Scenario, req.Seeds, req.SeedBase)

	const dups = 64
	bodies := make([][]byte, dups)
	errs := make([]error, dups)
	var wg sync.WaitGroup
	for i := 0; i < dups; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(url)
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("HTTP %d", resp.StatusCode)
				return
			}
			bodies[i], errs[i] = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()
	for i := 0; i < dups; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !bytes.Equal(bodies[i], golden) {
			t.Fatalf("request %d body differs from direct serial sweep", i)
		}
	}

	// Exactly one request computed the 8 per-seed records and the window
	// record; late arrivals that assemble from the already-stored seeds may
	// add idempotent window-record rewrites, but never seed records.
	if st := srv.Store().Stats(); st.Puts < 9 || st.Puts > 9+dups-1 {
		t.Fatalf("store Puts = %d, want 9 plus at most idempotent window rewrites", st.Puts)
	}
	ss := srv.SchedulerStats()
	if ss.Computed != 1 || ss.SeedsComputed != 8 {
		t.Fatalf("scheduler Computed = %d, SeedsComputed = %d, want 1 and 8", ss.Computed, ss.SeedsComputed)
	}
	if ss.Requests != dups {
		t.Fatalf("scheduler Requests = %d, want %d", ss.Requests, dups)
	}
	if ss.FullHits+ss.PartialHits+ss.Misses != dups {
		t.Fatalf("fullHits(%d) + partialHits(%d) + misses(%d) != %d requests",
			ss.FullHits, ss.PartialHits, ss.Misses, dups)
	}
	// Requests served by the window-record fast path never resolve seeds, so
	// only consistency — not the absolute volume — is pinned here.
	if ss.SeedsCached+ss.SeedsCoalesced+ss.SeedsComputed != ss.SeedsRequested {
		t.Fatalf("seed accounting: cached(%d) + coalesced(%d) + computed(%d) != requested(%d)",
			ss.SeedsCached, ss.SeedsCoalesced, ss.SeedsComputed, ss.SeedsRequested)
	}
}

// TestBatchingSharesFleetPasses launches several distinct sweeps concurrently
// and checks each result is still byte-identical to its dedicated serial
// sweep (batched SweepAll distribution is invisible in the aggregates).
func TestBatchingSharesFleetPasses(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir())
	scenarios := []string{"prop2.3-nudc", "prop2.4-reliable-udc", "prop3.1-strong-udc", "quiescent-udc"}
	goldens := make([][]byte, len(scenarios))
	for i, name := range scenarios {
		goldens[i] = goldenSweepBody(t, server.SweepRequest{Scenario: name, Seeds: 6, SeedBase: 9})
	}
	bodies := make([][]byte, len(scenarios))
	var wg sync.WaitGroup
	for i, name := range scenarios {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			_, _, body := get(t, fmt.Sprintf("%s/v1/sweep?scenario=%s&seeds=6&seedBase=9", ts.URL, name))
			bodies[i] = body
		}(i, name)
	}
	wg.Wait()
	for i := range scenarios {
		if !bytes.Equal(bodies[i], goldens[i]) {
			t.Fatalf("%s: concurrent batched body differs from dedicated serial sweep", scenarios[i])
		}
	}
	ss := srv.SchedulerStats()
	if ss.Computed != uint64(len(scenarios)) || ss.Batches == 0 || ss.BatchedTasks != uint64(len(scenarios)) {
		t.Fatalf("scheduler stats after distinct concurrent sweeps: %+v", ss)
	}
	if ss.SeedsComputed != uint64(len(scenarios)*6) {
		t.Fatalf("SeedsComputed = %d, want %d", ss.SeedsComputed, len(scenarios)*6)
	}
}

// TestCacheSurvivesRestart re-opens the store directory under a fresh server:
// the sweep must come back as a disk-layer hit with an identical body.
func TestCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, dir)
	url := ts.URL + "/v1/sweep?scenario=prop2.3-nudc&seeds=6"
	_, _, cold := get(t, url)

	srv2, ts2 := newTestServer(t, dir)
	status, header, warm := get(t, ts2.URL+"/v1/sweep?scenario=prop2.3-nudc&seeds=6")
	if status != http.StatusOK || header.Get("X-Cache") != "hit" {
		t.Fatalf("restarted daemon: HTTP %d X-Cache %q", status, header.Get("X-Cache"))
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("body changed across daemon restart")
	}
	if st := srv2.Store().Stats(); st.DiskHits != 1 {
		t.Fatalf("restarted daemon store stats: %+v", st)
	}
}

func TestCatalogAndStatsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, "")
	status, _, body := get(t, ts.URL+"/healthz")
	if status != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz: %d %s", status, body)
	}

	status, _, body = get(t, ts.URL+"/v1/scenarios")
	if status != http.StatusOK {
		t.Fatalf("scenarios: HTTP %d", status)
	}
	var catalog server.CatalogResponse
	if err := json.Unmarshal(body, &catalog); err != nil {
		t.Fatal(err)
	}
	if len(catalog.Scenarios) != len(registry.ScenarioNames()) {
		t.Fatalf("catalog lists %d scenarios, registry has %d", len(catalog.Scenarios), len(registry.ScenarioNames()))
	}
	if len(catalog.Extractions) != len(registry.ExtractionNames()) {
		t.Fatalf("catalog lists %d extractions, registry has %d", len(catalog.Extractions), len(registry.ExtractionNames()))
	}

	status, _, body = get(t, ts.URL+"/v1/adversaries")
	if status != http.StatusOK {
		t.Fatalf("adversaries: HTTP %d", status)
	}
	var advs []server.AdversaryJSON
	if err := json.Unmarshal(body, &advs); err != nil {
		t.Fatal(err)
	}
	if len(advs) != len(registry.AdversaryNames()) {
		t.Fatalf("adversary catalog lists %d entries, registry has %d", len(advs), len(registry.AdversaryNames()))
	}

	get(t, ts.URL+"/v1/sweep?scenario=prop2.3-nudc&seeds=4")
	status, _, body = get(t, ts.URL+"/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("stats: HTTP %d", status)
	}
	var stats server.StatsResponse
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Scheduler.Requests != 1 || stats.Store.Puts != 5 {
		t.Fatalf("stats after one sweep (4 seed records + 1 window record): %+v", stats)
	}
	if stats.CodecVersion != store.CodecVersion {
		t.Fatalf("stats codec version = %d", stats.CodecVersion)
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, "")
	oversize := `{"scenario":"prop2.3-nudc","pad":"` + strings.Repeat("x", 1<<20) + `"}`
	cases := []struct {
		url  string
		want int
		post string // POST body; empty means GET
	}{
		{"/v1/sweep", http.StatusBadRequest, ""},                                    // missing scenario
		{"/v1/sweep?scenario=no-such-scenario", http.StatusNotFound, ""},            // unknown name
		{"/v1/sweep?scenario=prop2.3-nudc&seeds=999999", http.StatusBadRequest, ""}, // over MaxSeeds
		{"/v1/sweep?scenario=prop2.3-nudc&seeds=abc", http.StatusBadRequest, ""},    // unparsable
		{"/v1/sweep?scenario=prop2.3-nudc&adversary=nope", http.StatusNotFound, ""}, // unknown adversary
		{"/v1/extract", http.StatusBadRequest, ""},                                  // missing extraction
		{"/v1/extract?extraction=no-such-pipeline", http.StatusNotFound, ""},        // unknown name
		{"/v1/extract?extraction=kx-perfect&runs=-2", http.StatusBadRequest, ""},    // bad runs
		{"/v1/sweep", http.StatusRequestEntityTooLarge, oversize},                   // body over the 1 MiB bound
	}
	for _, tc := range cases {
		var status int
		var body []byte
		if tc.post == "" {
			status, _, body = get(t, ts.URL+tc.url)
		} else {
			resp, err := http.Post(ts.URL+tc.url, "application/json", strings.NewReader(tc.post))
			if err != nil {
				t.Fatal(err)
			}
			status = resp.StatusCode
			body, _ = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		if status != tc.want {
			t.Errorf("%s: HTTP %d, want %d (%.200s)", tc.url, status, tc.want, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %.200q not a JSON error", tc.url, body)
		}
	}

	for _, route := range []string{"/v1/sweep", "/v1/extract"} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+route, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("DELETE %s: HTTP %d, want 405", route, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != "GET, POST" {
			t.Fatalf("DELETE %s: Allow = %q, want %q", route, got, "GET, POST")
		}
	}
}

// TestClientMatchesServer drives the Client helpers the -remote command
// modes use.
func TestClientMatchesServer(t *testing.T) {
	_, ts := newTestServer(t, "")
	c := &server.Client{BaseURL: ts.URL}

	req := server.SweepRequest{Scenario: "prop2.3-nudc", Seeds: 6}
	resp, cache, err := c.Sweep(req)
	if err != nil {
		t.Fatal(err)
	}
	if cache != "miss" || resp.Scenario != "prop2.3-nudc" || resp.Seeds != 6 {
		t.Fatalf("client sweep: cache=%q resp=%+v", cache, resp)
	}
	req.Seeds = 6 // normalized identically on the server
	if _, cache, err = c.Sweep(req); err != nil || cache != "hit" {
		t.Fatalf("client warm sweep: cache=%q err=%v", cache, err)
	}

	eresp, _, err := c.Extract(server.ExtractRequest{Extraction: "kx-perfect", Runs: 6})
	if err != nil {
		t.Fatal(err)
	}
	if eresp.Extraction != "kx-perfect" || eresp.Runs != 6 || !eresp.OK {
		t.Fatalf("client extract: %+v", eresp)
	}

	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Scheduler.Requests != 3 {
		t.Fatalf("client stats: %+v", stats.Scheduler)
	}

	if _, _, err := c.Sweep(server.SweepRequest{Scenario: "nope"}); err == nil {
		t.Fatalf("unknown scenario did not error through the client")
	}
}

// TestPutFailureStillServes runs a daemon whose store log is the full device,
// so every append fails as on a full disk (ENOSPC): the computation still
// succeeds and is served (caching is an optimisation), with every failed
// persist — 4 per-seed records plus the window record — surfaced in the
// scheduler's PutErrors counter rather than the response.
func TestPutFailureStillServes(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to fail writes with")
	}
	dir := filepath.Join(t.TempDir(), "corpus")
	log := reopen(t, dir).LogPath()
	if err := os.Remove(log); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink("/dev/full", log); err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, dir)
	req := server.SweepRequest{Scenario: "prop2.3-nudc", Seeds: 4, SeedBase: 1}
	golden := goldenSweepBody(t, req)
	status, _, body := get(t, ts.URL+"/v1/sweep?scenario=prop2.3-nudc&seeds=4")
	if status != http.StatusOK {
		t.Fatalf("sweep with a failing store: HTTP %d: %s", status, body)
	}
	if !bytes.Equal(body, golden) {
		t.Fatalf("body differs despite successful computation")
	}
	ss := srv.SchedulerStats()
	if ss.PutErrors != 5 || ss.Errors != 0 {
		t.Fatalf("scheduler stats after failed persists: %+v", ss)
	}
}

// TestColdRequestMissAccounting pins the store-stats contract under seed
// granularity: one cold 4-seed sweep counts exactly one miss per seed (the
// window-record probe and the post-claim re-probes are uncounted) and writes
// 4 seed records plus the window record.
func TestColdRequestMissAccounting(t *testing.T) {
	srv, ts := newTestServer(t, t.TempDir())
	get(t, ts.URL+"/v1/sweep?scenario=prop2.3-nudc&seeds=4")
	st := srv.Store().Stats()
	if st.Misses != 4 || st.Puts != 5 {
		t.Fatalf("store stats after one cold 4-seed sweep: %+v (want 4 misses, 5 puts)", st)
	}
	ss := srv.SchedulerStats()
	if ss.Misses != 1 || ss.SeedsComputed != 4 || ss.SeedsCached != 0 {
		t.Fatalf("scheduler stats after one cold sweep: %+v", ss)
	}
}
