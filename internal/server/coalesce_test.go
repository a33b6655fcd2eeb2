package server

// White-box tests for the seed-flight coalescing paths: they inject calls
// into the scheduler's flight table directly, so the join path runs
// deterministically instead of depending on request interleaving.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/workload"
)

// plantSeedCall registers a fake in-flight claim for one seed, as if a
// concurrent request owned its computation.  The returned publish function
// completes it with the owner protocol (deregister, then close).
func plantSeedCall(s *scheduler, key store.Key) (*seedCall, func()) {
	c := &seedCall{done: make(chan struct{})}
	s.mu.Lock()
	s.seedflight[key] = c
	s.mu.Unlock()
	return c, func() {
		s.mu.Lock()
		delete(s.seedflight, key)
		s.mu.Unlock()
		close(c.done)
	}
}

// awaitSeedRecord polls until the per-seed record exists in the corpus —
// once it does, the request's claim pass (which registers joins) is long
// past, so a planted call can be published without racing the claim.
func awaitSeedRecord(t *testing.T, st *store.Store, key store.Key) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := st.Probe(key); ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("request never computed its owned seeds")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJoinedOutcomesEmitted pins the streaming/coalescing contract at the
// scheduler: an outcome obtained by joining a concurrent request's
// computation reaches the emit callback exactly like cached and computed
// ones, so a streamed response that coalesces carries one record per seed.
func TestJoinedOutcomesEmitted(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	req := SweepRequest{Scenario: "prop2.3-nudc", Seeds: 4, SeedBase: 1}
	sc := registry.MustScenario(req.Scenario)
	seeds := workload.Seeds(req.SeedBase, req.Seeds)
	joinSeed := seeds[len(seeds)-1]

	// The outcome the fake owner publishes: what its fleet round would have
	// produced (simulation is seed-deterministic).
	res, err := workload.Sweep(sc.Spec, []int64{joinSeed}, sc.Eval)
	if err != nil {
		t.Fatal(err)
	}
	c, publish := plantSeedCall(srv.sched, SweepSeedKey(req.Scenario, "", joinSeed))

	var emitted []int64
	done := make(chan error, 1)
	var payload []byte
	go func() {
		var err error
		payload, _, err = srv.sched.Sweep(context.Background(), req, nil, func(o workload.RunOutcome) {
			emitted = append(emitted, o.Seed)
		})
		done <- err
	}()

	awaitSeedRecord(t, srv.store, SweepSeedKey(req.Scenario, "", seeds[0]))
	c.outcome = res.Outcomes[0]
	publish()

	if err := <-done; err != nil {
		t.Fatalf("coalesced sweep failed: %v", err)
	}
	if len(emitted) != len(seeds) {
		t.Fatalf("emit saw %d records (%v), want one per seed (%d)", len(emitted), emitted, len(seeds))
	}
	sawJoined := false
	for _, s := range emitted {
		sawJoined = sawJoined || s == joinSeed
	}
	if !sawJoined {
		t.Fatalf("joined seed %d missing from the emitted records %v", joinSeed, emitted)
	}

	rec, err := store.DecodeSweepRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	full, err := workload.Sweep(sc.Spec, seeds, sc.Eval)
	if err != nil {
		t.Fatal(err)
	}
	want := store.NewSweepRecord(sc.Name, sc.Check, "", req.SeedBase, full)
	if !bytes.Equal(MarshalBody(SweepResponseOf(rec)), MarshalBody(SweepResponseOf(want))) {
		t.Fatal("coalesced body differs from a direct serial sweep")
	}
}

// TestJoinerRecomputesOwnerLocalFailure pins the medium-severity review fix:
// when a joined owner fails with an error local to it — its submit was shed,
// or its client disconnected — the joiner re-claims those seeds and computes
// them itself instead of failing with a status its own client never earned.
func TestJoinerRecomputesOwnerLocalFailure(t *testing.T) {
	for name, ownerErr := range map[string]error{
		"shed":      overloaded(errors.New("owner: compute queue full"), time.Second),
		"abandoned": &httpError{status: http.StatusServiceUnavailable, err: errors.New("owner: request abandoned")},
	} {
		t.Run(name, func(t *testing.T) {
			srv, err := New(Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			req := SweepRequest{Scenario: "prop2.3-nudc", Seeds: 4, SeedBase: 1}
			seeds := workload.Seeds(req.SeedBase, req.Seeds)
			joinSeed := seeds[len(seeds)-1]
			c, publish := plantSeedCall(srv.sched, SweepSeedKey(req.Scenario, "", joinSeed))

			var emitted int
			done := make(chan error, 1)
			go func() {
				_, _, err := srv.sched.Sweep(context.Background(), req, nil, func(workload.RunOutcome) {
					emitted++
				})
				done <- err
			}()

			awaitSeedRecord(t, srv.store, SweepSeedKey(req.Scenario, "", seeds[0]))
			c.err = ownerErr
			publish()

			if err := <-done; err != nil {
				t.Fatalf("joiner inherited the owner's failure instead of recomputing: %v", err)
			}
			if emitted != len(seeds) {
				t.Fatalf("emit saw %d records, want %d (the recomputed seed must still stream)", emitted, len(seeds))
			}
			if ss := srv.sched.Stats(); ss.SeedsComputed != uint64(len(seeds)) {
				t.Fatalf("SeedsComputed = %d, want %d (joiner recomputes the failed seed)", ss.SeedsComputed, len(seeds))
			}
		})
	}
}

// TestOwnerLocalErrorTagging pins the error taxonomy the join retry relies
// on: sheds and abandonments are owner-local, real failures are not, and the
// exhausted-retry re-tag answers with a retryable 503, never the owner's 429.
func TestOwnerLocalErrorTagging(t *testing.T) {
	shed := overloaded(errors.New("queue full"), time.Second)
	ab := abandonedErrForTest()
	if !ownerLocal(shed) || !ownerLocal(ab) {
		t.Fatal("sheds and abandonments must be owner-local")
	}
	if ownerLocal(notFound(errors.New("x"))) || ownerLocal(errors.New("engine exploded")) {
		t.Fatal("catalog and compute failures are not owner-local")
	}
	re := coalesceUpstream(shed)
	if statusOf(re) != http.StatusServiceUnavailable {
		t.Fatalf("re-tagged status = %d, want 503", statusOf(re))
	}
	if retryAfterOf(re) <= 0 {
		t.Fatal("re-tagged error lacks a Retry-After hint")
	}
	if !errors.Is(re, shed) {
		t.Fatal("re-tag must wrap the original error")
	}
}

// abandonedErrForTest builds the error abandoned() produces without needing a
// cancelled context.
func abandonedErrForTest() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return abandoned(ctx)
}

// TestStreamerZeroRecordTrailers pins that a stream with no records before
// its trailer still sends the header block first: X-Cache and Server-Timing
// must arrive as the declared trailers, not as ordinary headers.
func TestStreamerZeroRecordTrailers(t *testing.T) {
	rec := httptest.NewRecorder()
	st := newStreamer(&request{w: rec, format: formatNDJSON, tr: &obs.Trace{}, start: time.Now()})
	st.setTrailers(CacheHit)
	st.write(MarshalBody(streamTrailerLine{Trailer: struct{}{}}))

	res := rec.Result()
	if got := res.Header.Get("X-Cache"); got != "" {
		t.Fatalf("X-Cache = %q in the header block; it was declared as a trailer", got)
	}
	if got := res.Trailer.Get("X-Cache"); got != string(CacheHit) {
		t.Fatalf("trailing X-Cache = %q, want %q", got, CacheHit)
	}
	if res.Trailer.Get("Server-Timing") == "" {
		t.Fatal("Server-Timing missing from the trailers")
	}
}

// TestStreamFlushesRecordsToSocket pins the progressive property where a
// client can see it, on a real socket through the instrumented route: with
// the window held open by a planted in-flight seed, the first cached record
// must be readable from the response body before that seed is published.
// (A fully buffered body only shows record order, not when records arrived.)
func TestStreamFlushesRecordsToSocket(t *testing.T) {
	srv, ts := newTraceTestServer(t, Config{})
	const scenario = "prop2.3-nudc"
	url := ts.URL + "/v1/sweep?scenario=" + scenario + "&seedBase=1&seeds="
	if resp, body := getBody(t, url+"8", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("prime: HTTP %d: %s", resp.StatusCode, body)
	}

	seeds := workload.Seeds(1, 12)
	joinSeed := seeds[len(seeds)-1]
	sc := registry.MustScenario(scenario)
	res, err := workload.Sweep(sc.Spec, []int64{joinSeed}, sc.Eval)
	if err != nil {
		t.Fatal(err)
	}
	c, publish := plantSeedCall(srv.sched, SweepSeedKey(scenario, "", joinSeed))
	c.outcome = res.Outcomes[0]

	first := make(chan []byte, 1)
	rest := make(chan int, 1)
	go func() {
		defer close(first)
		defer close(rest)
		req, _ := http.NewRequest(http.MethodGet, url+"12", nil)
		req.Header.Set("Accept", ctNDJSON)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("stream: %v", err)
			return
		}
		defer resp.Body.Close()
		br := bufio.NewReader(resp.Body)
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Errorf("first record: %v", err)
			return
		}
		first <- line
		n := 0
		for ; err == nil; n++ {
			_, err = br.ReadBytes('\n')
		}
		rest <- n - 1
	}()

	select {
	case line := <-first:
		var o struct {
			Seed int64 `json:"seed"`
		}
		if err := json.Unmarshal(line, &o); err != nil || o.Seed < 1 || o.Seed > 8 {
			t.Errorf("first streamed line %q is not one of the 8 cached records (%v)", line, err)
		}
	case <-time.After(5 * time.Second):
		t.Error("no record reached the client while the window was still resolving: streamed records are not flushed to the socket")
	}
	publish()
	if n := <-rest; !t.Failed() && n != len(seeds) {
		t.Fatalf("%d lines after the first, want %d (the other %d outcomes plus the trailer)", n, len(seeds), len(seeds)-1)
	}
}

// TestRateLimiterEviction pins the bucket-map bound: at capacity, stale
// buckets are evicted while a recently active client keeps its (drained)
// bucket — no wholesale reset handing every client a fresh burst.
func TestRateLimiterEviction(t *testing.T) {
	l := newRateLimiter(1, 1)
	t0 := time.Unix(10_000, 0)

	// Fill the map to capacity with clients last seen long ago...
	for i := 0; i < maxLimiterClients-1; i++ {
		l.admit(fmt.Sprintf("10.0.%d.%d", i/256, i%256), t0.Add(-time.Minute))
	}
	// ...plus one hot client that just drained its burst.
	if ok, _ := l.admit("hot", t0); !ok {
		t.Fatal("hot client's first request denied")
	}
	if ok, _ := l.admit("hot", t0); ok {
		t.Fatal("hot client's burst did not drain")
	}

	// A new client at capacity triggers eviction, not a reset.
	if ok, _ := l.admit("fresh", t0.Add(10*time.Millisecond)); !ok {
		t.Fatal("fresh client denied at capacity")
	}
	l.mu.Lock()
	n := len(l.buckets)
	_, hotKept := l.buckets["hot"]
	l.mu.Unlock()
	if n >= maxLimiterClients {
		t.Fatalf("bucket map still holds %d entries after eviction", n)
	}
	if !hotKept {
		t.Fatal("recently active client evicted while idle ones existed")
	}
	// The hot client's empty bucket survived: still denied, no amnesty.
	if ok, _ := l.admit("hot", t0.Add(20*time.Millisecond)); ok {
		t.Fatal("eviction granted the hot client a fresh burst")
	}
}
