package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/server"
)

// TestMetricsEndpoint pins the /metrics contract: the page parses as valid
// exposition, carries at least the 15 required families over scheduler,
// store and fleet, mirrors the scheduler's own counters exactly, and two
// idle scrapes are byte-identical (so scraping never perturbs what it
// observes).
func TestMetricsEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, "")

	// Drive one sweep (miss) and one repeat (hit) so the counters are alive.
	sweepURL := ts.URL + "/v1/sweep?scenario=prop3.1-strong-udc&seeds=4&seedBase=1"
	for i := 0; i < 2; i++ {
		if code, _, body := get(t, sweepURL); code != 200 {
			t.Fatalf("sweep HTTP %d: %s", code, body)
		}
	}

	code, header, page := get(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics HTTP %d", code)
	}
	if ct := header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	samples, err := obs.ParseText(page)
	if err != nil {
		t.Fatalf("exposition grammar: %v", err)
	}

	families := bytes.Count(page, []byte("\n# TYPE "))
	if bytes.HasPrefix(page, []byte("# TYPE ")) {
		families++
	}
	if families < 15 {
		t.Fatalf("only %d families exposed, want >= 15", families)
	}

	for _, name := range []string{
		"udc_scheduler_requests_total",
		"udc_scheduler_seeds_requested_total",
		"udc_scheduler_seeds_cached_total",
		"udc_scheduler_seeds_computed_total",
		"udc_scheduler_seeds_coalesced_total",
		"udc_scheduler_fleet_jobs_total",
		"udc_scheduler_queue_depth",
		"udc_store_misses_total",
		"udc_store_puts_total",
		"udc_store_mem_entries",
		"udc_fleet_inflight_seeds",
		"udc_fleet_busy_workers",
		"udc_fleet_active_passes",
		"udc_start_time_seconds",
	} {
		if _, ok := obs.Value(samples, name); !ok {
			t.Errorf("family %s missing or not a single sample", name)
		}
	}

	// The mirrors must agree with the source of truth.
	ss := srv.SchedulerStats()
	if v, _ := obs.Value(samples, "udc_scheduler_seeds_computed_total"); uint64(v) != ss.SeedsComputed {
		t.Errorf("udc_scheduler_seeds_computed_total = %v, scheduler says %d", v, ss.SeedsComputed)
	}
	if v, _ := obs.Value(samples, "udc_scheduler_requests_total"); uint64(v) != ss.Requests {
		t.Errorf("udc_scheduler_requests_total = %v, scheduler says %d", v, ss.Requests)
	}
	if v, _ := obs.Value(samples, "udc_scheduler_requests_served_total", "grade", "hit"); uint64(v) != ss.FullHits {
		t.Errorf("served{grade=hit} = %v, scheduler says %d", v, ss.FullHits)
	}

	// The latency histogram saw both requests on the sweep route.
	buckets := obs.Buckets(samples, "udc_http_request_duration_seconds", "route", "/v1/sweep")
	if len(buckets) == 0 || buckets[len(buckets)-1].CumulativeCount != 2 {
		t.Errorf("sweep route histogram count = %v, want 2", buckets)
	}

	// Idle determinism: nothing happened between two scrapes, so the pages
	// must be byte-identical (/metrics does not instrument itself).
	_, _, again := get(t, ts.URL+"/metrics")
	if !bytes.Equal(page, again) {
		t.Fatalf("two idle scrapes differ:\n--- first\n%s\n--- second\n%s", page, again)
	}
}

// TestServerTimingHeader pins the Server-Timing surface on both corpus-backed
// routes: a cold request reports its compute stage, a warm one reports the
// hit, and both always carry the total and the cache grade.
func TestServerTimingHeader(t *testing.T) {
	_, ts := newTestServer(t, "")
	urls := map[string]string{
		"sweep":   ts.URL + "/v1/sweep?scenario=prop3.1-strong-udc&seeds=4&seedBase=1",
		"extract": ts.URL + "/v1/extract?extraction=kx-perfect&runs=6",
	}
	for route, url := range urls {
		code, header, body := get(t, url)
		if code != 200 {
			t.Fatalf("%s HTTP %d: %s", route, code, body)
		}
		st := header.Get("Server-Timing")
		for _, want := range []string{"compute;dur=", "total;dur=", `cache;desc="miss"`} {
			if !strings.Contains(st, want) {
				t.Errorf("cold %s Server-Timing %q lacks %q", route, st, want)
			}
		}
		_, header, _ = get(t, url)
		st = header.Get("Server-Timing")
		for _, want := range []string{"resolve;dur=", "total;dur=", `cache;desc="hit"`} {
			if !strings.Contains(st, want) {
				t.Errorf("warm %s Server-Timing %q lacks %q", route, st, want)
			}
		}
	}
}

// TestDebugTiming pins the ?debug=timing envelope: the trace block carries
// the stage breakdown and cache grade, and the embedded response is the
// normal body byte for byte (modulo the body's trailing newline, which
// cannot live inside a JSON value).
func TestDebugTiming(t *testing.T) {
	_, ts := newTestServer(t, "")
	req := server.SweepRequest{Scenario: "prop3.1-strong-udc", Seeds: 4, SeedBase: 1}
	golden := goldenSweepBody(t, req)
	url := fmt.Sprintf("%s/v1/sweep?scenario=%s&seeds=%d&seedBase=%d", ts.URL, req.Scenario, req.Seeds, req.SeedBase)

	code, _, body := get(t, url+"&debug=timing")
	if code != 200 {
		t.Fatalf("HTTP %d: %s", code, body)
	}
	var env server.DebugTimingResponse
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("decode envelope: %v", err)
	}
	if env.Trace.Cache != "miss" {
		t.Errorf("trace cache = %q, want miss", env.Trace.Cache)
	}
	if env.Trace.TotalMillis <= 0 {
		t.Errorf("trace total = %v, want > 0", env.Trace.TotalMillis)
	}
	names := map[string]bool{}
	for _, st := range env.Trace.Stages {
		names[st.Name] = true
	}
	for _, want := range []string{"resolve", "compute", "persist"} {
		if !names[want] {
			t.Errorf("trace stages %v lack %q", env.Trace.Stages, want)
		}
	}
	if inner := append([]byte(env.Response), '\n'); !bytes.Equal(inner, golden) {
		t.Errorf("embedded response differs from golden body:\n%s\nvs\n%s", inner, golden)
	}

	// The flag must not leak into normal responses.
	if _, _, normal := get(t, url); !bytes.Equal(normal, golden) {
		t.Errorf("normal body after a debug request differs from golden")
	}
}

// TestConcurrentExtractCoalescedAccounting races identical extractions to
// exercise the scheduler's direct s.stats.Coalesced++ increment (satellite of
// the stats-discipline audit) under the race detector, and pins the
// accounting identities that hold in every interleaving: every request is a
// miss (the owner, plus followers inheriting its status) or a full hit (late
// arrivals served by the stored record), exactly one request owned the
// computation, and all bodies are byte-identical.
func TestConcurrentExtractCoalescedAccounting(t *testing.T) {
	const clients = 8
	srv, ts := newTestServer(t, "")
	url := ts.URL + "/v1/extract?extraction=kx-perfect&runs=6"

	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, _, body := get(t, url)
			if code != 200 {
				t.Errorf("client %d: HTTP %d: %s", i, code, body)
				return
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()

	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d body differs from client 0", i)
		}
	}

	ss := srv.SchedulerStats()
	if ss.Requests != clients {
		t.Errorf("requests = %d, want %d", ss.Requests, clients)
	}
	if ss.FullHits+ss.Misses != clients {
		t.Errorf("fullHits %d + misses %d != %d", ss.FullHits, ss.Misses, clients)
	}
	if ss.Misses < 1 {
		t.Errorf("misses = %d, want >= 1 (someone owned the computation)", ss.Misses)
	}
	if ss.Coalesced != ss.Misses-1 {
		t.Errorf("coalesced = %d, want misses-1 = %d", ss.Coalesced, ss.Misses-1)
	}
	// One owner means exactly one fleet job: the pipeline, source-run
	// simulation included.
	if ss.Computed != 1 {
		t.Errorf("fleet jobs = %d, want 1", ss.Computed)
	}
}

// TestAccountingIdentitiesUnderExtractionTraffic drives extractions through
// every grade (cold, grown, restarted, two concurrent identical requests),
// interleaved with sweeps, and checks the scheduler's two accounting
// identities on both daemons afterwards.  An extraction miss counts the seeds
// it simulates as requested and computed.
func TestAccountingIdentitiesUnderExtractionTraffic(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, dir)
	base := ts.URL
	// t.Error, not t.Fatal: fetch also runs on goroutines of its own.
	fetch := func(route string) {
		resp, err := http.Get(base + route)
		if err != nil {
			t.Error(err)
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("%s: HTTP %d, read error %v: %s", route, resp.StatusCode, err, body)
		}
	}
	fetch("/v1/sweep?scenario=prop2.3-nudc&seeds=8")
	fetch("/v1/extract?extraction=kx-perfect&runs=6")
	fetch("/v1/sweep?scenario=prop2.3-nudc&seeds=12")
	fetch("/v1/extract?extraction=kx-perfect&runs=8")
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); fetch("/v1/extract?extraction=kx-perfect&runs=10") }()
	}
	wg.Wait()
	fetch("/v1/sweep?scenario=prop2.3-nudc&seeds=8")

	srv2, ts2 := newTestServer(t, dir)
	base = ts2.URL
	fetch("/v1/extract?extraction=kx-perfect&runs=8")
	fetch("/v1/extract?extraction=kx-perfect&runs=12")
	fetch("/v1/sweep?scenario=prop2.3-nudc&seeds=16")

	for i, ss := range []server.SchedulerStats{srv.SchedulerStats(), srv2.SchedulerStats()} {
		if ss.SeedsCached+ss.SeedsComputed+ss.SeedsCoalesced+ss.SeedsRemote != ss.SeedsRequested {
			t.Errorf("daemon %d: cached + computed + coalesced + remote != requested: %+v", i+1, ss)
		}
		if ss.FullHits+ss.PartialHits+ss.Misses+ss.Errors != ss.Requests {
			t.Errorf("daemon %d: fullHits + partialHits + misses + errors != requests: %+v", i+1, ss)
		}
	}
	// 6 + 2 + 2 extraction seeds and 12 sweep seeds on the first daemon; the
	// restarted one re-simulates all 12 extraction seeds and 4 sweep seeds.
	if ss := srv.SchedulerStats(); ss.SeedsComputed != 22 || ss.Requests != 7 {
		t.Errorf("first daemon: %+v", ss)
	}
	if ss := srv2.SchedulerStats(); ss.SeedsComputed != 16 || ss.Requests != 3 {
		t.Errorf("restarted daemon: %+v", ss)
	}
}
