package server

// White-box tests for request tracing: traceparent ingress, X-Trace-Id
// egress, the /debug/traces endpoints, span links on coalesced seeds (via
// flight-table injection, like coalesce_test.go), structured slow logs, and
// the /v1/corpus census.

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/workload"
)

func newTraceTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

func getBody(t *testing.T, url string, header http.Header) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestTraceparentRoundTrip pins the end-to-end trace story: a request issued
// with a client-supplied traceparent answers with that trace ID in
// X-Trace-Id, and the finished trace — stage breakdown, parent span, seed
// accounting — is retrievable from /debug/traces/<id>.
func TestTraceparentRoundTrip(t *testing.T) {
	_, ts := newTraceTestServer(t, Config{})

	traceID := "0af7651916cd43dd8448eb211c80319c"
	spanID := "b7ad6b7169203331"
	hdr := http.Header{"Traceparent": {"00-" + traceID + "-" + spanID + "-01"}}
	resp, _ := getBody(t, ts.URL+"/v1/sweep?scenario=prop2.3-nudc&seeds=3", hdr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep answered %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != traceID {
		t.Fatalf("X-Trace-Id = %q, want the client-supplied trace %q", got, traceID)
	}

	dresp, body := getBody(t, ts.URL+"/debug/traces/"+traceID, nil)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces/%s answered %d: %s", traceID, dresp.StatusCode, body)
	}
	var detail TraceDetailJSON
	if err := json.Unmarshal(body, &detail); err != nil {
		t.Fatal(err)
	}
	if detail.ID != traceID || detail.Parent != spanID || detail.Route != "/v1/sweep" {
		t.Fatalf("trace detail = id %s parent %s route %s, want the request's identity", detail.ID, detail.Parent, detail.Route)
	}
	if detail.Cache != string(CacheMiss) || detail.Format != formatJSON {
		t.Fatalf("trace detail cache=%q format=%q, want miss/json for a cold JSON sweep", detail.Cache, detail.Format)
	}
	if detail.Seeds.Requested != 3 || detail.Seeds.Computed != 3 {
		t.Fatalf("seed accounting = %+v, want 3 requested / 3 computed", detail.Seeds)
	}
	stages := make(map[string]bool)
	for _, st := range detail.Stages {
		stages[st.Name] = true
	}
	for _, want := range []string{"resolve", "claim", "compute", "persist", "assemble"} {
		if !stages[want] {
			t.Fatalf("stage %q missing from the trace detail (got %v)", want, detail.Stages)
		}
	}

	// Without a traceparent the daemon mints a fresh, well-formed ID; a
	// malformed traceparent must not be adopted either.
	for _, h := range []http.Header{nil, {"Traceparent": {"00-zzzz-bad-01"}}} {
		resp, _ := getBody(t, ts.URL+"/v1/sweep?scenario=prop2.3-nudc&seeds=3", h)
		id := resp.Header.Get("X-Trace-Id")
		if _, ok := obs.ParseTraceID(id); !ok {
			t.Fatalf("minted X-Trace-Id %q is not a well-formed trace ID", id)
		}
		if id == traceID {
			t.Fatal("fresh request reused the earlier trace ID")
		}
	}
}

// TestClientTracePropagation pins the client side of the contract: a
// Traceparent set on server.Client reaches the daemon, and the response's
// trace identity is exposed as client.TraceID.
func TestClientTracePropagation(t *testing.T) {
	_, ts := newTraceTestServer(t, Config{})

	trace := obs.NewTraceID()
	client := &Client{BaseURL: ts.URL, Traceparent: obs.Traceparent(trace, obs.NewSpanID())}
	if _, _, err := client.Sweep(SweepRequest{Scenario: "prop2.3-nudc", Seeds: 2}); err != nil {
		t.Fatal(err)
	}
	if client.TraceID != trace.String() {
		t.Fatalf("client.TraceID = %q, want the propagated trace %q", client.TraceID, trace)
	}

	// Traces() must list it.
	traces, err := client.Traces(10)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tr := range traces {
		found = found || tr.ID == trace.String()
	}
	if !found {
		t.Fatalf("trace %s missing from Traces() (%d listed)", trace, len(traces))
	}
}

// TestCoalescedTraceLink pins the span-link story: a request that joins
// another request's in-flight seed through the flight table carries a link to
// the owner's trace, and /debug/traces/<id> resolves the linked owner trace
// when the log still holds it.
func TestCoalescedTraceLink(t *testing.T) {
	srv, ts := newTraceTestServer(t, Config{})

	req := SweepRequest{Scenario: "prop2.3-nudc", Seeds: 4, SeedBase: 1}
	sc := registry.MustScenario(req.Scenario)
	seeds := workload.Seeds(req.SeedBase, req.Seeds)
	joinSeed := seeds[len(seeds)-1]

	// The outcome the fake owner publishes (simulation is seed-deterministic).
	res, err := workload.Sweep(sc.Spec, []int64{joinSeed}, sc.Eval)
	if err != nil {
		t.Fatal(err)
	}

	// The fake owner: an in-flight claim attributed to a trace we pre-record
	// into the log, as if its request had just finished.
	ownerTrace := obs.NewTraceID()
	c, publish := plantSeedCall(srv.sched, SweepSeedKey(req.Scenario, "", joinSeed))
	c.owner = ownerTrace
	srv.traces.Record(&obs.TraceRecord{ID: ownerTrace, Route: "/v1/sweep", Duration: time.Millisecond, Cache: "miss"})

	joinerTrace := obs.NewTraceID()
	hdr := http.Header{"Traceparent": {obs.Traceparent(joinerTrace, obs.NewSpanID())}}
	done := make(chan *http.Response, 1)
	go func() {
		resp, _ := getBody(t, ts.URL+"/v1/sweep?scenario=prop2.3-nudc&seeds=4&seedBase=1", hdr)
		done <- resp
	}()

	awaitSeedRecord(t, srv.store, SweepSeedKey(req.Scenario, "", seeds[0]))
	c.outcome = res.Outcomes[0]
	publish()

	if resp := <-done; resp.StatusCode != http.StatusOK {
		t.Fatalf("coalesced sweep answered %d", resp.StatusCode)
	}

	dresp, body := getBody(t, ts.URL+"/debug/traces/"+joinerTrace.String(), nil)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces/%s answered %d: %s", joinerTrace, dresp.StatusCode, body)
	}
	var detail TraceDetailJSON
	if err := json.Unmarshal(body, &detail); err != nil {
		t.Fatal(err)
	}
	if len(detail.Links) != 1 || detail.Links[0] != ownerTrace.String() {
		t.Fatalf("joiner links = %v, want exactly the owner trace %s", detail.Links, ownerTrace)
	}
	if detail.Seeds.Coalesced != 1 || detail.Seeds.Computed != len(seeds)-1 {
		t.Fatalf("joiner seed accounting = %+v, want 1 coalesced / %d computed", detail.Seeds, len(seeds)-1)
	}
	if len(detail.Linked) != 1 || detail.Linked[0].ID != ownerTrace.String() {
		t.Fatalf("linked owner traces = %+v, want the pre-recorded owner", detail.Linked)
	}
}

// TestErroredTraceRetained pins error retention and the list filters: a
// failed request's trace is recorded with its error, X-Trace-Id is present on
// the error response, and /debug/traces?errors=1 surfaces it.
func TestErroredTraceRetained(t *testing.T) {
	_, ts := newTraceTestServer(t, Config{})

	resp, _ := getBody(t, ts.URL+"/v1/sweep?scenario=no-such-scenario&seeds=2", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown scenario answered %d, want 404", resp.StatusCode)
	}
	id := resp.Header.Get("X-Trace-Id")
	if _, ok := obs.ParseTraceID(id); !ok {
		t.Fatalf("error response X-Trace-Id = %q, want a well-formed ID", id)
	}

	// A served request for contrast, then filter on errors.
	if resp, _ := getBody(t, ts.URL+"/v1/sweep?scenario=prop2.3-nudc&seeds=2", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("control sweep answered %d", resp.StatusCode)
	}
	_, body := getBody(t, ts.URL+"/debug/traces?errors=1", nil)
	var list TraceListResponse
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if list.Count != 1 || list.Traces[0].ID != id || list.Traces[0].Error == "" {
		t.Fatalf("errors=1 listed %+v, want exactly the failed trace %s", list, id)
	}

	// Route filter excludes, then includes.
	_, body = getBody(t, ts.URL+"/debug/traces?route=/v1/extract", nil)
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if list.Count != 0 {
		t.Fatalf("route=/v1/extract listed %d traces, want 0", list.Count)
	}
	_, body = getBody(t, ts.URL+"/debug/traces?route=/v1/sweep&limit=1", nil)
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if list.Count != 1 {
		t.Fatalf("route+limit listed %d traces, want 1", list.Count)
	}

	// Unknown and malformed IDs answer 404/400.
	if resp, _ := getBody(t, ts.URL+"/debug/traces/"+obs.NewTraceID().String(), nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace ID answered %d, want 404", resp.StatusCode)
	}
	if resp, _ := getBody(t, ts.URL+"/debug/traces/not-hex", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed trace ID answered %d, want 400", resp.StatusCode)
	}
}

// lockedBuffer is a goroutine-safe log sink: the handler writes from the
// request goroutine while the test polls for content.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSlowStreamStructuredLog pins the streaming satellite: a slow streamed
// request logs a structured slog record keyed by its trace ID, with the
// route, format and stage breakdown.
func TestSlowStreamStructuredLog(t *testing.T) {
	var logs lockedBuffer
	_, ts := newTraceTestServer(t, Config{
		SlowRequest: time.Nanosecond, // everything is slow
		Logger:      slog.New(slog.NewJSONHandler(&logs, nil)),
	})

	trace := obs.NewTraceID()
	hdr := http.Header{
		"Traceparent": {obs.Traceparent(trace, obs.NewSpanID())},
		"Accept":      {ctNDJSON},
	}
	resp, body := getBody(t, ts.URL+"/v1/sweep?scenario=prop2.3-nudc&seeds=2", hdr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("streamed sweep answered %d: %s", resp.StatusCode, body)
	}

	// The handler finishes (and logs) after the last byte flushes; poll
	// briefly instead of racing it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s := logs.String(); strings.Contains(s, "slow request") {
			var rec map[string]any
			if err := json.Unmarshal([]byte(s[:strings.IndexByte(s, '\n')]), &rec); err != nil {
				t.Fatalf("slow log is not one JSON record per line: %v\n%s", err, s)
			}
			if rec["trace"] != trace.String() || rec["route"] != "/v1/sweep" || rec["format"] != formatNDJSON {
				t.Fatalf("slow log record = %v, want trace/route/format of the streamed request", rec)
			}
			if rec["stages"] == "" || rec["level"] != "WARN" {
				t.Fatalf("slow log record lacks stages or WARN level: %v", rec)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no structured slow-request log for the streamed request; logs: %q", logs.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCorpusEndpoint pins /v1/corpus: shard occupancy and kind census from
// the persistent layout, memory occupancy, and the per-source seed counters.
func TestCorpusEndpoint(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTraceTestServer(t, Config{Store: st})

	if resp, _ := getBody(t, ts.URL+"/v1/sweep?scenario=prop2.3-nudc&seeds=4", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep answered %d", resp.StatusCode)
	}
	resp, body := getBody(t, ts.URL+"/v1/corpus", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/corpus answered %d: %s", resp.StatusCode, body)
	}
	var corpus CorpusResponse
	if err := json.Unmarshal(body, &corpus); err != nil {
		t.Fatal(err)
	}
	if !corpus.Persistent || corpus.Dir == "" {
		t.Fatalf("corpus reports persistent=%v dir=%q for a disk-backed store", corpus.Persistent, corpus.Dir)
	}
	// 4 per-seed records — a sweep's are outcome containers — plus the
	// assembled window record.
	if corpus.Disk.Entries != 5 {
		t.Fatalf("corpus counted %d entries, want 5 (4 seeds + 1 window)", corpus.Disk.Entries)
	}
	if corpus.Disk.Kinds["outcome"] != 4 || corpus.Disk.Kinds["sweep"] != 1 || len(corpus.Disk.Kinds) != 2 {
		t.Fatalf("kind census = %v, want exactly 4 outcome + 1 sweep", corpus.Disk.Kinds)
	}
	var shardEntries int
	for _, sh := range corpus.Disk.Shards {
		shardEntries += sh.Entries
	}
	if shardEntries != corpus.Disk.Entries {
		t.Fatalf("shard entries sum to %d, want the total %d", shardEntries, corpus.Disk.Entries)
	}
	if len(corpus.Sources) != 1 {
		t.Fatalf("sources = %+v, want exactly the swept scenario", corpus.Sources)
	}
	src := corpus.Sources[0]
	seeds := workload.Seeds(src.MinSeed, 4)
	if src.Source != "scenario:prop2.3-nudc" || src.SeedsComputed != 4 || src.MaxSeed != seeds[3] {
		t.Fatalf("source counters = %+v, want 4 computed seeds spanning the swept window", src)
	}

	// A repeat of a sub-window serves from cache and moves the cached counter.
	if resp, _ := getBody(t, ts.URL+"/v1/sweep?scenario=prop2.3-nudc&seeds=2", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm sweep answered %d", resp.StatusCode)
	}
	var again CorpusResponse
	_, body = getBody(t, ts.URL+"/v1/corpus?kinds=0", nil)
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if again.Disk.Kinds != nil {
		t.Fatal("kinds=0 still ran the kind census")
	}
	if again.Sources[0].SeedsCached != 2 {
		t.Fatalf("warm sub-window moved SeedsCached to %d, want 2", again.Sources[0].SeedsCached)
	}
}
