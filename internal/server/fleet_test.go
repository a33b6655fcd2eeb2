package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/server"
	"repro/internal/store"
)

// swapHandler lets a httptest.Server exist before the daemon behind it: the
// fleet membership needs every peer's URL at assembly time, but a URL only
// exists once the listener is up.  The placeholder answers 503 until the real
// handler is swapped in.
type swapHandler struct{ p atomic.Pointer[http.Handler] }

func (s *swapHandler) Set(h http.Handler) { s.p.Store(&h) }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.p.Load()).ServeHTTP(w, r)
}

type fleetNode struct {
	srv *server.Server
	url string
	ft  *fleet.FaultTransport
}

// newFleetCluster boots n in-process daemons over fresh memory-only stores,
// fleet-configured with each other as peers.  Every node's claim transport is
// a FaultTransport over the real HTTP wire, so tests choreograph failures per
// peer.  tweak adjusts each node's fleet config before assembly.
func newFleetCluster(t *testing.T, n int, tweak func(cfg *fleet.Config)) []*fleetNode {
	t.Helper()
	nodes := make([]*fleetNode, n)
	handlers := make([]*swapHandler, n)
	urls := make([]string, n)
	for i := range nodes {
		h := &swapHandler{}
		h.Set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusServiceUnavailable)
		}))
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		handlers[i] = h
		urls[i] = ts.URL
		nodes[i] = &fleetNode{url: ts.URL}
	}
	for i := range nodes {
		st, err := store.Open("", store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := &fleet.Config{
			Self:       urls[i],
			Peers:      append([]string(nil), urls...),
			HedgeDelay: -1, // tests opt in explicitly; a surprise hedge hides bugs
			RetryBase:  time.Millisecond,
			RetryCap:   4 * time.Millisecond,
		}
		if tweak != nil {
			tweak(cfg)
		}
		ft := fleet.NewFaultTransport(server.NewHTTPClaimTransport(nil))
		srv, err := server.New(server.Config{Store: st, Fleet: cfg, FleetTransport: ft})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		nodes[i].srv, nodes[i].ft = srv, ft
		handlers[i].Set(srv.Handler())
	}
	return nodes
}

// sweepURL renders the GET form of a sweep request against a node.
func fleetSweepURL(node *fleetNode, req server.SweepRequest) string {
	return fmt.Sprintf("%s/v1/sweep?scenario=%s&seeds=%d&seedBase=%d&adversary=%s",
		node.url, req.Scenario, req.Seeds, req.SeedBase, req.Adversary)
}

// fleetInfo fetches a node's /v1/fleet body.
func fleetInfo(t *testing.T, node *fleetNode) server.FleetResponse {
	t.Helper()
	status, _, body := get(t, node.url+"/v1/fleet")
	if status != http.StatusOK {
		t.Fatalf("/v1/fleet: HTTP %d: %s", status, body)
	}
	var resp server.FleetResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestFleetSweepGoldenByteIdentical is the tentpole's healthy-path golden:
// a 3-node fleet coordinator assembles its response from local seeds plus two
// peers' claim RPCs, and the bytes equal a direct serial sweep — exactly what
// one cold single-node daemon serves.
func TestFleetSweepGoldenByteIdentical(t *testing.T) {
	nodes := newFleetCluster(t, 3, nil)
	req := server.SweepRequest{Scenario: "prop3.1-strong-udc", Seeds: 48, SeedBase: 1}
	golden := goldenSweepBody(t, req)

	status, header, body := get(t, fleetSweepURL(nodes[0], req))
	if status != http.StatusOK {
		t.Fatalf("HTTP %d: %s", status, body)
	}
	if header.Get("X-Cache") != "miss" {
		t.Fatalf("cold fleet sweep X-Cache = %q, want miss", header.Get("X-Cache"))
	}
	if !bytes.Equal(body, golden) {
		t.Fatalf("fleet sweep body differs from direct serial sweep\ngot:  %s\nwant: %s", body, golden)
	}

	// The window genuinely crossed the wire: the coordinator counted remote
	// seeds, and both peers served claims.
	ss := nodes[0].srv.SchedulerStats()
	if ss.SeedsRemote == 0 {
		t.Fatal("48-seed sweep over 3 peers resolved no seeds remotely")
	}
	if ss.SeedsRemote+ss.SeedsComputed+ss.SeedsCached+ss.SeedsCoalesced != ss.SeedsRequested {
		t.Fatalf("seed accounting does not reconcile: %+v", ss)
	}
	for i := 1; i < 3; i++ {
		if nodes[i].srv.SchedulerStats().Requests == 0 {
			t.Fatalf("peer %d served no claim", i)
		}
	}

	// Warm repeat: full hit from the coordinator's window record, same bytes.
	status, header, warm := get(t, fleetSweepURL(nodes[0], req))
	if status != http.StatusOK || header.Get("X-Cache") != "hit" {
		t.Fatalf("warm fleet sweep: HTTP %d, X-Cache %q", status, header.Get("X-Cache"))
	}
	if !bytes.Equal(warm, golden) {
		t.Fatal("warm fleet sweep body differs from golden")
	}

	// /v1/fleet reports the membership with healthy peers and claim traffic.
	info := fleetInfo(t, nodes[0])
	if !info.Enabled || len(info.Peers) != 3 || info.SeedsRemote != ss.SeedsRemote {
		t.Fatalf("/v1/fleet = %+v", info)
	}
	shards, requests := 0, uint64(0)
	for _, p := range info.Peers {
		shards += p.Shards
		requests += p.Requests
		if !p.Self && p.State != fleet.StateHealthy {
			t.Fatalf("peer %s state = %q, want healthy", p.Peer, p.State)
		}
	}
	if shards != fleet.NumShards {
		t.Fatalf("shard counts sum to %d, want %d", shards, fleet.NumShards)
	}
	if requests == 0 {
		t.Fatal("/v1/fleet shows no claim requests after a fleet sweep")
	}
}

// TestFleetPeerKilledBetweenClaimAndCollect is the acceptance golden: both
// remote peers do the claimed work but die before the response arrives (the
// Fail verdict forwards the request, then loses the response).  The
// coordinator recomputes the orphaned seeds locally and still serves bytes
// identical to one cold daemon; the failure shows up in the detector counters
// and on /metrics as udc_fleet_peer_failures_total.
func TestFleetPeerKilledBetweenClaimAndCollect(t *testing.T) {
	nodes := newFleetCluster(t, 3, func(cfg *fleet.Config) {
		cfg.Attempts = 1     // no retry: the kill must be absorbed by fallback
		cfg.SuspectAfter = 1 // one failure suspects the peer
		cfg.ProbeInterval = time.Hour
	})
	for i := 1; i < 3; i++ {
		nodes[0].ft.Script(nodes[i].url, fleet.Fault{Op: fleet.Fail})
	}
	req := server.SweepRequest{Scenario: "prop2.3-nudc", Seeds: 32, SeedBase: 100}
	golden := goldenSweepBody(t, req)

	status, _, body := get(t, fleetSweepURL(nodes[0], req))
	if status != http.StatusOK {
		t.Fatalf("HTTP %d: %s", status, body)
	}
	if !bytes.Equal(body, golden) {
		t.Fatal("degraded fleet sweep body differs from direct serial sweep")
	}
	if ss := nodes[0].srv.SchedulerStats(); ss.SeedsRemote != 0 || ss.SeedsComputed != uint64(req.Seeds) {
		t.Fatalf("killed-peer sweep should compute everything locally: %+v", ss)
	}

	// The detector saw the failures: suspected peers, fallback seeds, and the
	// exposition carries a nonzero udc_fleet_peer_failures_total.
	info := fleetInfo(t, nodes[0])
	var failures, fallback uint64
	suspected := 0
	for _, p := range info.Peers {
		failures += p.Failures
		fallback += p.FallbackSeeds
		if p.State == fleet.StateSuspected {
			suspected++
		}
	}
	if failures == 0 || fallback == 0 || suspected == 0 {
		t.Fatalf("detector did not register the kills: %+v", info.Peers)
	}

	status, _, page := get(t, nodes[0].url+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", status)
	}
	failLine := regexp.MustCompile(`(?m)^udc_fleet_peer_failures_total\{peer="[^"]+"\} (\d+)$`)
	total := 0
	for _, m := range failLine.FindAllStringSubmatch(string(page), -1) {
		v, _ := strconv.Atoi(m[1])
		total += v
	}
	if total == 0 {
		t.Fatalf("/metrics carries no nonzero udc_fleet_peer_failures_total:\n%s", page)
	}

	// A second window avoids the suspected peers without touching the wire —
	// and the bytes still match the direct computation.
	calls := []int{nodes[0].ft.Calls(nodes[1].url), nodes[0].ft.Calls(nodes[2].url)}
	req2 := server.SweepRequest{Scenario: "prop2.3-nudc", Seeds: 16, SeedBase: 500}
	status, _, body = get(t, fleetSweepURL(nodes[0], req2))
	if status != http.StatusOK || !bytes.Equal(body, goldenSweepBody(t, req2)) {
		t.Fatalf("sweep with suspected peers: HTTP %d or body mismatch", status)
	}
	if nodes[0].ft.Calls(nodes[1].url) != calls[0] || nodes[0].ft.Calls(nodes[2].url) != calls[1] {
		t.Fatal("suspected peers were still sent claims before any probe interval")
	}
}

// TestFleetRetriesDroppedClaim: a dropped request (lost before reaching the
// peer) is retried with backoff and succeeds on the second attempt — no
// fallback, the seeds arrive remotely, the bytes match.
func TestFleetRetriesDroppedClaim(t *testing.T) {
	nodes := newFleetCluster(t, 3, nil)
	for i := 1; i < 3; i++ {
		nodes[0].ft.Script(nodes[i].url, fleet.Fault{Op: fleet.Drop})
	}
	req := server.SweepRequest{Scenario: "prop3.1-strong-udc", Seeds: 32, SeedBase: 1000}
	golden := goldenSweepBody(t, req)

	status, _, body := get(t, fleetSweepURL(nodes[0], req))
	if status != http.StatusOK {
		t.Fatalf("HTTP %d: %s", status, body)
	}
	if !bytes.Equal(body, golden) {
		t.Fatal("retried fleet sweep body differs from direct serial sweep")
	}
	ss := nodes[0].srv.SchedulerStats()
	if ss.SeedsRemote == 0 {
		t.Fatalf("retry should have recovered the remote claims: %+v", ss)
	}
	info := fleetInfo(t, nodes[0])
	var retries uint64
	for _, p := range info.Peers {
		retries += p.Retries
	}
	if retries == 0 {
		t.Fatalf("no retries recorded after dropped claims: %+v", info.Peers)
	}
}

// TestFleetHedgesDelayedPeer: one peer sits on its claim far past HedgeDelay.
// The coordinator hedges — recomputes the missing seeds locally — and serves
// the identical bytes without waiting out the slow peer.
func TestFleetHedgesDelayedPeer(t *testing.T) {
	nodes := newFleetCluster(t, 3, func(cfg *fleet.Config) {
		cfg.HedgeDelay = 25 * time.Millisecond
	})
	for i := 1; i < 3; i++ {
		nodes[0].ft.Script(nodes[i].url, fleet.Fault{Op: fleet.Delay, Wait: 10 * time.Second})
	}
	req := server.SweepRequest{Scenario: "prop2.3-nudc", Seeds: 24, SeedBase: 2000}
	golden := goldenSweepBody(t, req)

	start := time.Now()
	status, _, body := get(t, fleetSweepURL(nodes[0], req))
	if status != http.StatusOK {
		t.Fatalf("HTTP %d: %s", status, body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hedged sweep took %v; the coordinator waited out the delayed peer", elapsed)
	}
	if !bytes.Equal(body, golden) {
		t.Fatal("hedged fleet sweep body differs from direct serial sweep")
	}
	info := fleetInfo(t, nodes[0])
	var hedges uint64
	for _, p := range info.Peers {
		hedges += p.Hedges
	}
	if hedges == 0 {
		t.Fatalf("no hedges recorded for the delayed peers: %+v", info.Peers)
	}
}

// TestFleetSeededFaultScheduleByteIdentical soaks the coordinator against a
// seeded probabilistic fault schedule — drops, lost responses and torn
// containers — over several windows.  Whatever the faults, every response
// must be byte-identical to the direct serial sweep.
func TestFleetSeededFaultScheduleByteIdentical(t *testing.T) {
	nodes := newFleetCluster(t, 3, nil)
	nodes[0].ft.SeedFaults(1234, 0.25, 0.15, 0, 0)
	nodes[0].ft.Script(nodes[1].url, fleet.Fault{Op: fleet.Truncate}) // one torn container, then the schedule
	for i := 0; i < 4; i++ {
		req := server.SweepRequest{Scenario: "prop3.1-strong-udc", Seeds: 16, SeedBase: int64(3000 + 100*i)}
		status, _, body := get(t, fleetSweepURL(nodes[0], req))
		if status != http.StatusOK {
			t.Fatalf("window %d: HTTP %d: %s", i, status, body)
		}
		if !bytes.Equal(body, goldenSweepBody(t, req)) {
			t.Fatalf("window %d: body differs from direct serial sweep under fault schedule", i)
		}
	}
}

// TestFleetDisabledSingleNode: a nil fleet config (and a single-member one)
// keeps the daemon in single-node mode with /v1/fleet reporting disabled.
func TestFleetDisabledSingleNode(t *testing.T) {
	_, ts := newTestServer(t, "")
	status, _, body := get(t, ts.URL+"/v1/fleet")
	if status != http.StatusOK {
		t.Fatalf("/v1/fleet: HTTP %d", status)
	}
	var resp server.FleetResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Enabled || len(resp.Peers) != 0 || resp.Shards != fleet.NumShards {
		t.Fatalf("/v1/fleet on a single node = %+v", resp)
	}
}

// TestDrainLifecycle covers graceful shutdown: draining flips /readyz to 503
// and sheds new corpus work with a retryable 503, while /healthz stays 200
// and Drain returns once in-flight work (none here) is gone.
func TestDrainLifecycle(t *testing.T) {
	srv, ts := newTestServer(t, "")

	status, _, body := get(t, ts.URL+"/readyz")
	if status != http.StatusOK || !strings.Contains(string(body), `"ready":true`) {
		t.Fatalf("/readyz before drain: HTTP %d: %s", status, body)
	}

	srv.BeginDrain()
	if !srv.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}

	status, _, body = get(t, ts.URL+"/healthz")
	if status != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("/healthz while draining: HTTP %d: %s (liveness must hold)", status, body)
	}
	status, header, _ := get(t, ts.URL+"/readyz")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining: HTTP %d, want 503", status)
	}
	if header.Get("Retry-After") == "" {
		t.Fatal("/readyz 503 lacks Retry-After")
	}

	status, header, _ = get(t, ts.URL+"/v1/sweep?scenario=prop2.3-nudc&seeds=2")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("sweep while draining: HTTP %d, want 503", status)
	}
	if header.Get("Retry-After") == "" {
		t.Fatal("drain shed lacks Retry-After")
	}
	status, _, _ = get(t, ts.URL+"/v1/extract?extraction=kx-perfect&runs=2")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("extract while draining: HTTP %d, want 503", status)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain with no in-flight work: %v", err)
	}
	if srv.ActiveRequests() != 0 {
		t.Fatalf("ActiveRequests = %d after drain", srv.ActiveRequests())
	}

	// Non-corpus introspection still serves while draining.
	if status, _, _ := get(t, ts.URL+"/v1/stats"); status != http.StatusOK {
		t.Fatalf("/v1/stats while draining: HTTP %d", status)
	}
}

// TestDrainWaitsForInFlight: a request admitted before the drain began holds
// Drain open until it finishes; Drain times out while it runs and succeeds
// after.
func TestDrainWaitsForInFlight(t *testing.T) {
	srv, ts := newTestServer(t, "")

	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		// Hold a sweep in flight by reading its streamed response slowly:
		// block the handler's first write until release.
		resp, err := http.Get(ts.URL + "/v1/sweep?scenario=prop2.3-nudc&seeds=4&format=ndjson")
		if err == nil {
			close(started)
			<-release
			resp.Body.Close()
		} else {
			close(started)
		}
	}()
	<-started

	// The handler may already have finished writing (small body fits in
	// kernel buffers), so don't assert the timeout path strictly — assert
	// the invariant instead: Drain never returns while ActiveRequests > 0.
	srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	err := srv.Drain(ctx)
	cancel()
	if err != nil && srv.ActiveRequests() == 0 {
		t.Fatal("Drain timed out with no requests in flight")
	}
	close(release)
	ctx, cancel = context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain after release: %v (active=%d)", err, srv.ActiveRequests())
	}
}

// TestClaimEndpointValidation: the fleet-internal endpoint rejects bad
// methods and malformed bodies, and serves a well-formed claim as a binary
// sweep record even on a single-node daemon (the endpoint does not require
// fleet mode — any peer can be asked to compute seeds it would own).
func TestClaimEndpointValidation(t *testing.T) {
	_, ts := newTestServer(t, "")

	status, header, _ := get(t, ts.URL+"/v1/claim")
	if status != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/claim: HTTP %d, want 405", status)
	}
	if got := header.Get("Allow"); got != "POST" {
		t.Fatalf("GET /v1/claim: Allow = %q, want POST", got)
	}
	resp, err := http.Post(ts.URL+"/v1/claim", "application/json", strings.NewReader(`{"scenario":""}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("claim without scenario: HTTP %d, want 400", resp.StatusCode)
	}

	// A seed list past the 1 MiB body bound is refused before it is allocated.
	oversize := `{"scenario":"prop2.3-nudc","seeds":[1` + strings.Repeat(",1", 1<<19) + `]}`
	resp, err = http.Post(ts.URL+"/v1/claim", "application/json", strings.NewReader(oversize))
	if err != nil {
		t.Fatal(err)
	}
	var e struct {
		Error string `json:"error"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || derr != nil || e.Error == "" {
		t.Fatalf("oversize claim: HTTP %d, error envelope %+v (%v), want 413 with a JSON error", resp.StatusCode, e, derr)
	}

	body := `{"scenario":"prop2.3-nudc","seeds":[7,3,11]}`
	resp, err = http.Post(ts.URL+"/v1/claim", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("claim: HTTP %d", resp.StatusCode)
	}
	raw := new(bytes.Buffer)
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	rec, err := store.DecodeSweepRecord(raw.Bytes())
	if err != nil {
		t.Fatalf("claim response is not a sweep-record container: %v", err)
	}
	if len(rec.Outcomes) != 3 {
		t.Fatalf("claim returned %d outcomes, want 3", len(rec.Outcomes))
	}
	for i, want := range []int64{7, 3, 11} {
		if rec.Outcomes[i].Seed != want {
			t.Fatalf("outcome %d seed = %d, want %d (claims must preserve arbitrary seed order)", i, rec.Outcomes[i].Seed, want)
		}
	}
}

// TestClaimRepeatedSeed pins slot semantics: a claim naming a seed twice
// answers with one outcome per listed seed, in request order — cold (the
// second slot joins the first slot's own flight entry) and again from the
// corpus.
func TestClaimRepeatedSeed(t *testing.T) {
	_, ts := newTestServer(t, "")
	golden := goldenSweepBody(t, server.SweepRequest{Scenario: "prop2.3-nudc", Seeds: 1, SeedBase: 5})
	for _, grade := range []string{"miss", "hit"} {
		resp, err := http.Post(ts.URL+"/v1/claim", "application/json", strings.NewReader(`{"scenario":"prop2.3-nudc","seeds":[5,9,5]}`))
		if err != nil {
			t.Fatal(err)
		}
		raw := new(bytes.Buffer)
		_, err = raw.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s claim: HTTP %d, read error %v", grade, resp.StatusCode, err)
		}
		if got := resp.Header.Get("X-Cache"); got != grade {
			t.Fatalf("X-Cache = %q, want %q", got, grade)
		}
		rec, err := store.DecodeSweepRecord(raw.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Outcomes) != 3 {
			t.Fatalf("%s claim returned %d outcomes, want 3", grade, len(rec.Outcomes))
		}
		for i, want := range []int64{5, 9, 5} {
			if rec.Outcomes[i].Seed != want {
				t.Fatalf("%s claim: outcome %d seed = %d, want %d", grade, i, rec.Outcomes[i].Seed, want)
			}
		}
		// Both copies of seed 5 are the outcome a direct serial sweep yields.
		outs := rec.Outcomes
		for _, i := range []int{0, 2} {
			rec.Outcomes = outs[i : i+1]
			if !bytes.Equal(server.MarshalBody(server.SweepResponseOf(rec)), golden) {
				t.Fatalf("%s claim: slot %d's outcome differs from a direct serial sweep of seed 5", grade, i)
			}
		}
	}
}
