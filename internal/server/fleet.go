package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/workload"
)

// Fleet mode.  A fleet is N udcd peers sharing the 256-way shard layout of
// the seed corpus: each shard prefix (the first byte of a per-seed record's
// content-address digest) is owned by exactly one peer, assigned by
// rendezvous hashing over the membership list (internal/fleet).  A sweep
// landing on any peer acts as that request's coordinator: seeds it claims in
// its flight table are partitioned by owner, remote-owned groups are sent to
// their peers as claim RPCs on /v1/claim (fleet-internal traffic speaks the
// binary wire: the response is a store codec sweep-record container), and
// the response assembles from the union of local + remote resolutions —
// byte-identical to a single-node daemon, because every side computes the
// same deterministic outcomes.
//
// Robustness is strictly a latency affair: a suspected peer is skipped, a
// failed or torn claim falls back to local recompute, a slow claim is hedged
// by local recompute after HedgeDelay — in every case the response bytes are
// what a single cold daemon would have served.  Per-peer detector state and
// counters surface on /v1/fleet and /metrics (udc_fleet_peer_*).

// ClaimRequest is the body of a fleet-internal POST /v1/claim: resolve these
// exact seeds of a catalogued scenario and return them as a binary sweep
// record.  Unlike SweepRequest the seed list is explicit — a coordinator
// claims whatever subset of its window hashes to the peer's shards, which is
// rarely contiguous.
type ClaimRequest struct {
	Scenario  string  `json:"scenario"`
	Adversary string  `json:"adversary,omitempty"`
	Seeds     []int64 `json:"seeds"`
}

func (r *ClaimRequest) normalize() error {
	if r.Scenario == "" {
		return fmt.Errorf("scenario is required")
	}
	if len(r.Seeds) == 0 {
		return fmt.Errorf("seeds are required")
	}
	if len(r.Seeds) > MaxSeeds {
		return fmt.Errorf("claim of %d seeds exceeds the %d-seed bound", len(r.Seeds), MaxSeeds)
	}
	return nil
}

// errPeerSuspected short-circuits claims to a peer the failure detector
// currently suspects: no RPC is attempted, the seeds are recomputed locally.
var errPeerSuspected = errors.New("fleet: peer suspected, claiming locally")

// fleetCoordinator holds one daemon's fleet state: the shard ring, the
// failure detector, the claim transport and the retry policy.  It is
// assembled once before the server starts and never mutated afterwards, so
// the scheduler reads it without locking; all mutable state lives inside the
// tracker (which locks) and the scheduler's own counters.
type fleetCoordinator struct {
	cfg       fleet.Config
	ring      *fleet.Ring
	health    *fleet.Tracker
	transport fleet.Transport
	backoff   *fleet.Backoff
}

// newFleetCoordinator validates cfg and assembles the coordinator, or
// returns (nil, nil) for a single-member config — single-node operation
// needs no coordinator at all.  A nil transport gets the HTTP claim client.
func newFleetCoordinator(cfg *fleet.Config, transport fleet.Transport) (*fleetCoordinator, error) {
	if cfg == nil {
		return nil, nil
	}
	c := *cfg
	c.Peers = append([]string(nil), cfg.Peers...)
	if err := c.Normalize(); err != nil {
		return nil, err
	}
	if !c.Enabled() {
		return nil, nil
	}
	ring, err := fleet.NewRing(c.Peers)
	if err != nil {
		return nil, err
	}
	var remotes []string
	for _, p := range c.Peers {
		if p != c.Self {
			remotes = append(remotes, p)
		}
	}
	if transport == nil {
		transport = &httpClaimTransport{client: &http.Client{}}
	}
	return &fleetCoordinator{
		cfg:       c,
		ring:      ring,
		health:    fleet.NewTracker(remotes, c.SuspectAfter, c.ProbeInterval),
		transport: transport,
		backoff:   fleet.NewBackoff(c.RetryBase, c.RetryCap, c.JitterSeed),
	}, nil
}

// partition splits a request's claimed seed indices by ring owner: the
// self-owned (plus, trivially, all of them in a healthy single-peer
// degenerate) stay local, the rest group per owning peer.
func (f *fleetCoordinator) partition(keys []store.Key, owned []int) (local []int, remote map[string][]int) {
	for _, i := range owned {
		peer := f.ring.Owner(keys[i][0])
		if peer == f.cfg.Self {
			local = append(local, i)
			continue
		}
		if remote == nil {
			remote = make(map[string][]int)
		}
		remote[peer] = append(remote[peer], i)
	}
	return local, remote
}

// claim resolves claimSeeds on their owning peer: per-RPC deadline, capped
// jittered backoff between attempts (honouring the peer's Retry-After),
// failure-detector bookkeeping on every attempt.  The returned outcomes
// align 1:1 with claimSeeds.  The traceparent derived from traceID rides
// every attempt, so the peer's trace adopts the coordinator's trace ID and
// the cross-peer hop reads as one distributed trace.
func (f *fleetCoordinator) claim(ctx context.Context, peer string, traceID obs.TraceID, scenario, adversary string, claimSeeds []int64) ([]workload.RunOutcome, error) {
	if !f.health.Allow(peer, time.Now()) {
		return nil, errPeerSuspected
	}
	body := MarshalBody(ClaimRequest{Scenario: scenario, Adversary: adversary, Seeds: claimSeeds})
	traceparent := ""
	if !traceID.IsZero() {
		traceparent = obs.Traceparent(traceID, obs.NewSpanID())
	}
	var lastErr error
	for attempt := 0; attempt < f.cfg.Attempts; attempt++ {
		if attempt > 0 {
			f.health.NoteRetry(peer)
			select {
			case <-time.After(f.backoff.DelayAfter(attempt-1, fleet.RetryHint(lastErr))):
			case <-ctx.Done():
				// The request is gone; surface the peer's failure, not the
				// context's — the caller distinguishes them via Retriable.
				return nil, lastErr
			}
		}
		cctx, cancel := context.WithTimeout(ctx, f.cfg.ClaimTimeout)
		payload, err := f.transport.Claim(cctx, peer, traceparent, body)
		cancel()
		var outs []workload.RunOutcome
		if err == nil {
			outs, err = decodeClaimOutcomes(peer, payload, claimSeeds)
		}
		f.health.Report(peer, time.Now(), err)
		if err == nil {
			return outs, nil
		}
		lastErr = err
		if ctx.Err() != nil || !fleet.Retriable(err) {
			break
		}
		if f.health.Suspected(peer) {
			// The detector crossed its threshold mid-claim; stop hammering
			// and let the caller fall back to local compute.
			break
		}
	}
	return nil, lastErr
}

// decodeClaimOutcomes decodes a claim response — a binary sweep-record
// container — and verifies it carries exactly the claimed seeds in order.
// Any mismatch (including a truncated container from a peer killed
// mid-stream) is a claim failure; the coordinator recomputes locally.
func decodeClaimOutcomes(peer string, payload []byte, claimSeeds []int64) ([]workload.RunOutcome, error) {
	rec, err := store.DecodeSweepRecord(payload)
	if err != nil {
		return nil, fmt.Errorf("fleet: peer %s: decode claim response: %w", peer, err)
	}
	if len(rec.Outcomes) != len(claimSeeds) {
		return nil, fmt.Errorf("fleet: peer %s: claim response carries %d outcomes, want %d", peer, len(rec.Outcomes), len(claimSeeds))
	}
	for i, o := range rec.Outcomes {
		if o.Seed != claimSeeds[i] {
			return nil, fmt.Errorf("fleet: peer %s: claim response seed %d is %d, want %d", peer, i, o.Seed, claimSeeds[i])
		}
	}
	return rec.Outcomes, nil
}

// NewHTTPClaimTransport returns the production claim transport (nil client
// means http.DefaultClient semantics).  Exported so tests can wrap it in a
// fleet.FaultTransport and inject faults under the real wire protocol.
func NewHTTPClaimTransport(client *http.Client) fleet.Transport {
	if client == nil {
		client = &http.Client{}
	}
	return &httpClaimTransport{client: client}
}

// httpClaimTransport is the production fleet.Transport: POST the claim to
// the peer's /v1/claim, negotiate the binary container, surface non-200
// statuses as fleet.StatusError (with the Retry-After hint, so backoff
// honours the peer's pushback).  Deadlines ride the per-claim context.
type httpClaimTransport struct {
	client *http.Client
}

func (t *httpClaimTransport) Claim(ctx context.Context, peer, traceparent string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+"/v1/claim", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", ctJSON)
	req.Header.Set("Accept", ctBinary)
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("fleet: peer %s: read claim response: %w", peer, err)
	}
	if resp.StatusCode != http.StatusOK {
		se := &fleet.StatusError{Peer: peer, Status: resp.StatusCode}
		if secs, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil && secs > 0 {
			se.RetryAfter = time.Duration(secs) * time.Second
		}
		var e errorResponse
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			se.Msg = e.Error
		}
		return nil, se
	}
	return raw, nil
}

// registryScenario resolves a scenario (and optional adversary override)
// against the catalog, tagging unknown names 404 — the lookup half that
// Sweep and Claim share.
func registryScenario(name, adversary string) (registry.Scenario, error) {
	sc, err := registry.LookupScenario(name)
	if err != nil {
		return registry.Scenario{}, notFound(err)
	}
	if adversary != "" {
		adv, _, err := registry.Adversary(adversary)
		if err != nil {
			return registry.Scenario{}, notFound(err)
		}
		sc.Spec.Adversary = adv
	}
	return sc, nil
}

// Claim serves one fleet-internal claim: resolve the requested seeds of a
// catalogued scenario strictly locally (corpus → flight table → worker
// fleet; never another claim RPC, so claims cannot recurse across the
// fleet) and encode them as a binary sweep record.  The record's per-seed
// outcomes carry explicit seeds, so an arbitrary non-contiguous claim set
// round-trips exactly.
func (s *scheduler) Claim(ctx context.Context, req ClaimRequest, tr *obs.Trace) (payload []byte, status CacheStatus, err error) {
	s.count(func(st *SchedulerStats) { st.Requests++ })
	defer func() { s.finish(status, err) }()
	sc, err := registryScenario(req.Scenario, req.Adversary)
	if err != nil {
		return nil, CacheMiss, err
	}
	w := &window{
		s: s, ctx: ctx, tr: tr, localOnly: true,
		source: scenarioNamespace + sc.Name, adversary: req.Adversary,
		spec: sc.Spec, eval: sc.Eval, seeds: req.Seeds,
	}
	payload, counts, err := w.sweepRecord(sc, req.Seeds[0])
	if err != nil {
		return nil, CacheMiss, err
	}
	return payload, cacheStatus(counts), nil
}

// handleClaim is the fleet-internal claim endpoint (see admit for what its
// ingress skips).
func (s *Server) handleClaim(w http.ResponseWriter, r *http.Request) {
	var req ClaimRequest
	q, ctx, done := s.admit(w, r, routeClaim, func(url.Values) error {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return err
		}
		return req.normalize()
	})
	if q == nil {
		return
	}
	defer done()
	payload, status, err := s.sched.Claim(ctx, req, q.tr)
	if err != nil {
		q.fail(err)
		return
	}
	q.serveBinary(status, payload)
}

// FleetPeerJSON is one member's row in the /v1/fleet body.  Counters and
// detector state describe this daemon's view of the peer (a fleet has no
// global view — each member runs its own detector, exactly like the
// protocols the daemon simulates).
type FleetPeerJSON struct {
	Peer string `json:"peer"`
	// Self marks this daemon's own row; its counters are always zero (a
	// daemon sends itself no claim RPCs).
	Self bool `json:"self,omitempty"`
	// Shards is how many of the 256 corpus shard prefixes the peer owns.
	Shards int `json:"shards"`
	// State is "self", "healthy" or "suspected".
	State               string  `json:"state"`
	ConsecutiveFailures int     `json:"consecutiveFailures,omitempty"`
	SuspectedForMillis  float64 `json:"suspectedForMillis,omitempty"`
	Requests            uint64  `json:"requests"`
	Failures            uint64  `json:"failures"`
	Retries             uint64  `json:"retries"`
	Hedges              uint64  `json:"hedges"`
	FallbackSeeds       uint64  `json:"fallbackSeeds"`
}

// FleetResponse is the /v1/fleet body: membership, shard assignment and
// per-peer detector state.  Enabled is false (with no peer rows) on a
// single-node daemon.
type FleetResponse struct {
	Enabled     bool            `json:"enabled"`
	Self        string          `json:"self,omitempty"`
	Shards      int             `json:"shards"`
	SeedsRemote uint64          `json:"seedsRemote"`
	Peers       []FleetPeerJSON `json:"peers,omitempty"`
}

func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	resp := FleetResponse{Shards: fleet.NumShards}
	if s.fleet == nil {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	resp.Enabled = true
	resp.Self = s.fleet.cfg.Self
	resp.SeedsRemote = s.sched.Stats().SeedsRemote
	now := time.Now()
	health := make(map[string]fleet.PeerHealth)
	for _, ph := range s.fleet.health.Snapshot() {
		health[ph.Peer] = ph
	}
	for _, peer := range s.fleet.ring.Peers() {
		row := FleetPeerJSON{Peer: peer, Shards: s.fleet.ring.ShardCount(peer), State: fleet.StateHealthy}
		if peer == s.fleet.cfg.Self {
			row.Self = true
			row.State = "self"
		} else if ph, ok := health[peer]; ok {
			row.State = ph.State
			row.ConsecutiveFailures = ph.ConsecutiveFailures
			if !ph.SuspectedSince.IsZero() {
				row.SuspectedForMillis = millis(now.Sub(ph.SuspectedSince))
			}
			row.Requests, row.Failures = ph.Requests, ph.Failures
			row.Retries, row.Hedges, row.FallbackSeeds = ph.Retries, ph.Hedges, ph.FallbackSeeds
		}
		resp.Peers = append(resp.Peers, row)
	}
	writeJSON(w, http.StatusOK, resp)
}
