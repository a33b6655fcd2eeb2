package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/workload"
)

// CacheStatus is the X-Cache value of a response: how much of it came from
// the run corpus.
type CacheStatus string

const (
	// CacheHit means nothing was computed: the whole response came from the
	// store (a request-level record, or every per-seed record).
	CacheHit CacheStatus = "hit"
	// CachePartial means the response was assembled from cached per-seed
	// records plus freshly computed ones (or, for extractions, the pipeline
	// extended a cached index state).
	CachePartial CacheStatus = "partial"
	// CacheMiss means nothing usable was cached.
	CacheMiss CacheStatus = "miss"
)

// SourceStats is one sweep scenario's observed seed traffic since the server
// started: how many of its seeds were served from the corpus, computed here,
// or joined from concurrent requests, and the extent of the seed windows
// requested.  Source is the namespaced catalog name ("scenario:...").
// Per-seed corpus records do not carry their source name (keys are digests),
// so these are live traffic counters, not a disk census.
type SourceStats struct {
	Source         string `json:"source"`
	Adversary      string `json:"adversary,omitempty"`
	SeedsCached    uint64 `json:"seedsCached"`
	SeedsComputed  uint64 `json:"seedsComputed"`
	SeedsCoalesced uint64 `json:"seedsCoalesced"`
	SeedsRemote    uint64 `json:"seedsRemote"`
	MinSeed        int64  `json:"minSeed"`
	MaxSeed        int64  `json:"maxSeed"`
}

// SchedulerStats counts the scheduler's traffic.  All counters are cumulative
// since the server started, and FullHits + PartialHits + Misses + Errors =
// Requests.
type SchedulerStats struct {
	// Requests counts sweep/extract requests that reached the scheduler
	// (including ones whose catalog lookup then failed, which also count as
	// Errors).
	Requests uint64 `json:"requests"`
	// FullHits, PartialHits and Misses classify served requests by how much
	// of the response came from the corpus: everything, something, nothing.
	FullHits    uint64 `json:"fullHits"`
	PartialHits uint64 `json:"partialHits"`
	Misses      uint64 `json:"misses"`
	// Coalesced counts requests that computed nothing themselves because
	// every seed (or the whole extraction) was already being computed by
	// concurrent requests they joined.
	Coalesced uint64 `json:"coalesced"`
	// SeedsRequested, SeedsCached, SeedsComputed and SeedsCoalesced are the
	// seed-granular traffic: seeds resolved per request, seeds served from
	// the corpus, seeds this server actually simulated, and seeds joined
	// from concurrent requests' in-flight computations.
	SeedsRequested uint64 `json:"seedsRequested"`
	SeedsCached    uint64 `json:"seedsCached"`
	SeedsComputed  uint64 `json:"seedsComputed"`
	SeedsCoalesced uint64 `json:"seedsCoalesced"`
	// SeedsRemote counts seeds resolved by fleet peers' claim RPCs.  In
	// fleet mode SeedsCached + SeedsComputed + SeedsCoalesced + SeedsRemote
	// = SeedsRequested; seeds whose remote claim failed or was hedged into
	// a local recompute land in SeedsComputed (they were simulated here).
	SeedsRemote uint64 `json:"seedsRemote"`
	// Computed counts jobs executed on the worker fleet: missing-seed
	// simulation passes and extraction pipelines.
	Computed uint64 `json:"computed"`
	// Errors counts requests that failed (unknown names, compute errors,
	// admission rejections).
	Errors uint64 `json:"errors"`
	// Shed counts requests the queue-depth admission gate rejected with 429
	// instead of queueing; sheds are a subset of Errors.
	Shed uint64 `json:"shed"`
	// PutErrors counts computed payloads (request records or per-seed
	// records) that could not be persisted; the results are still served
	// (caching is an optimisation, not a correctness requirement), so
	// PutErrors > 0 with Errors = 0 means a degraded store, not failing
	// requests.
	PutErrors uint64 `json:"putErrors"`
	// Batches and BatchedTasks both count fleet passes, exactly as Computed
	// does: every pass carries one job.  They are kept only because udcbench
	// reads them for server.tasks_per_batch, and go with that metric in the
	// next benchmark PR.
	Batches      uint64 `json:"batches"`
	BatchedTasks uint64 `json:"batchedTasks"`
	// IndexReuses counts extraction requests whose epistemic index was
	// extended from a cached state instead of rebuilt, and IndexedRunsReused
	// the already-indexed source runs those reuses skipped re-filtering and
	// re-indexing.
	IndexReuses       uint64 `json:"indexReuses"`
	IndexedRunsReused uint64 `json:"indexedRunsReused"`
}

// httpError carries the HTTP status an error should surface as (and, for
// admission rejections, a Retry-After hint).  Errors without one are internal
// (500).
type httpError struct {
	status     int
	retryAfter time.Duration
	err        error
}

func (e *httpError) Error() string { return e.err.Error() }
func (e *httpError) Unwrap() error { return e.err }

// notFound marks an unknown catalog name (404).
func notFound(err error) error { return &httpError{status: http.StatusNotFound, err: err} }

// badRequest marks a malformed request (400).
func badRequest(err error) error { return &httpError{status: http.StatusBadRequest, err: err} }

// overloaded marks a request shed by admission control: 429 plus a
// Retry-After hint for the client's backoff.
func overloaded(err error, retryAfter time.Duration) error {
	return &httpError{status: http.StatusTooManyRequests, retryAfter: retryAfter, err: err}
}

// abandoned wraps a request context's termination: the client went away (or
// its deadline fired) before the computation finished.
func abandoned(ctx context.Context) error {
	return &httpError{status: http.StatusServiceUnavailable, err: fmt.Errorf("server: request abandoned: %w", ctx.Err())}
}

// ownerLocal reports whether a failed seed computation's error is local to
// the request that owned the claim rather than to the computation itself: an
// admission shed (the owner's fleet job drew the 429) or an abandonment (the
// owner's client went away).  Neither says anything about a request that
// merely joined the claim, so joiners re-claim and recompute such seeds.
func ownerLocal(err error) bool {
	switch statusOf(err) {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return true
	}
	return false
}

// coalesceUpstream re-tags an owner-local failure that outlived a joiner's
// re-claim budget: the joiner is answered with a retryable 503 — retryable
// because the seeds are computable, 503 because the failure happened upstream
// — instead of inheriting a 429 or abandonment status its own client never
// earned.
func coalesceUpstream(err error) error {
	return &httpError{
		status:     http.StatusServiceUnavailable,
		retryAfter: time.Second,
		err:        fmt.Errorf("server: coalesced seed computation failed upstream: %w", err),
	}
}

// statusOf maps an error to its response status: a tagged status if one is
// attached, 500 otherwise.
func statusOf(err error) int {
	var he *httpError
	if errors.As(err, &he) {
		return he.status
	}
	return http.StatusInternalServerError
}

// retryAfterOf returns the Retry-After hint attached to an error, or zero.
func retryAfterOf(err error) time.Duration {
	var he *httpError
	if errors.As(err, &he) {
		return he.retryAfter
	}
	return 0
}

// scenarioNamespace prefixes a sweep scenario's name in its per-seed corpus
// keys.  Corpora written by older daemons also hold run-carrying seed records
// under "extraction:" keys; nothing reads them any more.
const scenarioNamespace = "scenario:"

// SweepSeedKey returns the per-seed corpus key a sweep of the named
// catalogued scenario uses for one seed — exported so tests and store
// tooling can locate individual seed records.
func SweepSeedKey(scenario, adversary string, seed int64) store.Key {
	return store.SeedKeySpec(scenarioNamespace+scenario, adversary, seed).Key()
}

// call is one in-flight request-level computation (extractions); duplicates
// wait on done.  owner is the claiming request's trace ID (zero when untraced),
// immutable after creation, so joiners link their traces to it without
// synchronisation.
type call struct {
	done    chan struct{}
	owner   obs.TraceID
	payload []byte
	status  CacheStatus
	err     error
}

// seedCall is one in-flight per-seed computation.  Concurrent requests whose
// windows overlap the owning request's missing seeds wait on done instead of
// re-simulating.  owner is the claiming request's trace ID (zero when
// untraced), immutable after creation.
type seedCall struct {
	done    chan struct{}
	owner   obs.TraceID
	outcome workload.RunOutcome
	err     error
}

// maxClaimPasses bounds window.resolve's claim/join passes: the first pass plus
// re-claims of seeds whose joined owner failed with an owner-local error
// (shed or abandoned) that says nothing about this request.
const maxClaimPasses = 3

// scheduler turns validated requests into store payloads.  Every sweep or
// claim resolves into (cached seeds ∪ missing seeds): the cached side is
// served from per-seed corpus records, the missing side is claimed in a
// seed-level flight table — so concurrent overlapping requests each compute
// only the seeds nobody else is computing — and computed by the claiming
// request itself in one worker-fleet pass, one pass at a time (runPass).
// Responses assemble from the union, byte-identical to a direct serial
// computation.  An extraction miss is one pass of its own (extractMiss).
type scheduler struct {
	store  *store.Store
	runner workload.Runner
	// maxQueue is the queue-depth admission gate: when positive, a fleet job
	// that would raise pending past it is shed with 429 instead of queued
	// (cache hits still serve — the gate guards compute, not reads).  Zero
	// disables the gate; negative admits nothing (drain mode).
	maxQueue int

	// fleet is the peer coordinator in fleet mode, nil on a single node.
	// Set once at assembly, before any request, and never mutated, so the
	// resolve path reads it without locking.
	fleet *fleetCoordinator

	mu         sync.Mutex
	inflight   map[store.Key]*call
	seedflight map[store.Key]*seedCall
	// sources holds the per-source seed traffic counters behind /v1/corpus,
	// keyed by qualified name + NUL + adversary.  Guarded by mu.
	sources map[string]*SourceStats
	// exstates caches extraction index states by pipeline identity (name,
	// adversary, base seed — not window size), so a request whose seed window
	// extends a previously served one feeds only the delta to System.Add.
	// States are claimed (removed) under mu for the duration of a pipeline
	// and re-inserted afterwards, so ownership is exclusive even though the
	// pipeline runs outside the lock.
	exstates map[store.Key]*workload.ExtractionState
	// stats is guarded by mu.  Every mutation — count(), finish(), and the
	// few direct s.stats.X++ increments in account() and Extract() — must
	// hold mu; the direct increments are legal only because their enclosing
	// blocks already own the lock, and each is annotated at the site.  The
	// race test TestConcurrentExtractCoalescedAccounting exercises the
	// direct-increment paths under -race.
	stats SchedulerStats

	// pending counts fleet jobs waiting for the pass token or running under
	// it — the queue depth an admission controller (and the /metrics gauge)
	// watches.
	pending atomic.Int64

	// pass is the one-token channel a fleet job holds while it runs, so at
	// most one fleet pass is ever active: each pass already spreads over
	// every worker, and slot-indexed distribution makes its results identical
	// to a dedicated serial computation.  quit fails the jobs still waiting
	// for the token once the server is closed.
	pass chan struct{}
	quit chan struct{}
}

func newScheduler(st *store.Store, workers, maxQueue int) *scheduler {
	return &scheduler{
		store:      st,
		runner:     workload.Runner{Workers: workers},
		maxQueue:   maxQueue,
		inflight:   make(map[store.Key]*call),
		seedflight: make(map[store.Key]*seedCall),
		sources:    make(map[string]*SourceStats),
		exstates:   make(map[store.Key]*workload.ExtractionState),
		pass:       make(chan struct{}, 1),
		quit:       make(chan struct{}),
	}
}

// maxExtractionStates bounds the index-state cache; each state retains its
// window's kept runs and epistemic index, so the cache trades bounded memory
// for O(delta) window growth on the pipelines it holds.
const maxExtractionStates = 16

// claimExtractionState removes and returns the cached index state for the
// pipeline identity, or a fresh empty state.  A claimed state is exclusively
// owned until releaseExtractionState puts it back.
func (s *scheduler) claimExtractionState(id store.Key) *workload.ExtractionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.exstates[id]; ok {
		delete(s.exstates, id)
		return st
	}
	return &workload.ExtractionState{}
}

// releaseExtractionState returns a claimed state to the cache.  A concurrent
// claimant may have rebuilt a state for the same identity; the one covering
// more seeds wins.  The cache is size-bounded; states that do not fit are
// dropped (reuse is an optimisation, never a correctness requirement).
func (s *scheduler) releaseExtractionState(id store.Key, st *workload.ExtractionState) {
	if st == nil || st.Indexed == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.exstates[id]; ok {
		if prev.Indexed >= st.Indexed {
			return
		}
	} else if len(s.exstates) >= maxExtractionStates {
		return
	}
	s.exstates[id] = st
}

// runPass runs one fleet job — a missing-seed simulation pass or an
// extraction pipeline — on the calling request's goroutine, under the
// pass token.  pending brackets the wait and the run, so the queue-depth gauge
// sees jobs from the moment they contend for the token until they finish — and
// so the admission gate reads the same signal /metrics exposes.  The wait
// honours the request context and the server's Close; once the token is held
// the job is bounded, so it runs to completion.
func (s *scheduler) runPass(ctx context.Context, job func() error) error {
	n := s.pending.Add(1)
	defer s.pending.Add(-1)
	if s.maxQueue != 0 && (s.maxQueue < 0 || n > int64(s.maxQueue)) {
		return overloaded(fmt.Errorf("server: compute queue full (%d pending, limit %d)", n-1, s.maxQueue), time.Second)
	}
	select {
	case s.pass <- struct{}{}:
	case <-ctx.Done():
		return abandoned(ctx)
	case <-s.quit:
		return fmt.Errorf("server: scheduler shut down")
	}
	err := job()
	<-s.pass
	s.count(func(st *SchedulerStats) { st.Computed++; st.Batches++; st.BatchedTasks++ })
	return err
}

// gauges samples the scheduler's live occupancy for the /metrics endpoint:
// fleet jobs waiting or running, and seeds currently claimed in
// the seed-level flight table.
func (s *scheduler) gauges() (queueDepth, inflightSeeds int64) {
	queueDepth = s.pending.Load()
	s.mu.Lock()
	inflightSeeds = int64(len(s.seedflight))
	s.mu.Unlock()
	return queueDepth, inflightSeeds
}

func (s *scheduler) count(f func(*SchedulerStats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// finish records a request's final accounting: its error, or its cache
// classification.
func (s *scheduler) finish(status CacheStatus, err error) {
	s.count(func(st *SchedulerStats) {
		if err != nil {
			st.Errors++
			if statusOf(err) == http.StatusTooManyRequests {
				st.Shed++
			}
			return
		}
		switch status {
		case CacheHit:
			st.FullHits++
		case CachePartial:
			st.PartialHits++
		default:
			st.Misses++
		}
	})
}

// Stats returns a snapshot of the scheduler's counters.
func (s *scheduler) Stats() SchedulerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// SourcesSnapshot returns the per-source seed counters, sorted by source then
// adversary, for /v1/corpus.
func (s *scheduler) SourcesSnapshot() []SourceStats {
	s.mu.Lock()
	out := make([]SourceStats, 0, len(s.sources))
	for _, c := range s.sources {
		out = append(out, *c)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Source != out[j].Source {
			return out[i].Source < out[j].Source
		}
		return out[i].Adversary < out[j].Adversary
	})
	return out
}

// Sweep serves one validated sweep request, returning the encoded record and
// how much of it came from the corpus.  tr (nil-safe) collects per-stage
// timings for the Server-Timing header and ?debug=timing traces.  A non-nil
// emit observes every per-seed outcome as the flight table resolves it (see
// window); on the window-record fast path the stored record is decoded and
// replayed through emit, so streamed responses carry the same record set
// whatever the cache grade.  ctx bounds the request's compute.
func (s *scheduler) Sweep(ctx context.Context, req SweepRequest, tr *obs.Trace, emit func(workload.RunOutcome)) (payload []byte, status CacheStatus, err error) {
	s.count(func(st *SchedulerStats) { st.Requests++ })
	defer func() { s.finish(status, err) }()
	sc, err := registryScenario(req.Scenario, req.Adversary)
	if err != nil {
		return nil, CacheMiss, err
	}

	// Request-level fast path: an identical window was served before, so its
	// assembled record is already in the corpus (uncounted probe — a miss
	// here is accounted at seed granularity below).
	probeSpan := tr.Span("resolve")
	key := req.keySpec().Key()
	payload, probed := s.store.Probe(key)
	probeSpan.End()
	if probed {
		if emit != nil {
			if rec, derr := store.DecodeSweepRecord(payload); derr == nil {
				for _, o := range rec.Outcomes {
					emit(o)
				}
			}
		}
		tr.AddSeeds(obs.SeedCounts{Requested: req.Seeds, Cached: req.Seeds})
		return payload, CacheHit, nil
	}

	w := &window{
		s: s, ctx: ctx, tr: tr, emit: emit,
		source: scenarioNamespace + sc.Name, adversary: req.Adversary,
		spec: sc.Spec, eval: sc.Eval, seeds: workload.Seeds(req.SeedBase, req.Seeds),
	}
	payload, counts, err := w.sweepRecord(sc, req.SeedBase)
	if err != nil {
		return nil, CacheMiss, err
	}
	// Persist the assembled window unless this request was fully coalesced —
	// its seeds are being written by their owners, so a repeat resolves as a
	// pure per-seed assembly and persists then.  Pure assemblies do persist,
	// so a repeatedly requested subset graduates to the window-record fast
	// path instead of re-assembling forever.
	if counts.Computed > 0 || counts.Remote > 0 || counts.Coalesced == 0 {
		persistSpan := tr.Span("persist")
		if perr := s.store.Put(key, payload); perr != nil {
			s.count(func(st *SchedulerStats) { st.PutErrors++ })
		}
		persistSpan.End()
	}
	return payload, cacheStatus(counts), nil
}

// Extract serves one validated extract request, returning the encoded record
// and how much of it came from the corpus.  The whole-pipeline record is the
// request-level cache; on a miss, extractMiss simulates only the source seeds
// the pipeline's cached index state does not cover.  tr (nil-safe) collects
// per-stage timings for the Server-Timing header and ?debug=timing traces.
// ctx bounds the request's compute; the pipeline is one indivisible
// computation, so there is no per-seed emit here — streamed extraction
// responses replay the decoded record instead.
func (s *scheduler) Extract(ctx context.Context, req ExtractRequest, tr *obs.Trace) (payload []byte, status CacheStatus, err error) {
	s.count(func(st *SchedulerStats) { st.Requests++ })
	defer func() { s.finish(status, err) }()
	sc, err := registry.LookupExtraction(req.Extraction)
	if err != nil {
		return nil, CacheMiss, notFound(err)
	}
	ext := &sc.Extraction
	if req.Adversary != "" {
		adv, _, err := registry.Adversary(req.Adversary)
		if err != nil {
			return nil, CacheMiss, notFound(err)
		}
		ext.Source.Adversary = adv
	}
	if req.Runs > 0 {
		ext.Runs = req.Runs
	}
	if req.SeedBase != 0 {
		ext.BaseSeed = req.SeedBase
	}

	key := store.KeySpec{Kind: "extract", Name: req.Extraction, Adversary: req.Adversary, SeedBase: ext.BaseSeed, Count: ext.Runs}.Key()
	probeSpan := tr.Span("resolve")
	payload, probed := s.store.Probe(key)
	probeSpan.End()
	if probed {
		tr.AddSeeds(obs.SeedCounts{Requested: ext.Runs, Cached: ext.Runs})
		return payload, CacheHit, nil
	}

	// Identical concurrent extractions coalesce at request level: the
	// pipeline is one indivisible computation, so there is nothing finer to
	// share.
	claimSpan := tr.Span("claim")
	s.mu.Lock()
	if c, ok := s.inflight[key]; ok {
		// Direct stats increment: legal because this block owns mu (taken
		// two lines up, released below before the wait).
		s.stats.Coalesced++
		s.mu.Unlock()
		claimSpan.End()
		// Span link: whatever the wait's outcome, this response is the owning
		// request's work.
		tr.Link(c.owner)
		tr.AddSeeds(obs.SeedCounts{Requested: ext.Runs, Coalesced: ext.Runs})
		// The wait is compute time: the owning request's pipeline is
		// producing this response.
		waitSpan := tr.Span("compute")
		defer waitSpan.End()
		select {
		case <-c.done:
			return c.payload, c.status, c.err
		case <-ctx.Done():
			return nil, CacheMiss, abandoned(ctx)
		}
	}
	c := &call{done: make(chan struct{}), owner: tr.TraceIDOrZero()}
	s.inflight[key] = c
	s.mu.Unlock()
	claimSpan.End()

	reprobeSpan := tr.Span("resolve")
	stored, restored := s.store.Probe(key)
	reprobeSpan.End()
	if restored {
		c.payload, c.status = stored, CacheHit
	} else {
		c.payload, c.status, c.err = s.extractMiss(ctx, req, sc, tr)
		if c.err == nil {
			persistSpan := tr.Span("persist")
			if perr := s.store.Put(key, c.payload); perr != nil {
				s.count(func(st *SchedulerStats) { st.PutErrors++ })
			}
			persistSpan.End()
		}
	}

	s.mu.Lock()
	delete(s.inflight, key)
	s.mu.Unlock()
	close(c.done)
	return c.payload, c.status, c.err
}

// extractMiss computes an extraction nobody has stored, as one fleet pass.
// sc.Extraction carries the request's adversary, window and base seed.
//
// The pipeline's index state is cached by identity (window size excluded): a
// window that extends a previously served one simulates only the uncovered
// tail seeds and feeds them to System.Add.  A window smaller than the cached
// prefix rebuilds from scratch — knowledge is relative to the whole system,
// so a smaller window needs its own index — and the larger state returns to
// the cache.  Source runs are never stored: re-simulating one costs about
// what decoding a stored one would.
func (s *scheduler) extractMiss(ctx context.Context, req ExtractRequest, sc registry.ExtractionScenario, tr *obs.Trace) ([]byte, CacheStatus, error) {
	ext := &sc.Extraction
	stateID := store.KeySpec{Kind: "exstate", Name: req.Extraction, Adversary: req.Adversary, SeedBase: ext.BaseSeed}.Key()
	exState := s.claimExtractionState(stateID)
	if exState.Indexed > ext.Runs {
		s.releaseExtractionState(stateID, exState)
		exState = &workload.ExtractionState{}
	}
	// The state stays coherent even when the pipeline errors, so it is always
	// worth returning to the cache.
	defer s.releaseExtractionState(stateID, exState)
	reused := exState.Indexed

	var result *workload.ExtractionResult
	computeSpan := tr.Span("compute")
	err := s.runPass(ctx, func() (err error) {
		result, err = s.runner.ExtendExtraction(*ext, exState)
		return err
	})
	computeSpan.End()
	// The seeds the state advanced over were simulated here, even if the
	// pipeline failed after indexing them.
	simulated := exState.Indexed - reused
	tr.AddSeeds(obs.SeedCounts{Requested: simulated, Computed: simulated})
	s.count(func(st *SchedulerStats) {
		st.SeedsRequested += uint64(simulated)
		st.SeedsComputed += uint64(simulated)
		if err == nil && reused > 0 {
			st.IndexReuses++
			st.IndexedRunsReused += uint64(reused)
		}
	})
	if err != nil {
		return nil, CacheMiss, err
	}
	encodeSpan := tr.Span("assemble")
	defer encodeSpan.End()
	payload := store.EncodeExtractionRecord(store.NewExtractionRecord(req.Adversary, sc.Stress, result))
	// The pipeline always runs on a request-level miss, so a reused index
	// prefix makes the response partial, never a hit.
	if reused > 0 {
		return payload, CachePartial, nil
	}
	return payload, CacheMiss, nil
}
