// Package server is the serving layer on top of the run-corpus store: a
// long-running HTTP JSON API that answers sweep and knowledge-extraction
// requests for the catalogued scenarios.  Every request resolves at seed
// granularity into (cached seeds ∪ missing seeds): cached seeds decode from
// per-seed corpus records, missing seeds are claimed in a seed-level flight
// table — so concurrent overlapping requests share work instead of
// duplicating it — and computed by the request that claimed them, in one pass
// of the shared worker fleet at a time.  Responses assemble from the union
// (X-Cache: hit | partial | miss).  Extraction pipelines cache whole
// responses and their index state, never source runs: a miss simulates the
// seeds its cached index does not cover.  Every response is byte-identical
// to a direct serial workload.Sweep / Runner.Extract call.  window.go holds
// that resolution (one slot-indexed window value per request, its stages as
// methods); request.go holds the shared ingress (admit) and the per-request
// value that every response is stamped, counted and traced through.
//
// Endpoints:
//
//	GET  /healthz                    liveness probe (always 200 while the process serves)
//	GET  /readyz                     readiness probe (503 once draining begins)
//	GET|POST /v1/sweep               sweep a catalogued scenario
//	GET|POST /v1/extract             run a catalogued extraction pipeline
//	POST /v1/claim                   fleet-internal: compute a peer's claimed seeds
//	GET  /v1/fleet                   fleet membership, shard ownership and peer health
//	GET  /v1/scenarios               the scenario + extraction catalogs
//	GET  /v1/adversaries             the adversary catalog
//	GET  /v1/stats                   store + scheduler counters
//	GET  /v1/corpus                  corpus census: shard occupancy + per-source seeds
//	GET  /metrics                    Prometheus text exposition
//	GET  /debug/traces               the trace log (route/min_ms/cache/errors/limit filters)
//	GET  /debug/traces/<id>          one trace's stage + seed + span-link detail
//	GET  /debug/pprof/*              runtime profiles (Config.Pprof only)
//
// Every response to /v1/sweep and /v1/extract carries a Server-Timing header
// with the scheduler's stage breakdown (resolve, claim, compute, assemble,
// persist) and an X-Trace-Id header naming its trace: parsed from the
// client's W3C `traceparent` header or minted at ingress, recorded in a
// fixed-capacity tail-sampling trace log (slow and errored traces always
// retained) served by /debug/traces, with span links to the flight-table
// owners whose in-flight work the request joined.  `?debug=timing` wraps the
// body in a JSON trace envelope whose inner `response` bytes are the
// unchanged normal body.  Observability lives in headers, logs and opt-in
// envelopes only, never in default bodies, so every byte-identity guarantee
// above survives it.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/store"
)

// Config assembles a Server.
type Config struct {
	// Store is the run-corpus store backing the cache.  Nil means a fresh
	// memory-only store.
	Store *store.Store
	// Workers is the worker-fleet size (0 = GOMAXPROCS), shared by all
	// computations.
	Workers int
	// Pprof mounts net/http/pprof's profiling handlers under /debug/pprof/.
	// Off by default: profiles expose internals, so the operator opts in.
	Pprof bool
	// SlowRequest is the latency above which a served request is logged with
	// its stage trace, and above which its trace is always retained by the
	// trace log (0 disables slow-request logging and slow retention).
	SlowRequest time.Duration
	// Logger receives structured request logs (slow requests, keyed by trace
	// ID); nil means slog.Default().
	Logger *slog.Logger
	// TraceCapacity sizes the trace log: up to TraceCapacity tail-sampled
	// normal traces plus as many retained slow/errored ones (0 means
	// obs.DefaultTraceCapacity).
	TraceCapacity int
	// RateLimit is the per-client admission rate (requests/second, keyed by
	// remote IP) on the corpus-backed routes; excess requests are shed with
	// 429 + Retry-After.  0 disables rate limiting.
	RateLimit float64
	// RateBurst is the per-client burst allowance (0 means 2×RateLimit).
	RateBurst int
	// MaxQueue is the queue-depth admission gate: a request whose compute
	// would raise the scheduler's pending-jobs gauge past it is shed with
	// 429 + Retry-After instead of queued (cache hits still serve).  0
	// disables the gate; negative admits no compute at all (drain mode).
	MaxQueue int
	// RequestTimeout bounds each sweep/extract request's compute via its
	// context; an expired request releases its seed claims.  0 means no
	// server-side deadline (the client's disconnect still cancels).
	RequestTimeout time.Duration
	// Fleet configures fleet mode: sharded seed ownership across peers with
	// failure detection and degraded-mode fallback.  Nil or single-peer
	// means single-node operation (every seed is computed locally).
	Fleet *fleet.Config
	// FleetTransport overrides the claim RPC transport (tests inject fault
	// layers here).  Nil means plain HTTP against each peer's /v1/claim.
	FleetTransport fleet.Transport
}

// Server is the daemon: an http.Handler plus the scheduler and store behind
// it.
type Server struct {
	store      *store.Store
	sched      *scheduler
	mux        *http.ServeMux
	metrics    *serverMetrics
	limiter    *rateLimiter
	traces     *obs.TraceLog
	reqTimeout time.Duration
	slow       time.Duration
	logger     *slog.Logger
	fleet      *fleetCoordinator

	// draining flips once at shutdown: corpus-backed routes stop admitting
	// (503 + Retry-After) while in-flight requests — counted by active —
	// finish.  /healthz stays 200 (the process is alive and draining);
	// /readyz turns 503 so load balancers stop routing new work here.
	draining atomic.Bool
	active   atomic.Int64
}

// New assembles a server from the config.
func New(cfg Config) (*Server, error) {
	st := cfg.Store
	if st == nil {
		var err error
		if st, err = store.Open("", store.Options{}); err != nil {
			return nil, err
		}
	}
	s := &Server{
		store:      st,
		sched:      newScheduler(st, cfg.Workers, cfg.MaxQueue),
		mux:        http.NewServeMux(),
		traces:     obs.NewTraceLog(cfg.TraceCapacity, cfg.SlowRequest),
		reqTimeout: cfg.RequestTimeout,
		slow:       cfg.SlowRequest,
		logger:     cfg.Logger,
	}
	if cfg.RateLimit > 0 {
		s.limiter = newRateLimiter(cfg.RateLimit, cfg.RateBurst)
	}
	if s.logger == nil {
		s.logger = slog.Default()
	}
	fc, err := newFleetCoordinator(cfg.Fleet, cfg.FleetTransport)
	if err != nil {
		return nil, err
	}
	s.fleet = fc
	s.sched.fleet = fc
	s.metrics = newServerMetrics(s.sched, st, s.traces, fc, time.Now())
	s.mux.HandleFunc("/healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.HandleFunc("/readyz", s.instrument("/readyz", s.handleReadyz))
	s.mux.HandleFunc(routeClaim, s.instrument(routeClaim, s.handleClaim))
	s.mux.HandleFunc("/v1/fleet", s.instrument("/v1/fleet", s.handleFleet))
	s.mux.HandleFunc(routeSweep, s.instrument(routeSweep, s.handleSweep))
	s.mux.HandleFunc(routeExtract, s.instrument(routeExtract, s.handleExtract))
	s.mux.HandleFunc("/v1/scenarios", s.instrument("/v1/scenarios", s.handleScenarios))
	s.mux.HandleFunc("/v1/adversaries", s.instrument("/v1/adversaries", s.handleAdversaries))
	s.mux.HandleFunc("/v1/stats", s.instrument("/v1/stats", s.handleStats))
	s.mux.HandleFunc("/v1/corpus", s.instrument("/v1/corpus", s.handleCorpus))
	s.mux.HandleFunc("/debug/traces", s.instrument("/debug/traces", s.handleTraces))
	s.mux.HandleFunc("/debug/traces/", s.instrument("/debug/traces", s.handleTraceByID))
	// /metrics is deliberately uninstrumented: scraping must not perturb the
	// exposed numbers, and idle scrapes must stay byte-identical.
	s.mux.HandleFunc("/metrics", s.metrics.handleMetrics)
	if cfg.Pprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// statusRecorder captures the response status code for the per-route
// counters.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the connection's Flush, which
// embedding the interface hides — streamed records depend on it.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// instrument wraps a route with the live HTTP metrics: one requests_total
// increment per finished request (labeled by status code) and one latency
// observation (labeled by cache grade — the X-Cache value for corpus-backed
// routes, "none" for plain ones, "error" for failures).
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		h(rec, r)
		elapsed := time.Since(start)
		grade := rec.Header().Get("X-Cache")
		if grade == "" {
			if rec.code >= 400 {
				grade = "error"
			} else {
				grade = "none"
			}
		}
		s.metrics.httpRequests.With(route, strconv.Itoa(rec.code)).Inc()
		s.metrics.httpDuration.With(route, grade).Observe(elapsed.Seconds())
	}
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Store returns the backing store (for stats and tests).
func (s *Server) Store() *store.Store { return s.store }

// SchedulerStats returns a snapshot of the scheduler's counters.
func (s *Server) SchedulerStats() SchedulerStats { return s.sched.Stats() }

// Close fails the fleet jobs still waiting for the pass token; the one running
// completes, as does everything served from the corpus.  Call it once.
func (s *Server) Close() { close(s.sched.quit) }

// BeginDrain flips the server into drain mode: /readyz turns 503, corpus
// routes stop admitting new work (503 + Retry-After), and in-flight requests
// (streams included) run to completion.  Idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// ActiveRequests returns how many corpus-route requests (sweep, extract,
// claim — streams included) are currently in flight.
func (s *Server) ActiveRequests() int64 { return s.active.Load() }

// Drain waits for in-flight corpus requests to finish, polling until the
// count reaches zero or ctx expires.  Call BeginDrain first so the count
// cannot grow.  Returns nil on a clean drain, ctx.Err() on timeout.
func (s *Server) Drain(ctx context.Context) error {
	for {
		if s.active.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// admitDrain rejects new corpus-route work while the server drains.  The
// rejection is a retryable 503 — a restarting peer or load balancer should
// try another replica (or this one, shortly, after the restart).
func (s *Server) admitDrain() error {
	if s.draining.Load() {
		return &httpError{
			status:     http.StatusServiceUnavailable,
			retryAfter: time.Second,
			err:        errors.New("server: draining, not admitting new work"),
		}
	}
	return nil
}

// writeJSON writes a response body through MarshalBody, the same rendering
// the golden tests and remote clients use.  It returns the body size for the
// wire accounting.
func writeJSON(w http.ResponseWriter, status int, v any) int {
	return writeBody(w, status, MarshalBody(v))
}

// writeBody writes an already rendered JSON body and returns its size.
func writeBody(w http.ResponseWriter, status int, body []byte) int {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
	return len(body)
}

// writeError maps an error to a JSON error body using its tagged HTTP
// status: 404 for unknown catalog names, 400 for malformed requests, 429
// (plus a Retry-After header) for admission sheds, and 500 for anything
// untagged (internal failures must not masquerade as client errors).  Error
// envelopes are always JSON whatever format the request negotiated — an
// error body is for the human or the retry loop, not the codec.
func writeError(w http.ResponseWriter, err error) {
	if ra := retryAfterOf(err); ra > 0 {
		secs := int(ra / time.Second)
		if ra%time.Second != 0 {
			secs++
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, statusOf(err), errorResponse{Error: err.Error()})
}

// requestContext derives a request's compute context: the client connection's
// own context (cancelled on disconnect, so abandoned requests release their
// seed claims) plus the configured server-side deadline.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.reqTimeout > 0 {
		return context.WithTimeout(r.Context(), s.reqTimeout)
	}
	return r.Context(), func() {}
}

// param names a request field and where decodeRequest stores it: a *string,
// *int or *int64.
type param struct {
	name string
	dst  any
}

// decodeRequest fills params, in order, from the parsed query (GET) or the
// JSON body (POST); admit has rejected every other method.  Query parameters
// use the JSON field names.
func decodeRequest(r *http.Request, query url.Values, params []param) error {
	switch r.Method {
	case http.MethodGet:
		for _, f := range params {
			raw := query.Get(f.name)
			if raw == "" {
				continue
			}
			switch p := f.dst.(type) {
			case *string:
				*p = raw
			case *int:
				v, err := strconv.Atoi(raw)
				if err != nil {
					return fmt.Errorf("parameter %s: %w", f.name, err)
				}
				*p = v
			case *int64:
				v, err := strconv.ParseInt(raw, 10, 64)
				if err != nil {
					return fmt.Errorf("parameter %s: %w", f.name, err)
				}
				*p = v
			}
		}
	default:
		target := make(map[string]json.RawMessage)
		if err := json.NewDecoder(r.Body).Decode(&target); err != nil {
			return fmt.Errorf("decode request body: %w", err)
		}
		for _, f := range params {
			raw, ok := target[f.name]
			if !ok {
				continue
			}
			if err := json.Unmarshal(raw, f.dst); err != nil {
				return fmt.Errorf("field %s: %w", f.name, err)
			}
		}
	}
	return nil
}

// HealthResponse is the /healthz and /readyz body.
type HealthResponse struct {
	Status string `json:"status"`
	Ready  bool   `json:"ready"`
}

// handleHealthz is liveness: 200 as long as the process serves, draining
// included — killing a draining process would defeat the drain.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Ready: !s.draining.Load()})
}

// handleReadyz is readiness: 503 once draining begins, so load balancers and
// fleet peers stop routing new work to a departing replica.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, HealthResponse{Status: "draining", Ready: false})
		return
	}
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok", Ready: true})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	q, ctx, done := s.admit(w, r, routeSweep, func(query url.Values) error {
		if err := decodeRequest(r, query, []param{
			{"scenario", &req.Scenario},
			{"adversary", &req.Adversary},
			{"seeds", &req.Seeds},
			{"seedBase", &req.SeedBase},
		}); err != nil {
			return err
		}
		return req.normalize()
	})
	if q == nil {
		return
	}
	defer done()
	if q.format == formatNDJSON || q.format == formatBinStream {
		q.streamSweep(ctx, req)
		return
	}
	payload, status, err := s.sched.Sweep(ctx, req, q.tr, nil)
	if err != nil {
		q.fail(err)
		return
	}
	if q.format == formatBin {
		q.serveBinary(status, payload)
		return
	}
	sc := jsonBufs.Get().(*jsonScratch)
	defer sc.release()
	if err := sc.renderBody(payload); err != nil {
		q.fail(err)
		return
	}
	q.serveJSON(status, sc.body)
}

func (s *Server) handleExtract(w http.ResponseWriter, r *http.Request) {
	var req ExtractRequest
	q, ctx, done := s.admit(w, r, routeExtract, func(query url.Values) error {
		if err := decodeRequest(r, query, []param{
			{"extraction", &req.Extraction},
			{"adversary", &req.Adversary},
			{"runs", &req.Runs},
			{"seedBase", &req.SeedBase},
		}); err != nil {
			return err
		}
		return req.normalize()
	})
	if q == nil {
		return
	}
	defer done()
	if q.format == formatNDJSON {
		q.streamExtract(ctx, req)
		return
	}
	payload, status, err := s.sched.Extract(ctx, req, q.tr)
	if err != nil {
		q.fail(err)
		return
	}
	if q.format == formatBin {
		q.serveBinary(status, payload)
		return
	}
	rec, err := store.DecodeExtractionRecord(payload)
	if err != nil {
		q.fail(err)
		return
	}
	q.serveJSON(status, MarshalBody(ExtractResponseOf(rec)))
}

// TraceStageJSON is one stage of a ?debug=timing trace.
type TraceStageJSON struct {
	Name   string  `json:"name"`
	Millis float64 `json:"millis"`
}

// TraceJSON is the ?debug=timing trace block: the scheduler's stage
// breakdown, the total scheduling latency, and the cache grade.
type TraceJSON struct {
	Stages      []TraceStageJSON `json:"stages"`
	TotalMillis float64          `json:"totalMillis"`
	Cache       string           `json:"cache"`
}

// DebugTimingResponse is the ?debug=timing envelope.  Response holds the
// exact bytes the request would have returned without the flag (minus
// MarshalBody's trailing newline, which cannot live inside a JSON value), so
// tooling can unwrap it and byte-compare against normal responses.
type DebugTimingResponse struct {
	Trace    TraceJSON       `json:"trace"`
	Response json.RawMessage `json:"response"`
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, catalogResponse())
}

func (s *Server) handleAdversaries(w http.ResponseWriter, r *http.Request) {
	out := []AdversaryJSON{}
	for _, info := range registry.Adversaries() {
		out = append(out, AdversaryJSON{Name: info.Name, Description: info.Description, Shapes: info.Shapes})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, StatsResponse{
		Store:         s.store.Stats(),
		Scheduler:     s.sched.Stats(),
		EngineVersion: sim.EngineVersion,
		CodecVersion:  store.CodecVersion,
	})
}
