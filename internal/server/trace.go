package server

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// Request-scoped tracing.  Every sweep/extract request gets a trace identity
// at ingress — parsed from the client's W3C `traceparent` header, or freshly
// minted — and carries it through the scheduler: stage spans time the
// request's phases, span links record the flight-table owners whose in-flight
// work it joined, and seed accounting records how its window resolved.  The
// identity is returned in X-Trace-Id on every response (buffered, streamed,
// and errored), the finished trace lands in the TraceLog, each stage feeds
// the udc_stage_duration_seconds histogram, and slow requests are logged as
// structured slog records keyed by the trace ID.  /debug/traces serves the
// log; none of it touches response bodies, so byte-identity guarantees hold.

// beginTrace starts a request's trace: the client's traceparent identity when
// one is supplied and well-formed, a fresh one otherwise.
func (s *Server) beginTrace(r *http.Request) *obs.Trace {
	tr := &obs.Trace{}
	if trace, span, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
		tr.ID, tr.Parent = trace, span
	} else {
		tr.ID = obs.NewTraceID()
	}
	return tr
}

// TraceSummaryJSON is one trace as listed by /debug/traces.
type TraceSummaryJSON struct {
	ID          string         `json:"id"`
	Parent      string         `json:"parent,omitempty"`
	Route       string         `json:"route"`
	Format      string         `json:"format,omitempty"`
	Start       time.Time      `json:"start"`
	TotalMillis float64        `json:"totalMillis"`
	Cache       string         `json:"cache,omitempty"`
	Error       string         `json:"error,omitempty"`
	Links       []string       `json:"links,omitempty"`
	Seeds       obs.SeedCounts `json:"seeds"`
}

// TraceListResponse is the /debug/traces body.
type TraceListResponse struct {
	Count  int                `json:"count"`
	Traces []TraceSummaryJSON `json:"traces"`
}

// TraceDetailJSON is the /debug/traces/<id> body: the summary plus the stage
// breakdown and, for traces that joined other requests' in-flight work, the
// linked owner traces still present in the log.
type TraceDetailJSON struct {
	TraceSummaryJSON
	Stages []TraceStageJSON   `json:"stages"`
	Linked []TraceSummaryJSON `json:"linked,omitempty"`
}

func traceSummary(rec *obs.TraceRecord) TraceSummaryJSON {
	out := TraceSummaryJSON{
		ID:          rec.ID.String(),
		Route:       rec.Route,
		Format:      rec.Format,
		Start:       rec.Start,
		TotalMillis: millis(rec.Duration),
		Cache:       rec.Cache,
		Error:       rec.Error,
		Seeds:       rec.Seeds,
	}
	if !rec.Parent.IsZero() {
		out.Parent = rec.Parent.String()
	}
	for _, link := range rec.Links {
		out.Links = append(out.Links, link.String())
	}
	return out
}

// handleTraces lists the trace log, newest first.  Query filters: route
// (exact), min_ms (minimum total duration), cache (hit|partial|miss), errors
// (truthy keeps only failures), limit (default 100).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := obs.TraceFilter{Route: q.Get("route"), Cache: q.Get("cache"), Limit: 100}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, badRequest(fmt.Errorf("parameter limit: %q is not a non-negative integer", v)))
			return
		}
		f.Limit = n
	}
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			writeError(w, badRequest(fmt.Errorf("parameter min_ms: %q is not a non-negative number", v)))
			return
		}
		f.MinDuration = time.Duration(ms * float64(time.Millisecond))
	}
	if v := q.Get("errors"); v != "" {
		f.ErrorsOnly = v == "1" || v == "true"
	}
	recs := s.traces.Snapshot(f)
	out := TraceListResponse{Count: len(recs), Traces: make([]TraceSummaryJSON, 0, len(recs))}
	for _, rec := range recs {
		out.Traces = append(out.Traces, traceSummary(rec))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleTraceByID serves one trace's full detail.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	raw := strings.TrimPrefix(r.URL.Path, "/debug/traces/")
	id, ok := obs.ParseTraceID(raw)
	if !ok {
		writeError(w, badRequest(fmt.Errorf("malformed trace ID %q (want 32 hex digits)", raw)))
		return
	}
	rec, ok := s.traces.Get(id)
	if !ok {
		writeError(w, notFound(fmt.Errorf("trace %s is not in the log (never recorded, or evicted)", id)))
		return
	}
	out := TraceDetailJSON{
		TraceSummaryJSON: traceSummary(rec),
		Stages:           make([]TraceStageJSON, 0, len(rec.Stages)),
	}
	for _, stage := range rec.Stages {
		out.Stages = append(out.Stages, TraceStageJSON{Name: stage.Name, Millis: millis(stage.Dur)})
	}
	for _, link := range rec.Links {
		if owner, ok := s.traces.Get(link); ok {
			out.Linked = append(out.Linked, traceSummary(owner))
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// CorpusResponse is the /v1/corpus body: where the corpus lives, how its
// live records distribute across the 256 key-prefix shards (with a per-kind
// census: "outcome" counts sweeps' per-seed records, "sweep"/"extraction"
// whole served requests, "seed" the run-carrying records older daemons left),
// what the memory layer holds, and the per-source seed traffic the
// scheduler has observed.  Per-seed keys are digests, so the per-source view
// is live accounting since the daemon started, not a disk census.
type CorpusResponse struct {
	Dir        string           `json:"dir,omitempty"`
	Persistent bool             `json:"persistent"`
	Disk       store.ScanResult `json:"disk"`
	MemEntries int              `json:"memEntries"`
	MemBytes   int64            `json:"memBytes"`
	Sources    []SourceStats    `json:"sources"`
}

// handleCorpus serves the corpus census, counted from the store's index
// without disk reads.  ?kinds=0 skips the per-kind classification.
func (s *Server) handleCorpus(w http.ResponseWriter, r *http.Request) {
	scan := s.store.ScanShards(r.URL.Query().Get("kinds") != "0")
	ss := s.store.Stats()
	writeJSON(w, http.StatusOK, CorpusResponse{
		Dir:        s.store.Dir(),
		Persistent: s.store.Dir() != "",
		Disk:       scan,
		MemEntries: ss.MemEntries,
		MemBytes:   ss.MemBytes,
		Sources:    s.sched.SourcesSnapshot(),
	})
}
