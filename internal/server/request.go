package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/obs"
)

// The corpus-backed routes: the ones that resolve seeds, and so the ones that
// go through admit and end in a traced, wire-accounted response.
const (
	routeSweep   = "/v1/sweep"
	routeExtract = "/v1/extract"
	routeClaim   = "/v1/claim"
)

// maxBodyBytes bounds a corpus route's POST body, so a request is refused
// before its seed list is allocated rather than after: the largest well-formed
// one, a claim of MaxSeeds explicit int64 seeds, is ≈ 90 KB.
const maxBodyBytes = 1 << 20

var errMethod = errors.New("method not allowed (use GET or POST)")

// request is one corpus-route request in flight: where its response goes, its
// query (parsed once, by admit; nil on the claim route), the route and
// negotiated format its telemetry is labelled with, its trace and its arrival
// time.  Every exit path ends in exactly one of fail, serveJSON, serveBinary
// or a streamer's finish, each of which finishes the trace.
type request struct {
	s      *Server
	w      http.ResponseWriter
	r      *http.Request
	query  url.Values
	route  string
	format string
	tr     *obs.Trace
	start  time.Time
}

// admit is the ingress of every corpus-backed route, in the one order they
// share: trace identity, format negotiation (406), method (405 + Allow),
// decode and validate (400, or 413 past maxBodyBytes), drain (503), per-client
// rate (429), then the in-flight count and the compute context.  Only
// well-formed requests draw a rate token — a malformed 400 must not drain its
// client's budget.  decode fills and validates the route's request value.  A
// rejected request is already answered and q is nil; otherwise the caller
// defers done.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, route string, decode func(query url.Values) error) (q *request, ctx context.Context, done func()) {
	q = &request{s: s, w: w, r: r, route: route, format: formatBin, tr: s.beginTrace(r), start: time.Now()}
	w.Header().Set("X-Trace-Id", q.tr.ID.String())
	// The claim route is fleet-internal: POST only, always the binary wire,
	// and deliberately not rate-limited (peers are trusted; admission happened
	// at the coordinator's ingress).  It is still subject to draining and to
	// the compute-queue gate — both reject with statuses the coordinator's
	// retry/fallback logic treats as transient.
	peer := route == routeClaim
	allow := "GET, POST"
	if peer {
		allow = "POST"
	} else {
		var err error
		q.query = r.URL.Query()
		q.format, err = negotiateFormat(q.query, r.Header.Get("Accept"))
		if err == nil && q.format == formatBinStream && route == routeExtract {
			// An extraction's pipeline is one indivisible computation, so
			// there is no per-seed frame sequence to stream; NDJSON streams the
			// verdicts, binary callers take the buffered container.
			err = notAcceptable(fmt.Errorf("format bin-stream is not supported on /v1/extract (use bin or ndjson)"))
		}
		if err != nil {
			q.fail(err)
			return nil, nil, nil
		}
	}
	if r.Method != http.MethodPost && (peer || r.Method != http.MethodGet) {
		w.Header().Set("Allow", allow)
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: errMethod.Error()})
		q.finish("", errMethod)
		return nil, nil, nil
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := decode(q.query); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			q.fail(&httpError{status: http.StatusRequestEntityTooLarge, err: err})
		} else {
			q.fail(badRequest(err))
		}
		return nil, nil, nil
	}
	err := s.admitDrain()
	if err == nil && !peer {
		err = s.admitRate(r)
	}
	if err != nil {
		q.fail(err)
		return nil, nil, nil
	}
	s.active.Add(1)
	ctx, cancel := s.requestContext(r)
	return q, ctx, func() { cancel(); s.active.Add(-1) }
}

// finish is every exit path's final step: it feeds the trace's stages to the
// duration histograms, records the finished trace in the log (errors always
// retain), and emits the structured slow-request log.
func (q *request) finish(status CacheStatus, err error) {
	s, tr := q.s, q.tr
	total := time.Since(q.start)
	for _, stage := range tr.Stages() {
		s.metrics.stageDuration.With(stage.Name).Observe(stage.Dur.Seconds())
	}
	rec := &obs.TraceRecord{
		ID:       tr.ID,
		Parent:   tr.Parent,
		Route:    q.route,
		Format:   q.format,
		Start:    q.start,
		Duration: total,
		Cache:    string(status),
		Stages:   tr.Stages(),
		Links:    tr.Links(),
		Seeds:    tr.Seeds(),
	}
	if err != nil {
		rec.Error = err.Error()
		rec.Cache = ""
	}
	s.traces.Record(rec)
	if s.slow > 0 && total >= s.slow {
		attrs := []slog.Attr{
			slog.String("trace", tr.ID.String()),
			slog.String("route", q.route),
			slog.String("format", q.format),
			slog.String("cache", string(status)),
			slog.Duration("total", total),
			slog.Int("seeds", tr.Seeds().Requested),
			slog.String("stages", tr.ServerTiming()),
		}
		if err != nil {
			attrs = append(attrs, slog.String("error", err.Error()))
		}
		s.logger.LogAttrs(context.Background(), slog.LevelWarn, "slow request", attrs...)
	}
}

// fail answers a failed request with the JSON error envelope and finishes its
// trace.
func (q *request) fail(err error) {
	writeError(q.w, err)
	q.finish("", err)
}

// stamp marks a served response with how it was produced — as headers, or as
// the declared trailers once a stream has begun — and returns the latency so
// far.  X-Cache says how much of the body came from the run corpus: "hit"
// (nothing computed), "partial" (assembled from cached and computed seeds) or
// "miss" (everything computed); Server-Timing carries the stage trace.  Both
// live outside the body because cached, assembled and computed bodies are
// byte-identical by design.
func (q *request) stamp(status CacheStatus) time.Duration {
	total := time.Since(q.start)
	q.w.Header().Set("X-Cache", string(status))
	q.w.Header().Set("Server-Timing", q.tr.ServerTiming(
		"total;dur="+obs.FormatMillis(total),
		`cache;desc="`+string(status)+`"`))
	return total
}

// observeWire records one finished response body on the wire accounting
// counters, by route and negotiated format.
func (q *request) observeWire(bytes int) {
	q.s.metrics.wireResponses.With(q.route, q.format).Inc()
	q.s.metrics.wireBytes.With(q.route, q.format).Add(uint64(bytes))
}

// serveJSON finishes a served request in the JSON format; body is the
// rendered response, trailing newline included.  ?debug=timing wraps it in a
// trace envelope whose inner response bytes are the unchanged normal body.
func (q *request) serveJSON(status CacheStatus, body []byte) {
	total := q.stamp(status)
	if q.query.Get("debug") == "timing" {
		body = MarshalBody(DebugTimingResponse{
			Trace:    traceJSON(q.tr, total, status),
			Response: json.RawMessage(bytes.TrimSuffix(body, []byte("\n"))),
		})
	}
	q.observeWire(writeBody(q.w, http.StatusOK, body))
	q.finish(status, nil)
}

// serveBinary finishes a served request in the binary format: the store's
// codec container written to the wire byte-for-byte — what the scheduler
// returned is what the client's decoder (and the corpus) sees, with no
// re-encode in between.  ?debug=timing has no binary framing; the stage trace
// still travels in the Server-Timing header.
func (q *request) serveBinary(status CacheStatus, payload []byte) {
	q.stamp(status)
	q.w.Header().Set("Content-Type", ctBinary)
	q.w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
	q.w.WriteHeader(http.StatusOK)
	q.w.Write(payload)
	q.observeWire(len(payload))
	q.finish(status, nil)
}
