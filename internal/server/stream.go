package server

import (
	"context"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/workload"
)

// Streamed responses.  A streamed sweep emits one record per seed as the
// scheduler's flight table resolves it — cached seeds flush immediately,
// computed seeds flush as their fleet pass lands — then a trailer record
// with the aggregate, so a 10k-seed window renders progressively instead of
// buffering.  Records arrive in resolution order, not seed order (each is
// self-describing via its seed field); the buffered body remains the
// seed-ordered rendering of the same record set.
//
// NDJSON (application/x-ndjson): one compact JSON value per line — every
// outcome line is byte-identical to the corresponding element of the
// buffered body's outcomes array (appendOutcome writes both), the final line is
// {"trailer":{"aggregate":...,"trace":...}} whose aggregate equals the
// buffered body minus its outcomes, and a mid-stream failure terminates the
// stream with an {"error":...} line instead of a trailer.
//
// Binary (application/x-udc-bin-stream): length-prefixed codec frames — one
// KindOutcome container per seed, then the assembled KindSweep container as
// the trailer (byte-identical to the buffered binary body), or a KindError
// container on mid-stream failure.
//
// Both modes declare X-Cache and Server-Timing as HTTP trailers: the cache
// grade is only known once the window has resolved, after the header block
// is gone.  Failures before the first record are ordinary JSON error
// responses with real status codes.

// streamer writes one streamed response.  Its emitOutcome method is the
// scheduler's emit callback; it runs on the request goroutine, so no
// locking.
type streamer struct {
	q       *request // q.format is formatNDJSON or formatBinStream
	rc      *http.ResponseController
	started bool
	bytes   int
	buf     []byte // NDJSON line or bin-stream frame scratch, reused across records
}

func newStreamer(q *request) *streamer {
	return &streamer{q: q, rc: http.NewResponseController(q.w)}
}

// begin sends the header block before the first record: the stream content
// type plus the trailer declaration for the end-of-stream X-Cache and
// Server-Timing values.
func (st *streamer) begin() {
	if st.started {
		return
	}
	st.started = true
	ct := ctNDJSON
	if st.q.format == formatBinStream {
		ct = ctBinStream
	}
	st.q.w.Header().Set("Content-Type", ct)
	st.q.w.Header().Set("Trailer", "X-Cache, Server-Timing")
	st.q.w.WriteHeader(http.StatusOK)
}

// write sends one record and flushes it to the socket, so clients observe
// records as they resolve rather than at buffer boundaries.  A failed flush
// means the client is gone, which the request context reports.
func (st *streamer) write(b []byte) {
	st.begin()
	n, _ := st.q.w.Write(b)
	st.bytes += n
	_ = st.rc.Flush()
}

// writeFrame sends one length-prefixed container frame.
func (st *streamer) writeFrame(container []byte) {
	st.buf = store.AppendFrame(st.buf[:0], container)
	st.write(st.buf)
}

// emitOutcome is the scheduler's emit callback: one record per resolved
// seed.
func (st *streamer) emitOutcome(o workload.RunOutcome) {
	if st.q.format == formatNDJSON {
		st.buf = append(appendOutcome(st.buf[:0], &o), '\n')
		st.write(st.buf)
	} else {
		st.writeFrame(store.EncodeOutcome(o))
	}
}

// setTrailers fills the declared HTTP trailers once the outcome is known.
// It begins the stream if nothing was written yet: a stream with zero records
// before its trailer must still send the header block first, so the values
// land as the declared trailers rather than as ordinary headers.
func (st *streamer) setTrailers(status CacheStatus) time.Duration {
	st.begin()
	return st.q.stamp(status)
}

// finish ends the stream and records its wire accounting and trace, exactly
// like the buffered paths.  A mid-stream failure (records already on the
// wire, status line long gone) appends a well-formed error record in the
// stream's own framing; a failure before the first record is an ordinary
// JSON error response with its real status code.
func (st *streamer) finish(status CacheStatus, err error) {
	switch {
	case err == nil:
	case !st.started:
		writeError(st.q.w, err)
	case st.q.format == formatNDJSON:
		st.write(MarshalBody(errorResponse{Error: err.Error()}))
	default:
		st.writeFrame(store.EncodeStreamError(err.Error()))
	}
	st.q.observeWire(st.bytes)
	st.q.finish(status, err)
}

// streamTrailerLine is the NDJSON trailer envelope: the one line of a
// streamed response whose top-level key is "trailer" rather than an outcome
// shape, so line consumers dispatch on it.
type streamTrailerLine struct {
	Trailer any `json:"trailer"`
}

// SweepTrailerJSON is a streamed sweep's trailer record: the aggregate the
// buffered body carries before its outcomes, plus the stage trace and cache
// grade the buffered response carries in headers.
type SweepTrailerJSON struct {
	Aggregate SweepAggregate `json:"aggregate"`
	Trace     TraceJSON      `json:"trace"`
}

// ExtractTrailerJSON is SweepTrailerJSON for extraction streams.
type ExtractTrailerJSON struct {
	Aggregate ExtractAggregate `json:"aggregate"`
	Trace     TraceJSON        `json:"trace"`
}

// traceJSON renders a stage trace for ?debug=timing envelopes and stream
// trailers.
func traceJSON(tr *obs.Trace, total time.Duration, status CacheStatus) TraceJSON {
	t := TraceJSON{TotalMillis: millis(total), Cache: string(status)}
	for _, st := range tr.Stages() {
		t.Stages = append(t.Stages, TraceStageJSON{Name: st.Name, Millis: millis(st.Dur)})
	}
	return t
}

// streamSweep serves one sweep request in a streamed format.
func (q *request) streamSweep(ctx context.Context, req SweepRequest) {
	st := newStreamer(q)
	payload, status, err := q.s.sched.Sweep(ctx, req, q.tr, st.emitOutcome)
	if err == nil && q.format == formatNDJSON {
		sc := jsonBufs.Get().(*jsonScratch)
		defer sc.release()
		if err = store.DecodeSweepRecordInto(&sc.rec, payload); err == nil {
			total := st.setTrailers(status)
			st.write(MarshalBody(streamTrailerLine{Trailer: SweepTrailerJSON{
				Aggregate: SweepAggregateOf(&sc.rec),
				Trace:     traceJSON(q.tr, total, status),
			}}))
		}
	} else if err == nil {
		// The assembled sweep container is the binary trailer, byte-identical
		// to the buffered binary body.
		st.setTrailers(status)
		st.writeFrame(payload)
	}
	st.finish(status, err)
}

// streamExtract serves one extraction request as NDJSON: verdict lines, then
// the trailer.  The pipeline is one indivisible computation, so the
// lines flush together once it lands — streaming here is about incremental
// consumption of large verdict sets, not progressive compute.
func (q *request) streamExtract(ctx context.Context, req ExtractRequest) {
	st := newStreamer(q)
	payload, status, err := q.s.sched.Extract(ctx, req, q.tr)
	var rec *store.ExtractionRecord
	if err == nil {
		rec, err = store.DecodeExtractionRecord(payload)
	}
	if err == nil {
		for _, v := range rec.Verdicts {
			st.write(MarshalBody(verdictJSON(v)))
		}
		total := st.setTrailers(status)
		st.write(MarshalBody(streamTrailerLine{Trailer: ExtractTrailerJSON{
			Aggregate: ExtractAggregateOf(rec),
			Trace:     traceJSON(q.tr, total, status),
		}}))
	}
	st.finish(status, err)
}
