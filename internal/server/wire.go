package server

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"

	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// This file defines the daemon's wire types and the pure record-to-response
// rendering they share with the -remote clients.  Every response body is a
// deterministic function of a store record, and a record is a deterministic
// function of a serial workload.Sweep / Runner.Extract result — so a body
// served from cache, from a coalesced duplicate or from a fresh computation
// is byte-identical to a direct call, which the golden tests assert.

// DefaultSeeds is the sweep size used when a request does not specify one.
const DefaultSeeds = 64

// MaxSeeds bounds the per-request seed count so one request cannot pin the
// worker fleet indefinitely.
const MaxSeeds = 4096

// SweepRequest asks for a catalogued scenario swept over a seed range.
type SweepRequest struct {
	// Scenario is the catalogued scenario name.
	Scenario string `json:"scenario"`
	// Adversary optionally overrides the scenario's fault/network schedule.
	Adversary string `json:"adversary,omitempty"`
	// Seeds is the number of seeds to sweep (0 means DefaultSeeds).
	Seeds int `json:"seeds,omitempty"`
	// SeedBase is the first seed (0 means 1).
	SeedBase int64 `json:"seedBase,omitempty"`
}

// normalize applies defaults and validates the request shape (not the names;
// those are resolved against the catalog by the scheduler).
func (r *SweepRequest) normalize() error {
	if r.Scenario == "" {
		return fmt.Errorf("scenario is required")
	}
	if r.Seeds == 0 {
		r.Seeds = DefaultSeeds
	}
	if r.Seeds < 0 || r.Seeds > MaxSeeds {
		return fmt.Errorf("seeds %d out of range [1, %d]", r.Seeds, MaxSeeds)
	}
	if r.SeedBase == 0 {
		r.SeedBase = 1
	}
	return nil
}

// keySpec is the request's cache identity.
func (r SweepRequest) keySpec() store.KeySpec {
	return store.KeySpec{Kind: "sweep", Name: r.Scenario, Adversary: r.Adversary, SeedBase: r.SeedBase, Count: r.Seeds}
}

// ExtractRequest asks for a catalogued knowledge-extraction pipeline.
type ExtractRequest struct {
	// Extraction is the catalogued pipeline name.
	Extraction string `json:"extraction"`
	// Adversary optionally overrides the pipeline's fault/network schedule.
	Adversary string `json:"adversary,omitempty"`
	// Runs overrides the pipeline's standing sample size (0 keeps it).
	Runs int `json:"runs,omitempty"`
	// SeedBase overrides the pipeline's standing base seed (0 keeps it).
	SeedBase int64 `json:"seedBase,omitempty"`
}

func (r *ExtractRequest) normalize() error {
	if r.Extraction == "" {
		return fmt.Errorf("extraction is required")
	}
	if r.Runs < 0 || r.Runs > MaxSeeds {
		return fmt.Errorf("runs %d out of range [1, %d]", r.Runs, MaxSeeds)
	}
	return nil
}

// StatsJSON mirrors sim.Stats with JSON tags.
type StatsJSON struct {
	Steps              int `json:"steps"`
	MessagesSent       int `json:"messagesSent"`
	MessagesDelivered  int `json:"messagesDelivered"`
	MessagesDropped    int `json:"messagesDropped"`
	MessagesToCrashed  int `json:"messagesToCrashed"`
	MessagesDuplicated int `json:"messagesDuplicated"`
	DoEvents           int `json:"doEvents"`
	InitEvents         int `json:"initEvents"`
	SuspectEvents      int `json:"suspectEvents"`
	CrashEvents        int `json:"crashEvents"`
	LastEventTime      int `json:"lastEventTime"`
}

func statsJSON(s sim.Stats) StatsJSON {
	return StatsJSON{
		Steps:              s.Steps,
		MessagesSent:       s.MessagesSent,
		MessagesDelivered:  s.MessagesDelivered,
		MessagesDropped:    s.MessagesDropped,
		MessagesToCrashed:  s.MessagesToCrashed,
		MessagesDuplicated: s.MessagesDuplicated,
		DoEvents:           s.DoEvents,
		InitEvents:         s.InitEvents,
		SuspectEvents:      s.SuspectEvents,
		CrashEvents:        s.CrashEvents,
		LastEventTime:      s.LastEventTime,
	}
}

// ViolationJSON mirrors model.Violation with JSON tags.
type ViolationJSON struct {
	Rule   string `json:"rule"`
	Detail string `json:"detail"`
}

func violationsJSON(vs []model.Violation) []ViolationJSON {
	if len(vs) == 0 {
		return nil
	}
	out := make([]ViolationJSON, len(vs))
	for i, v := range vs {
		out[i] = ViolationJSON{Rule: v.Rule, Detail: v.Detail}
	}
	return out
}

// OutcomeJSON is one seed's evaluation in a sweep response.
type OutcomeJSON struct {
	Seed           int64           `json:"seed"`
	OK             bool            `json:"ok"`
	Stats          StatsJSON       `json:"stats"`
	Violations     []ViolationJSON `json:"violations,omitempty"`
	LatencySum     int             `json:"latencySum,omitempty"`
	LatencyActions int             `json:"latencyActions,omitempty"`
}

// outcomeJSON renders one per-seed outcome as a wire value: the element type
// of SweepResponse.Outcomes, and the encoding/json reference appendOutcome's
// bytes are held to.
func outcomeJSON(o workload.RunOutcome) OutcomeJSON {
	return OutcomeJSON{
		Seed:           o.Seed,
		OK:             o.OK(),
		Stats:          statsJSON(o.Stats),
		Violations:     violationsJSON(o.Violations),
		LatencySum:     o.LatencySum,
		LatencyActions: o.LatencyActions,
	}
}

// SweepResponse is the /v1/sweep body.  Outcomes is deliberately the last
// field: the preceding fields are exactly a SweepAggregate, so a streamed
// trailer's aggregate is a byte prefix of the buffered body.
type SweepResponse struct {
	SweepAggregate
	Outcomes []OutcomeJSON `json:"outcomes"`
}

// SweepAggregate is a sweep response minus the per-seed outcomes — the shape
// of a streamed sweep's trailer record.
type SweepAggregate struct {
	Scenario        string  `json:"scenario"`
	Check           string  `json:"check"`
	Adversary       string  `json:"adversary,omitempty"`
	SeedBase        int64   `json:"seedBase"`
	Seeds           int     `json:"seeds"`
	Successes       int     `json:"successes"`
	SuccessRate     float64 `json:"successRate"`
	TotalViolations int     `json:"totalViolations"`
	MeanMessages    float64 `json:"meanMessages"`
	MeanLatency     float64 `json:"meanLatency"`
}

// SweepResponseOf renders a stored sweep record as a wire value — what
// server.Client decodes a body into, and the encoding/json reference
// appendSweepBody's bytes are held to.  Both are pure functions of the record,
// so cached and freshly computed responses coincide.
func SweepResponseOf(rec *store.SweepRecord) *SweepResponse {
	resp := &SweepResponse{
		SweepAggregate: SweepAggregateOf(rec),
		Outcomes:       make([]OutcomeJSON, len(rec.Outcomes)),
	}
	for i, o := range rec.Outcomes {
		resp.Outcomes[i] = outcomeJSON(o)
	}
	return resp
}

// SweepAggregateOf renders a stored sweep record's aggregate — the part of
// the response that is not the per-seed outcomes.
func SweepAggregateOf(rec *store.SweepRecord) SweepAggregate {
	agg := workload.SweepResult{Outcomes: rec.Outcomes}
	return SweepAggregate{
		Scenario:        rec.Scenario,
		Check:           rec.Check,
		Adversary:       rec.Adversary,
		SeedBase:        rec.SeedBase,
		Seeds:           len(rec.Outcomes),
		Successes:       agg.Successes(),
		SuccessRate:     agg.SuccessRate(),
		TotalViolations: agg.TotalViolations(),
		MeanMessages:    agg.MeanMessages(),
		MeanLatency:     agg.MeanLatency(),
	}
}

// The sweep body's JSON is written by the appenders below rather than by
// encoding/json's reflection over a SweepResponse: the buffered body and each
// streamed NDJSON line go through the same appendOutcome, and the bytes are
// exactly MarshalBody(SweepResponseOf(rec)) and MarshalBody(outcomeJSON(o)),
// which TestSweepJSONMatchesEncodingJSON and FuzzSweepJSON pin.

// jsonScratch is what rendering a sweep's JSON takes beyond the stored
// container: the record decoded from it and the buffer a buffered body is
// rendered into.  jsonBufs recycles them; a scratch goes back once the body
// or trailer is written, since a Writer keeps nothing it is given.
type jsonScratch struct {
	body []byte
	rec  store.SweepRecord
}

var jsonBufs = sync.Pool{New: func() any { return new(jsonScratch) }}

// maxPooledBody and maxPooledOutcomes bound the scratches jsonBufs keeps, so
// one large window (a 64-seed body is ≈ 18 KB, its outcomes 8.5 KB) does not
// stay pinned for every small one after it.
const (
	maxPooledBody     = 256 << 10
	maxPooledOutcomes = 1024
)

// renderBody is a buffered JSON sweep response's decode and render: the
// stored container decoded into sc.rec and its body rendered into sc.body.
func (sc *jsonScratch) renderBody(payload []byte) error {
	if err := store.DecodeSweepRecordInto(&sc.rec, payload); err != nil {
		return err
	}
	sc.body = appendSweepBody(sc.body[:0], &sc.rec)
	return nil
}

// release returns sc to jsonBufs unless it has outgrown the bounds.
func (sc *jsonScratch) release() {
	if cap(sc.body) <= maxPooledBody && cap(sc.rec.Outcomes) <= maxPooledOutcomes {
		jsonBufs.Put(sc)
	}
}

// appendSweepBody appends the buffered /v1/sweep JSON body of rec, trailing
// newline included.
func appendSweepBody(dst []byte, rec *store.SweepRecord) []byte {
	dst = appendSweepAggregate(dst, SweepAggregateOf(rec))
	dst = append(dst[:len(dst)-1], `,"outcomes":[`...) // reopen the aggregate object
	for i := range rec.Outcomes {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendOutcome(dst, &rec.Outcomes[i])
	}
	return append(dst, "]}\n"...)
}

// appendSweepAggregate appends a as one JSON object.
func appendSweepAggregate(dst []byte, a SweepAggregate) []byte {
	dst = appendString(append(dst, `{"scenario":`...), a.Scenario)
	dst = appendString(append(dst, `,"check":`...), a.Check)
	if a.Adversary != "" {
		dst = appendString(append(dst, `,"adversary":`...), a.Adversary)
	}
	dst = strconv.AppendInt(append(dst, `,"seedBase":`...), a.SeedBase, 10)
	dst = appendInt(dst, `,"seeds":`, a.Seeds)
	dst = appendInt(dst, `,"successes":`, a.Successes)
	dst = appendFloat(append(dst, `,"successRate":`...), a.SuccessRate)
	dst = appendInt(dst, `,"totalViolations":`, a.TotalViolations)
	dst = appendFloat(append(dst, `,"meanMessages":`...), a.MeanMessages)
	dst = appendFloat(append(dst, `,"meanLatency":`...), a.MeanLatency)
	return append(dst, '}')
}

// appendOutcome appends o as one JSON object: an element of the buffered
// body's outcomes array, and the body of one streamed NDJSON line.
func appendOutcome(dst []byte, o *workload.RunOutcome) []byte {
	dst = strconv.AppendInt(append(dst, `{"seed":`...), o.Seed, 10)
	dst = strconv.AppendBool(append(dst, `,"ok":`...), o.OK())
	st := &o.Stats
	dst = appendInt(dst, `,"stats":{"steps":`, st.Steps)
	dst = appendInt(dst, `,"messagesSent":`, st.MessagesSent)
	dst = appendInt(dst, `,"messagesDelivered":`, st.MessagesDelivered)
	dst = appendInt(dst, `,"messagesDropped":`, st.MessagesDropped)
	dst = appendInt(dst, `,"messagesToCrashed":`, st.MessagesToCrashed)
	dst = appendInt(dst, `,"messagesDuplicated":`, st.MessagesDuplicated)
	dst = appendInt(dst, `,"doEvents":`, st.DoEvents)
	dst = appendInt(dst, `,"initEvents":`, st.InitEvents)
	dst = appendInt(dst, `,"suspectEvents":`, st.SuspectEvents)
	dst = appendInt(dst, `,"crashEvents":`, st.CrashEvents)
	dst = appendInt(dst, `,"lastEventTime":`, st.LastEventTime)
	dst = append(dst, '}')
	if len(o.Violations) > 0 {
		dst = append(dst, `,"violations":[`...)
		for i, v := range o.Violations {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(append(dst, `{"rule":`...), v.Rule)
			dst = appendString(append(dst, `,"detail":`...), v.Detail)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if o.LatencySum != 0 {
		dst = appendInt(dst, `,"latencySum":`, o.LatencySum)
	}
	if o.LatencyActions != 0 {
		dst = appendInt(dst, `,"latencyActions":`, o.LatencyActions)
	}
	return append(dst, '}')
}

// appendInt appends key, then v in decimal.
func appendInt(dst []byte, key string, v int) []byte {
	return strconv.AppendInt(append(dst, key...), int64(v), 10)
}

// appendString appends s as a JSON string.  Printable ASCII is copied as it
// is; a string holding anything encoding/json escapes (" \ < > &, control
// characters, non-ASCII, invalid UTF-8) is left to encoding/json itself, so
// the two cannot disagree.  Catalog names and violation details are plain
// ASCII, so that path is rare.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal, in exponent form below 1e-6 or from 1e21 up, with the exponent's
// leading zero trimmed (e-07 → e-7).  Every float in a sweep body is a ratio
// of ints, so f is finite.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// IndexJSON is the epistemic index's shape in an extract response.
type IndexJSON struct {
	Runs      int `json:"runs"`
	Processes int `json:"processes"`
	Points    int `json:"points"`
	Classes   int `json:"classes"`
	Intervals int `json:"intervals"`
}

// VerdictJSON is one transformed run's property check.
type VerdictJSON struct {
	Seed       int64           `json:"seed"`
	OK         bool            `json:"ok"`
	Violations []ViolationJSON `json:"violations,omitempty"`
}

// ExtractResponse is the /v1/extract body.  Like SweepResponse, the per-run
// verdicts are deliberately the last field, so the preceding fields are
// exactly an ExtractAggregate.
type ExtractResponse struct {
	ExtractAggregate
	Verdicts []VerdictJSON `json:"verdicts"`
}

// ExtractAggregate is an extract response minus the per-run verdicts — the
// shape of a streamed extraction's trailer record.
type ExtractAggregate struct {
	Extraction      string    `json:"extraction"`
	Mode            string    `json:"mode"`
	T               int       `json:"t,omitempty"`
	Adversary       string    `json:"adversary,omitempty"`
	Runs            int       `json:"runs"`
	SeedBase        int64     `json:"seedBase"`
	Stress          bool      `json:"stress,omitempty"`
	Kept            int       `json:"kept"`
	Excluded        int       `json:"excluded"`
	ExcludedSeeds   []int64   `json:"excludedSeeds,omitempty"`
	Index           IndexJSON `json:"index"`
	OK              bool      `json:"ok"`
	TotalViolations int       `json:"totalViolations"`
}

// verdictJSON renders one transformed run's property check — the element
// type of a buffered response's verdicts array and the line type of a
// streamed one.
func verdictJSON(v store.Verdict) VerdictJSON {
	return VerdictJSON{Seed: v.Seed, OK: len(v.Violations) == 0, Violations: violationsJSON(v.Violations)}
}

// ExtractResponseOf renders a stored extraction record; like SweepResponseOf
// it is the single producer of extract bodies.
func ExtractResponseOf(rec *store.ExtractionRecord) *ExtractResponse {
	resp := &ExtractResponse{
		ExtractAggregate: ExtractAggregateOf(rec),
		Verdicts:         make([]VerdictJSON, len(rec.Verdicts)),
	}
	for i, v := range rec.Verdicts {
		resp.Verdicts[i] = verdictJSON(v)
	}
	return resp
}

// ExtractAggregateOf renders a stored extraction record's aggregate.
func ExtractAggregateOf(rec *store.ExtractionRecord) ExtractAggregate {
	agg := ExtractAggregate{
		Extraction:    rec.Extraction,
		Mode:          rec.Mode,
		T:             rec.T,
		Adversary:     rec.Adversary,
		Runs:          rec.Runs,
		SeedBase:      rec.SeedBase,
		Stress:        rec.Stress,
		Kept:          rec.Kept,
		Excluded:      rec.Excluded,
		ExcludedSeeds: rec.ExcludedSeeds,
		Index: IndexJSON{
			Runs:      rec.Index.Runs,
			Processes: rec.Index.Processes,
			Points:    rec.Index.Points,
			Classes:   rec.Index.Classes,
			Intervals: rec.Index.Intervals,
		},
		TotalViolations: rec.TotalViolations(),
	}
	agg.OK = agg.TotalViolations == 0
	return agg
}

// ScenarioJSON is one catalog entry in the /v1/scenarios body.
type ScenarioJSON struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Check       string `json:"check"`
	N           int    `json:"n"`
	Stress      bool   `json:"stress,omitempty"`
	Adversary   string `json:"adversary,omitempty"`
}

// ExtractionJSON is one extraction-pipeline entry in the /v1/scenarios body.
type ExtractionJSON struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Mode        string `json:"mode"`
	Runs        int    `json:"runs"`
	SeedBase    int64  `json:"seedBase"`
	Stress      bool   `json:"stress,omitempty"`
}

// CatalogResponse is the /v1/scenarios body: everything the daemon can serve.
type CatalogResponse struct {
	Scenarios   []ScenarioJSON   `json:"scenarios"`
	Extractions []ExtractionJSON `json:"extractions"`
}

// AdversaryJSON is one entry in the /v1/adversaries body.
type AdversaryJSON struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Shapes      bool   `json:"shapes,omitempty"`
}

// catalogResponse renders the registry catalogs.
func catalogResponse() *CatalogResponse {
	resp := &CatalogResponse{}
	for _, sc := range registry.Scenarios() {
		entry := ScenarioJSON{
			Name:        sc.Name,
			Description: sc.Description,
			Check:       sc.Check,
			N:           sc.Spec.N,
			Stress:      sc.Stress,
		}
		if sc.Spec.Adversary != nil {
			entry.Adversary = sc.Spec.Adversary.Name()
		}
		resp.Scenarios = append(resp.Scenarios, entry)
	}
	for _, ex := range registry.Extractions() {
		resp.Extractions = append(resp.Extractions, ExtractionJSON{
			Name:        ex.Name,
			Description: ex.Description,
			Mode:        string(ex.Extraction.Mode),
			Runs:        ex.Extraction.Runs,
			SeedBase:    ex.Extraction.BaseSeed,
			Stress:      ex.Stress,
		})
	}
	return resp
}

// StatsResponse is the /v1/stats body.
type StatsResponse struct {
	Store         store.Stats    `json:"store"`
	Scheduler     SchedulerStats `json:"scheduler"`
	EngineVersion int            `json:"engineVersion"`
	CodecVersion  int            `json:"codecVersion"`
}

// errorResponse is the body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

// MarshalBody renders any wire value as the daemon writes it: compact JSON
// with a trailing newline.  Clients and golden tests use it to reproduce
// response bodies bit for bit.
func MarshalBody(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		// Wire types contain only marshalable fields; reaching this is a
		// programming error.
		panic(err)
	}
	return append(raw, '\n')
}
