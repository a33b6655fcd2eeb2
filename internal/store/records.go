package store

import (
	"repro/internal/epistemic"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/workload"
)

// SweepRecord is the serialisable result of sweeping one catalogued scenario
// over a deterministic seed range.  It carries the request identity (so a
// decoded record is self-describing) plus the per-seed outcomes verbatim;
// every aggregate a response needs is recomputed from the outcomes, so a
// record decoded from the store yields exactly the response a fresh
// computation would.
type SweepRecord struct {
	// Scenario is the catalogued scenario name.
	Scenario string
	// Check names the specification the scenario's evaluator enforced.
	Check string
	// Adversary is the overriding adversary name ("" means the scenario's
	// own schedule).
	Adversary string
	// SeedBase is the first seed; the swept seeds are
	// workload.Seeds(SeedBase, len(Outcomes)).
	SeedBase int64
	// Outcomes are the per-seed evaluations, in seed order.
	Outcomes []workload.RunOutcome
}

// NewSweepRecord captures a sweep result as a record.
func NewSweepRecord(scenario, check, adversary string, seedBase int64, res workload.SweepResult) *SweepRecord {
	return &SweepRecord{
		Scenario:  scenario,
		Check:     check,
		Adversary: adversary,
		SeedBase:  seedBase,
		Outcomes:  res.Outcomes,
	}
}

func (w *writer) stats(s sim.Stats) {
	w.int(s.Steps)
	w.int(s.MessagesSent)
	w.int(s.MessagesDelivered)
	w.int(s.MessagesDropped)
	w.int(s.MessagesToCrashed)
	w.int(s.MessagesDuplicated)
	w.int(s.DoEvents)
	w.int(s.InitEvents)
	w.int(s.SuspectEvents)
	w.int(s.CrashEvents)
	w.int(s.LastEventTime)
}

// outcome writes one scored outcome: a KindOutcome payload, and each entry of
// a sweep record's outcome list.
func (w *writer) outcome(o *workload.RunOutcome) {
	w.svarint(o.Seed)
	w.stats(o.Stats)
	w.violations(o.Violations)
	w.int(o.LatencySum)
	w.int(o.LatencyActions)
}

// outcomeInto reads an outcome into *o, refilling o.Violations in place.
func (r *reader) outcomeInto(o *workload.RunOutcome) {
	o.Seed = r.svarint()
	o.Stats = r.stats()
	o.Violations = r.violationsOver(o.Violations)
	o.LatencySum = r.int()
	o.LatencyActions = r.int()
}

func (r *reader) stats() sim.Stats {
	return sim.Stats{
		Steps:              r.int(),
		MessagesSent:       r.int(),
		MessagesDelivered:  r.int(),
		MessagesDropped:    r.int(),
		MessagesToCrashed:  r.int(),
		MessagesDuplicated: r.int(),
		DoEvents:           r.int(),
		InitEvents:         r.int(),
		SuspectEvents:      r.int(),
		CrashEvents:        r.int(),
		LastEventTime:      r.int(),
	}
}

// SeedRecord is a run-carrying per-seed record: one seed's recorded run plus
// the simulator's counters.  Older daemons stored one per extraction source
// seed, from a simulate-only pass (Scored == false, the outcome fields
// Violations, LatencySum and LatencyActions empty); the daemon now stores no
// source runs, and a sweep's per-seed record is the scored outcome alone
// (EncodeOutcome).  The codec stays for the benchmark's store ladder and the
// codec goldens.
type SeedRecord struct {
	// Seed is the concrete seed value (part of the record's key, repeated so
	// a decoded record is self-describing).
	Seed int64
	// Stats are the simulator's counters for the run.
	Stats sim.Stats
	// Scored marks records whose outcome fields were produced by the source
	// scenario's evaluator.
	Scored bool
	// Violations, LatencySum and LatencyActions mirror workload.RunOutcome.
	Violations     []model.Violation
	LatencySum     int
	LatencyActions int
	// Run is the recorded run.
	Run *model.Run
}

// Outcome reconstructs the per-seed sweep outcome the record captured.
func (rec *SeedRecord) Outcome() workload.RunOutcome {
	return workload.RunOutcome{
		Seed:           rec.Seed,
		Stats:          rec.Stats,
		Violations:     rec.Violations,
		LatencySum:     rec.LatencySum,
		LatencyActions: rec.LatencyActions,
	}
}

// NewSeedRecord captures one swept seed as a record.
func NewSeedRecord(sr workload.SeedRun, scored bool) *SeedRecord {
	return &SeedRecord{
		Seed:           sr.Outcome.Seed,
		Stats:          sr.Outcome.Stats,
		Scored:         scored,
		Violations:     sr.Outcome.Violations,
		LatencySum:     sr.Outcome.LatencySum,
		LatencyActions: sr.Outcome.LatencyActions,
		Run:            sr.Run,
	}
}

// EncodeSeedRecord serialises a seed record.
func EncodeSeedRecord(rec *SeedRecord) []byte {
	w := newWriter()
	w.svarint(rec.Seed)
	w.stats(rec.Stats)
	w.bool(rec.Scored)
	w.violations(rec.Violations)
	w.int(rec.LatencySum)
	w.int(rec.LatencyActions)
	w.run(rec.Run)
	return w.seal(KindSeed)
}

// DecodeSeedRecord deserialises a record encoded by EncodeSeedRecord,
// validating the embedded run's structural invariants like DecodeRun does.
// The record and its run are independent copies.
func DecodeSeedRecord(data []byte) (*SeedRecord, error) {
	d := Decoders.Get()
	defer Decoders.Put(d)
	transient, err := d.DecodeSeedRecord(data)
	if err != nil {
		return nil, err
	}
	rec := new(SeedRecord)
	*rec = *transient
	rec.Run = transient.Run.CompactClone()
	return rec, nil
}

// EncodeSweepRecord serialises a sweep record.
func EncodeSweepRecord(rec *SweepRecord) []byte {
	w := newWriter()
	w.str(rec.Scenario)
	w.str(rec.Check)
	w.str(rec.Adversary)
	w.svarint(rec.SeedBase)
	w.uvarint(uint64(len(rec.Outcomes)))
	for i := range rec.Outcomes {
		w.outcome(&rec.Outcomes[i])
	}
	return w.seal(KindSweep)
}

// DecodeSweepRecord deserialises a record encoded by EncodeSweepRecord.
func DecodeSweepRecord(data []byte) (*SweepRecord, error) {
	rec := new(SweepRecord)
	if err := DecodeSweepRecordInto(rec, data); err != nil {
		return nil, err
	}
	return rec, nil
}

// DecodeSweepRecordInto is DecodeSweepRecord into a record the caller owns
// and decodes one container after another into.  It overwrites every field:
// Outcomes, and each outcome's Violations, are refilled in place when their
// capacity suffices, a string whose bytes are unchanged is kept, and an empty
// list is nil, so the result equals a fresh decode and nothing of rec's last
// use shows.  rec's slices must be rec's alone (a record from NewSweepRecord
// shares its sweep's outcomes).  On error rec's contents are unspecified.
func DecodeSweepRecordInto(rec *SweepRecord, data []byte) error {
	payload, err := unseal(data, KindSweep)
	if err != nil {
		return err
	}
	r := reader{data: payload}
	rec.Scenario = r.strOver(rec.Scenario)
	rec.Check = r.strOver(rec.Check)
	rec.Adversary = r.strOver(rec.Adversary)
	rec.SeedBase = r.svarint()
	switch count := r.length("outcome"); {
	case r.err != nil || count == 0:
		rec.Outcomes = nil
	case cap(rec.Outcomes) < count:
		rec.Outcomes = make([]workload.RunOutcome, count)
	default:
		rec.Outcomes = rec.Outcomes[:count]
	}
	for i := range rec.Outcomes {
		r.outcomeInto(&rec.Outcomes[i])
	}
	return r.done()
}

// ExtractionRecord is the serialisable result of one knowledge-extraction
// pipeline execution: the request identity, the UDC filter's outcome, the
// epistemic index's shape and the per-run property verdicts.  The transformed
// runs themselves are not recorded — the verdicts are the pipeline's result;
// callers that want the runs use the codec's System container directly.
type ExtractionRecord struct {
	// Extraction is the catalogued pipeline name.
	Extraction string
	// Mode is the construction applied ("perfect" or "tuseful").
	Mode string
	// T is the failure bound of the t-useful check.
	T int
	// Adversary is the overriding adversary name ("" means the pipeline's
	// own schedule).
	Adversary string
	// Runs is the number of sampled seeds.
	Runs int
	// SeedBase is the first sampling seed.
	SeedBase int64
	// Stress marks a pipeline whose recorded violations are the expected
	// result (the catalog's stress flag travels with the record so remote
	// clients need no local catalog).
	Stress bool
	// Kept and Excluded count the sampled runs that did and did not satisfy
	// UDC.
	Kept, Excluded int
	// ExcludedSeeds lists the seeds of excluded runs, in seed order.
	ExcludedSeeds []int64
	// Index is the epistemic index's size statistics.
	Index epistemic.Stats
	// Verdicts holds one property check per transformed run, in kept-seed
	// order.
	Verdicts []Verdict
}

// Verdict is the property check of one transformed run.
type Verdict struct {
	// Seed generated the source run.
	Seed int64
	// Violations are the detector-property violations on the transformed run.
	Violations []model.Violation
}

// TotalViolations returns the number of violations across all verdicts.
func (rec *ExtractionRecord) TotalViolations() int {
	total := 0
	for _, v := range rec.Verdicts {
		total += len(v.Violations)
	}
	return total
}

// NewExtractionRecord captures an extraction result as a record.  stress is
// the catalog entry's stress flag.
func NewExtractionRecord(adversary string, stress bool, res *workload.ExtractionResult) *ExtractionRecord {
	rec := &ExtractionRecord{
		Extraction:    res.Extraction.Name,
		Mode:          string(res.Extraction.Mode),
		T:             res.Extraction.T,
		Adversary:     adversary,
		Runs:          res.Extraction.Runs,
		SeedBase:      res.Extraction.BaseSeed,
		Stress:        stress,
		Kept:          res.Kept,
		Excluded:      res.Excluded,
		ExcludedSeeds: res.ExcludedSeeds,
		Index:         res.Stats,
	}
	rec.Verdicts = make([]Verdict, len(res.Verdicts))
	for i, v := range res.Verdicts {
		rec.Verdicts[i] = Verdict{Seed: v.Seed, Violations: v.Violations}
	}
	return rec
}

// EncodeExtractionRecord serialises an extraction record.
func EncodeExtractionRecord(rec *ExtractionRecord) []byte {
	w := newWriter()
	w.str(rec.Extraction)
	w.str(rec.Mode)
	w.int(rec.T)
	w.str(rec.Adversary)
	w.int(rec.Runs)
	w.svarint(rec.SeedBase)
	w.bool(rec.Stress)
	w.int(rec.Kept)
	w.int(rec.Excluded)
	w.uvarint(uint64(len(rec.ExcludedSeeds)))
	for _, s := range rec.ExcludedSeeds {
		w.svarint(s)
	}
	w.int(rec.Index.Runs)
	w.int(rec.Index.Processes)
	w.int(rec.Index.Points)
	w.int(rec.Index.Classes)
	w.int(rec.Index.Intervals)
	w.uvarint(uint64(len(rec.Verdicts)))
	for _, v := range rec.Verdicts {
		w.svarint(v.Seed)
		w.violations(v.Violations)
	}
	return w.seal(KindExtraction)
}

// DecodeExtractionRecord deserialises a record encoded by
// EncodeExtractionRecord.
func DecodeExtractionRecord(data []byte) (*ExtractionRecord, error) {
	payload, err := unseal(data, KindExtraction)
	if err != nil {
		return nil, err
	}
	r := reader{data: payload}
	rec := &ExtractionRecord{
		Extraction: r.str(),
		Mode:       r.str(),
		T:          r.int(),
		Adversary:  r.str(),
		Runs:       r.int(),
		SeedBase:   r.svarint(),
		Stress:     r.bool(),
		Kept:       r.int(),
		Excluded:   r.int(),
	}
	if count := r.length("excluded seed"); r.err == nil && count > 0 {
		rec.ExcludedSeeds = make([]int64, count)
		for i := range rec.ExcludedSeeds {
			rec.ExcludedSeeds[i] = r.svarint()
		}
	}
	rec.Index = epistemic.Stats{
		Runs:      r.int(),
		Processes: r.int(),
		Points:    r.int(),
		Classes:   r.int(),
		Intervals: r.int(),
	}
	if count := r.length("verdict"); r.err == nil && count > 0 {
		rec.Verdicts = make([]Verdict, count)
		for i := range rec.Verdicts {
			rec.Verdicts[i] = Verdict{Seed: r.svarint(), Violations: r.violations()}
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return rec, nil
}
