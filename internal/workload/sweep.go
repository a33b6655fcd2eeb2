package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sim"
)

// Evaluator checks a property on a recorded run and returns its violations.
// It must not retain r or alias it in what it returns: SweepAll hands it a run
// borrowed from the engine, overwritten by that engine's next seed.
type Evaluator func(r *model.Run) []model.Violation

// UDCEvaluator checks the uniform specification (DC1-DC3) on all initiated
// actions.
func UDCEvaluator(r *model.Run) []model.Violation { return core.CheckUDC(r) }

// NUDCEvaluator checks the non-uniform specification (DC1, DC2', DC3).
func NUDCEvaluator(r *model.Run) []model.Violation { return core.CheckNUDC(r) }

// RunOutcome is the evaluation of a single seed.
type RunOutcome struct {
	Seed       int64
	Stats      sim.Stats
	Violations []model.Violation
	// LatencySum and LatencyActions aggregate init-to-last-correct-do latency
	// over the actions that completed.
	LatencySum     int
	LatencyActions int
}

// OK reports whether the seed's run satisfied the evaluated property.
func (o RunOutcome) OK() bool { return len(o.Violations) == 0 }

// SweepResult aggregates a scenario swept over several seeds.
type SweepResult struct {
	Spec     Spec
	Outcomes []RunOutcome
}

// Successes returns the number of seeds with no violations.
func (s SweepResult) Successes() int {
	ok := 0
	for _, o := range s.Outcomes {
		if o.OK() {
			ok++
		}
	}
	return ok
}

// SuccessRate returns the fraction of seeds with no violations.
func (s SweepResult) SuccessRate() float64 {
	if len(s.Outcomes) == 0 {
		return 0
	}
	return float64(s.Successes()) / float64(len(s.Outcomes))
}

// TotalViolations returns the number of violations across all seeds.
func (s SweepResult) TotalViolations() int {
	total := 0
	for _, o := range s.Outcomes {
		total += len(o.Violations)
	}
	return total
}

// MeanMessages returns the mean number of messages sent per run.
func (s SweepResult) MeanMessages() float64 {
	if len(s.Outcomes) == 0 {
		return 0
	}
	total := 0
	for _, o := range s.Outcomes {
		total += o.Stats.MessagesSent
	}
	return float64(total) / float64(len(s.Outcomes))
}

// MeanLatency returns the mean init-to-completion latency (in steps) across
// all completed actions of all runs, or -1 if no action completed.
func (s SweepResult) MeanLatency() float64 {
	sum, count := 0, 0
	for _, o := range s.Outcomes {
		sum += o.LatencySum
		count += o.LatencyActions
	}
	if count == 0 {
		return -1
	}
	return float64(sum) / float64(count)
}

// String renders a one-line summary.
func (s SweepResult) String() string {
	return fmt.Sprintf("%-34s ok=%d/%d msgs=%8.0f latency=%6.1f violations=%d",
		s.Spec.Name, s.Successes(), len(s.Outcomes), s.MeanMessages(), s.MeanLatency(), s.TotalViolations())
}

// ScoreRun scores one recorded run.  The serial and parallel sweeps — and the
// benchmark harness — all share it, so per-seed outcomes are identical by
// construction everywhere.  A nil evaluator is Task's simulate-only: the
// outcome carries the seed and the counters, and no pass over the run is made.
// The outcome retains nothing of res, so res may be a borrowed result.
func ScoreRun(res *sim.Result, seed int64, eval Evaluator) RunOutcome {
	outcome := RunOutcome{Seed: seed, Stats: res.Stats}
	if eval == nil {
		return outcome
	}
	outcome.Violations = eval(res.Run)
	// A sum and a count do not depend on order, so the init events are walked
	// where they lie rather than collected and sorted by InitiatedActions.
	for _, evs := range res.Run.Events {
		for i := range evs {
			if e := &evs[i].Event; e.Kind == model.EventInit {
				if lat, complete := core.CoordinationLatency(res.Run, e.Action()); complete {
					outcome.LatencySum += lat
					outcome.LatencyActions++
				}
			}
		}
	}
	return outcome
}

// Sweep runs the scenario for every seed, serially on one engine, and
// evaluates each run with eval.  It is the reference implementation for
// Runner, which distributes the same work over a pool of engines.
func Sweep(spec Spec, seeds []int64, eval Evaluator) (SweepResult, error) {
	eng := sim.NewEngine()
	result := SweepResult{Spec: spec, Outcomes: make([]RunOutcome, 0, len(seeds))}
	for _, seed := range seeds {
		res, err := ExecuteWith(eng, spec, seed)
		if err != nil {
			return SweepResult{}, err
		}
		result.Outcomes = append(result.Outcomes, ScoreRun(res, seed, eval))
	}
	return result, nil
}
