package fd

import "repro/internal/model"

// This file implements the failure-detector conversions discussed in
// Section 2.2 and Section 4 of the paper.
//
// Two styles of conversion are provided, matching the paper's two uses:
//
//   - Oracle-level wrappers transform one detector class into another online,
//     to be plugged into the simulator.  They correspond to running the
//     conversion protocol alongside the application (Proposition 2.1's
//     gossiping of suspicions is collapsed to an adjustable delay, justified
//     by fair channels: every suspicion a correct process reports is
//     eventually heard by all correct processes).
//   - Run-level transformations rewrite the failure-detector events of a
//     recorded run, as in the paper's notion of converting a system R into a
//     system R' by a mapping f on runs (used by Proposition 2.2 and by the
//     generalized <-> perfect conversions of Section 4).

// GossipOracle converts a detector satisfying weak (resp. impermanent-weak)
// completeness into one satisfying strong (resp. impermanent-strong)
// completeness while preserving accuracy (Proposition 2.1).  Each process's
// report is the union of the reports the inner detector gives to all
// processes that have not yet crashed, delayed by Delay steps: this is what
// each correct process would eventually learn by the paper's
// "communicate your suspicions" construction over fair channels.
type GossipOracle struct {
	// Inner is the detector whose suspicions are gossiped.
	Inner Oracle
	// Delay is the gossip propagation delay in steps.
	Delay int
}

// Name implements Oracle.
func (o GossipOracle) Name() string { return "gossip(" + o.Inner.Name() + ")" }

// Report implements Oracle.
func (o GossipOracle) Report(p model.ProcID, now int, gt GroundTruth) (model.SuspectReport, bool) {
	then := now - o.Delay
	if then < 0 {
		then = 0
	}
	union := model.EmptySet()
	any := false
	for q := model.ProcID(0); int(q) < gt.N(); q++ {
		// Crashed processes stop gossiping; their earlier suspicions would
		// already have propagated, but accuracy is preserved either way, so we
		// conservatively drop them.
		if gt.CrashedBy(q, then) && q != p {
			continue
		}
		rep, ok := o.Inner.Report(q, then, gt)
		if !ok {
			continue
		}
		suspects, isStandard := rep.StandardSuspects(gt.N())
		if !isStandard {
			continue
		}
		union = union.Union(suspects)
		any = true
	}
	if !any {
		return model.SuspectReport{}, false
	}
	return model.SuspectReport{Suspects: union}, true
}

// CumulativeOracle converts a detector satisfying impermanent strong
// completeness into one satisfying strong completeness by always reporting
// the union of everything the inner detector has reported so far
// (Proposition 2.2: "always outputting the list of all previously suspected
// processes").  Because oracles are pure functions of (p, now, ground truth),
// the union is recomputed by replaying the inner detector.
type CumulativeOracle struct {
	// Inner is the detector whose reports are accumulated.
	Inner Oracle
	// Step is the query period used when replaying the inner detector; it
	// should match the simulator's SuspectEvery setting.  Zero means 1.
	Step int
}

// Name implements Oracle.
func (o CumulativeOracle) Name() string { return "cumulative(" + o.Inner.Name() + ")" }

// Report implements Oracle.
func (o CumulativeOracle) Report(p model.ProcID, now int, gt GroundTruth) (model.SuspectReport, bool) {
	step := o.Step
	if step <= 0 {
		step = 1
	}
	union := model.EmptySet()
	any := false
	for t := 0; t <= now; t += step {
		rep, ok := o.Inner.Report(p, t, gt)
		if !ok {
			continue
		}
		suspects, isStandard := rep.StandardSuspects(gt.N())
		if !isStandard {
			continue
		}
		union = union.Union(suspects)
		any = true
	}
	if !any {
		return model.SuspectReport{}, false
	}
	return model.SuspectReport{Suspects: union}, true
}

// CumulativeRun rewrites a recorded run so that each standard
// failure-detector report is replaced by the union of all standard reports the
// same process received up to and including that point (Proposition 2.2 as a
// run transformation).  All other events are untouched.
func CumulativeRun(r *model.Run) *model.Run {
	out := r.Clone()
	for p := range out.Events {
		acc := model.EmptySet()
		evs := out.Events[p]
		for i := range evs {
			e := &evs[i].Event
			if e.Kind != model.EventSuspect {
				continue
			}
			rep := e.Report()
			if rep.Generalized {
				continue
			}
			acc = acc.Union(rep.Suspects)
			rep.Suspects = acc
			e.SetReport(&rep)
		}
	}
	return out
}

// PerfectFromGeneralizedRun rewrites a recorded run by converting generalized
// reports (S, k) with k = |S| into standard reports, accumulating the union of
// all such fully-faulty groups seen so far (the (n-1)-useful-to-perfect
// conversion described before Proposition 4.1).  Generalized reports with
// k < |S| carry no certain information about individual processes and are
// dropped; standard reports are passed through unchanged.
func PerfectFromGeneralizedRun(r *model.Run) *model.Run {
	out := r.Clone()
	for p := range out.Events {
		acc := model.EmptySet()
		evs := out.Events[p]
		rewritten := make([]model.TimedEvent, 0, len(evs))
		for i := range evs {
			if group, k, ok := evs[i].Event.GeneralizedReport(); ok {
				if k != group.Count() || k == 0 {
					// Uninformative for a perfect detector; drop.
					continue
				}
				acc = acc.Union(group)
				evs[i].Event.SetReport(&model.SuspectReport{Suspects: acc})
			}
			rewritten = append(rewritten, evs[i])
		}
		out.Events[p] = rewritten
	}
	return out
}

var (
	_ Oracle = GossipOracle{}
	_ Oracle = CumulativeOracle{}
)
