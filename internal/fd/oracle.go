package fd

import (
	"math/bits"

	"repro/internal/model"
)

// GroundTruth exposes the failure pattern of the run in progress to a
// failure-detector oracle.  As in Chandra & Toueg, a failure detector is a
// function of the failure pattern: oracles may consult which processes have
// crashed (and, for the weaker classes, which are scheduled to crash) but see
// nothing else about the execution.
type GroundTruth interface {
	// N returns the number of processes.
	N() int
	// CrashedBy reports whether q has crashed at or before time now.
	CrashedBy(q model.ProcID, now int) bool
	// CrashTime returns the (scheduled or actual) crash time of q, if q is
	// faulty in this run.
	CrashTime(q model.ProcID) (int, bool)
	// Faulty returns F(r): the set of processes that crash at some point in
	// this run.
	Faulty() model.ProcSet
}

// Oracle is a failure detector.  Report is called by the simulator whenever a
// process queries (or is pushed a report by) its detector; returning ok=false
// means no report is emitted at this time.
type Oracle interface {
	// Name identifies the detector class, e.g. "perfect", "strong".
	Name() string
	// Report returns the report to deliver to process p at time now.
	Report(p model.ProcID, now int, gt GroundTruth) (model.SuspectReport, bool)
}

// crashedSet returns the set of processes that have crashed by time now.
func crashedSet(gt GroundTruth, now int) model.ProcSet {
	var s model.ProcSet
	for f := gt.Faulty(); f != 0; f &= f - 1 {
		if q := lowest(f); gt.CrashedBy(q, now) {
			s = s.Add(q)
		}
	}
	return s
}

// lowest returns the lowest-numbered member of the non-empty set s.
func lowest(s model.ProcSet) model.ProcID {
	return model.ProcID(bits.TrailingZeros64(uint64(s)))
}

// shieldedProcess returns the lowest-numbered correct process of the run, the
// canonical witness for weak accuracy ("some correct process is never
// suspected").  If every process is faulty it returns false; weak accuracy is
// then vacuous (the paper's definitions of weak accuracy and weak completeness
// only constrain runs with at least one correct process).
func shieldedProcess(gt GroundTruth) (model.ProcID, bool) {
	faulty := gt.Faulty()
	for p := model.ProcID(0); int(p) < gt.N(); p++ {
		if !faulty.Has(p) {
			return p, true
		}
	}
	return 0, false
}
