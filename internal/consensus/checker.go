package consensus

import (
	"repro/internal/model"
)

// CheckConsensus verifies the uniform consensus properties on a recorded run:
//
//   - Integrity: every process decides at most once.
//   - Uniform agreement: no two processes (correct or faulty) decide
//     different values.
//   - Validity: every decided value was proposed by some process.
//   - Termination: every correct process decides (by the run's horizon).
//
// proposals maps each process to its proposed value; processes missing from
// the map are treated as proposing their own id (matching NewRotating and
// NewMajority).
func CheckConsensus(r *model.Run, proposals map[model.ProcID]int) []model.Violation {
	var out []model.Violation
	proposed := make(map[int]bool, r.N)
	for p := model.ProcID(0); int(p) < r.N; p++ {
		if v, ok := proposals[p]; ok {
			proposed[v] = true
		} else {
			proposed[int(p)] = true
		}
	}

	decisions := make(map[model.ProcID]int)
	for p := model.ProcID(0); int(p) < r.N; p++ {
		count := 0
		evs := r.Events[p]
		for i := range evs {
			e := &evs[i].Event
			if e.Kind != model.EventDo {
				continue
			}
			count++
			if count == 1 {
				decisions[p] = e.Action().Seq
			}
		}
		if count > 1 {
			out = append(out, model.Violationf("integrity", "process %d decided %d times", p, count))
		}
	}

	var firstDecider model.ProcID
	first := true
	for p := model.ProcID(0); int(p) < r.N; p++ {
		v, ok := decisions[p]
		if !ok {
			continue
		}
		if !proposed[v] {
			out = append(out, model.Violationf("validity", "process %d decided %d which nobody proposed", p, v))
		}
		if first {
			firstDecider, first = p, false
			continue
		}
		if decisions[firstDecider] != v {
			out = append(out, model.Violationf("uniform-agreement",
				"process %d decided %d but process %d decided %d", firstDecider, decisions[firstDecider], p, v))
		}
	}

	for _, p := range r.Correct().Members() {
		if _, ok := decisions[p]; !ok {
			out = append(out, model.Violationf("termination",
				"correct process %d did not decide by horizon %d", p, r.Horizon))
		}
	}
	return out
}

// CheckSafety verifies only the safety subset (integrity, uniform agreement,
// validity), which must hold on every run regardless of detector quality or
// horizon length.
func CheckSafety(r *model.Run, proposals map[model.ProcID]int) []model.Violation {
	var out []model.Violation
	for _, v := range CheckConsensus(r, proposals) {
		if v.Rule != "termination" {
			out = append(out, v)
		}
	}
	return out
}

// Decisions extracts the decided value per process from a run.
func Decisions(r *model.Run) map[model.ProcID]int {
	out := make(map[model.ProcID]int)
	for p, a := range r.Decisions() {
		out[p] = a.Seq
	}
	return out
}
