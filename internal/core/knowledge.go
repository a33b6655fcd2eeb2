package core

import (
	"repro/internal/epistemic"
	"repro/internal/model"
)

// This file gives the knowledge-theoretic content of Proposition 3.5 an
// executable form.  The proposition states that (under A1, A2 and A4) before a
// process p can perform a coordination action alpha it must know that, if any
// correct process exists at all, then some correct process knows alpha was
// initiated.  Two artefacts are provided:
//
//   - Prop35Formula builds the paper's formula verbatim for the epistemic
//     model checker, so it can be checked for validity on small systems; and
//   - CheckPerformanceKnowledge checks the operational consequence the proof
//     of Theorem 3.6 actually uses on every do event of a sampled system: the
//     performer knows the initiation happened, and (unless every process is
//     faulty in that run) some correct process knows it too.

// Prop35Formula builds the instance of Proposition 3.5's formula for
// performer p, initiator pPrime and action a over a system with n processes:
//
//	K_p( init(a) /\ AND_q <>(K_q init(a) \/ crash(q)) )
//	  =>  K_p( OR_q []~crash(q)  =>  OR_q ( K_q init(a) /\ []~crash(q) ) )
func Prop35Formula(n int, p model.ProcID, a model.ActionID) epistemic.Formula {
	initiated := epistemic.Initiated(a)

	eventualSpread := make([]epistemic.Formula, 0, n)
	someCorrect := make([]epistemic.Formula, 0, n)
	correctKnower := make([]epistemic.Formula, 0, n)
	for q := model.ProcID(0); int(q) < n; q++ {
		eventualSpread = append(eventualSpread,
			epistemic.Eventually(epistemic.Or(epistemic.Knows(q, initiated), epistemic.Crashed(q))))
		someCorrect = append(someCorrect, epistemic.Always(epistemic.Not(epistemic.Crashed(q))))
		correctKnower = append(correctKnower,
			epistemic.And(epistemic.Knows(q, initiated), epistemic.Always(epistemic.Not(epistemic.Crashed(q)))))
	}

	antecedent := epistemic.Knows(p, epistemic.And(append([]epistemic.Formula{initiated}, eventualSpread...)...))
	consequent := epistemic.Knows(p, epistemic.Implies(epistemic.Or(someCorrect...), epistemic.Or(correctKnower...)))
	return epistemic.Implies(antecedent, consequent)
}

// PerformanceKnowledge records the knowledge state observed at one do event.
type PerformanceKnowledge struct {
	// Run indexes the run within the checked system.
	Run int
	// Proc is the performer and Time the global time of its do event.
	Proc model.ProcID
	Time int
	// Action is the performed action.
	Action model.ActionID
	// PerformerKnowsInit records whether K_proc init(action) held.
	PerformerKnowsInit bool
	// HasCorrectWitness records whether some process that is correct in the
	// run knew init(action) at the moment of the do event; Witness names one.
	HasCorrectWitness bool
	Witness           model.ProcID
}

// CheckPerformanceKnowledge evaluates, for every do event in the system, the
// knowledge condition that Proposition 3.5 shows must hold when a UDC protocol
// performs an action.  It returns one violation per do event at which the
// condition fails, together with the full observation list for reporting.
func CheckPerformanceKnowledge(sys *epistemic.System) ([]PerformanceKnowledge, []model.Violation) {
	var observations []PerformanceKnowledge
	var violations []model.Violation

	for ri := 0; ri < sys.Size(); ri++ {
		r := sys.RunAt(ri)
		correct := r.Correct()
		for p := model.ProcID(0); int(p) < r.N; p++ {
			evs := r.Events[p]
			for i := range evs {
				te := &evs[i]
				if te.Event.Kind != model.EventDo {
					continue
				}
				a := te.Event.Action()
				if a.IsZero() {
					continue
				}
				pt := epistemic.Point{Run: ri, Time: te.Time}
				obs := PerformanceKnowledge{Run: ri, Proc: p, Time: te.Time, Action: a}
				obs.PerformerKnowsInit = sys.Eval(epistemic.Knows(p, epistemic.Initiated(a)), pt)
				for _, q := range correct.Members() {
					if sys.Eval(epistemic.Knows(q, epistemic.Initiated(a)), pt) {
						obs.HasCorrectWitness = true
						obs.Witness = q
						break
					}
				}
				observations = append(observations, obs)

				if !obs.PerformerKnowsInit {
					violations = append(violations, model.Violationf("prop3.5",
						"run %d: process %d performed %v at %d without knowing it was initiated", ri, p, a, te.Time))
				}
				if !correct.IsEmpty() && !obs.HasCorrectWitness {
					violations = append(violations, model.Violationf("prop3.5",
						"run %d: process %d performed %v at %d but no correct process knew of its initiation", ri, p, a, te.Time))
				}
			}
		}
	}
	return observations, violations
}
