package core

import (
	"repro/internal/model"
)

// This file implements the UDC and nUDC specifications of Section 2.4 as
// checkers over recorded runs.
//
// DC1.  init_p(alpha) => <>(do_p(alpha) \/ crash(p))
// DC2.  do_q1(alpha)  => <>(do_q2(alpha) \/ crash(q2))           for all q1, q2
// DC3.  do_q2(alpha)  => init_p(alpha)                           for all q2
// DC2'. do_q1(alpha)  => <>(do_q2(alpha) \/ crash(q2) \/ crash(q1))
//
// "Eventually" is interpreted on the finite horizon of the run.  DC1 and DC2
// (DC2') are liveness clauses read at the horizon, so a violation of either
// may be pending: a longer run could still repair it.  DC3 is a safety clause,
// so a violation of it is final.

// Message kinds shared by the UDC protocols in this package, interned once.
var (
	// MsgAlpha asks the receiver to (enter the UDC state for and) perform the
	// action carried in the message.
	MsgAlpha = model.Kind("alpha")
	// MsgAck acknowledges an alpha message.
	MsgAck = model.Kind("ack")
)

// CheckUDC verifies DC1-DC3 for the given actions on the run.  If no actions
// are given, every action initiated in the run is checked.
func CheckUDC(r *model.Run, actions ...model.ActionID) []model.Violation {
	return checkDC(r, actions, false)
}

// CheckNUDC verifies DC1, DC2' and DC3 for the given actions on the run.  If
// no actions are given, every action initiated in the run is checked.
func CheckNUDC(r *model.Run, actions ...model.ActionID) []model.Violation {
	return checkDC(r, actions, true)
}

// checkDC verifies DC1, DC2 (DC2' if nonUniform) and DC3, action by action.
func checkDC(r *model.Run, actions []model.ActionID, nonUniform bool) []model.Violation {
	if len(actions) == 0 {
		actions = r.InitiatedActions()
	}
	var out []model.Violation
	for _, a := range actions {
		out = append(out, checkDC1(r, a)...)
		out = append(out, checkDC2(r, a, nonUniform)...)
		out = append(out, checkDC3(r, a)...)
	}
	return out
}

// checkDC1 verifies that the initiator of a performs it or crashes.
func checkDC1(r *model.Run, a model.ActionID) []model.Violation {
	if _, ok := r.InitTime(a); !ok {
		return nil
	}
	p := a.Initiator
	if _, did := r.DoTime(p, a); did {
		return nil
	}
	if _, crashed := r.CrashTime(p); crashed {
		return nil
	}
	return []model.Violation{model.Violationf("DC1",
		"initiator %d of %v neither performed it nor crashed by horizon %d", p, a, r.Horizon)}
}

// checkDC2 verifies the uniform (nonUniform=false) or non-uniform
// (nonUniform=true) agreement clause.
func checkDC2(r *model.Run, a model.ActionID, nonUniform bool) []model.Violation {
	var out []model.Violation
	for q1 := model.ProcID(0); int(q1) < r.N; q1++ {
		if _, did := r.DoTime(q1, a); !did {
			continue
		}
		if nonUniform {
			if _, crashed := r.CrashTime(q1); crashed {
				// DC2' only obliges others when some performer is correct.
				continue
			}
		}
		for q2 := model.ProcID(0); int(q2) < r.N; q2++ {
			if _, did := r.DoTime(q2, a); did {
				continue
			}
			if _, crashed := r.CrashTime(q2); crashed {
				continue
			}
			rule := "DC2"
			if nonUniform {
				rule = "DC2'"
			}
			out = append(out, model.Violationf(rule,
				"process %d performed %v but correct process %d never did (horizon %d)", q1, a, q2, r.Horizon))
		}
		if nonUniform {
			// One correct performer is enough to generate all obligations.
			break
		}
	}
	return out
}

// checkDC3 verifies that no process performs a before it was initiated.
func checkDC3(r *model.Run, a model.ActionID) []model.Violation {
	var out []model.Violation
	initAt, initiated := r.InitTime(a)
	for q := model.ProcID(0); int(q) < r.N; q++ {
		doAt, did := r.DoTime(q, a)
		if !did {
			continue
		}
		if !initiated {
			out = append(out, model.Violationf("DC3",
				"process %d performed %v which was never initiated", q, a))
			continue
		}
		if doAt < initAt {
			out = append(out, model.Violationf("DC3",
				"process %d performed %v at time %d before its initiation at %d", q, a, doAt, initAt))
		}
	}
	return out
}

// CoordinationLatency returns, for one action, the delay between its
// initiation and the last do event of a correct process, and whether every
// correct process performed it.
func CoordinationLatency(r *model.Run, a model.ActionID) (latency int, complete bool) {
	initAt, ok := r.InitTime(a)
	if !ok {
		return 0, false
	}
	last := initAt
	complete = true
	correct := r.Correct()
	for q := model.ProcID(0); int(q) < r.N; q++ {
		if !correct.Has(q) {
			continue
		}
		t, did := r.DoTime(q, a)
		if !did {
			complete = false
			continue
		}
		if t > last {
			last = t
		}
	}
	return last - initAt, complete
}
