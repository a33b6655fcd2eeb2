// Package service implements the replicated fault-tolerant service that
// motivates UDC in the paper's introduction: a group of replicas executes
// state-changing actions (here, allocations of a scarce resource) on behalf of
// clients, and the service must not repudiate an action merely because the
// replica that accepted it is later deemed faulty.  Uniform Distributed
// Coordination is exactly the guarantee that every accepted allocation becomes
// part of the service's communal history at every correct replica.
package service

import (
	"sort"

	"repro/internal/model"
)

// Request is a client request to allocate Units of the resource, submitted
// through a particular replica.  The (Replica, Seq) pair identifies the
// request and doubles as the UDC action that commits it.
type Request struct {
	Replica model.ProcID
	Seq     int
	Units   int
	Client  string
}

// ActionFor maps a request onto the coordination action that commits it.
func ActionFor(req Request) model.ActionID {
	return model.ActionID{Initiator: req.Replica, Seq: req.Seq}
}

// State is a replica's view of the service after replaying its committed
// allocations.
type State struct {
	// Applied lists the committed requests in the canonical apply order.
	Applied []Request
	// Allocated is the total number of units handed out.
	Allocated int
	// Remaining is Capacity minus Allocated (may go negative if the workload
	// over-commits; UDC does not arbitrate conflicts, it only guarantees
	// uniformity, as Section 2.4 stresses).
	Remaining int
}

// BuildState replays the do events of replica p against the request table and
// returns the resulting state.  Commits are applied in a canonical order
// (sorted by action id) so that replicas that learned of them in different
// orders still converge; this is the "non-conflicting actions" reading of UDC
// from the introduction.
func BuildState(r *model.Run, p model.ProcID, requests []Request, capacity int) State {
	byAction := make(map[model.ActionID]Request, len(requests))
	for _, req := range requests {
		byAction[ActionFor(req)] = req
	}
	var applied []Request
	evs := r.Events[p]
	for i := range evs {
		e := &evs[i].Event
		if e.Kind != model.EventDo {
			continue
		}
		if req, ok := byAction[e.Action()]; ok {
			applied = append(applied, req)
		}
	}
	sort.Slice(applied, func(i, j int) bool {
		if applied[i].Replica != applied[j].Replica {
			return applied[i].Replica < applied[j].Replica
		}
		return applied[i].Seq < applied[j].Seq
	})
	st := State{Applied: applied}
	for _, req := range applied {
		st.Allocated += req.Units
	}
	st.Remaining = capacity - st.Allocated
	return st
}

// Fingerprint returns a canonical string identifying the set of applied
// requests, used to compare replica states.
func (s State) Fingerprint() string {
	out := ""
	for _, req := range s.Applied {
		out += req.Client + "#" + itoa(int(req.Replica)) + "." + itoa(req.Seq) + ":" + itoa(req.Units) + ";"
	}
	return out
}

// CheckConvergence verifies the service-level guarantees on a run:
//
//   - every correct replica ends with the same applied set (a consequence of
//     UDC's DC2), and
//   - every applied request was actually submitted (DC3), and
//   - if any replica (even one that later crashed) applied a request, every
//     correct replica applied it — the non-repudiation property from the
//     introduction.
func CheckConvergence(r *model.Run, requests []Request, capacity int) []model.Violation {
	var out []model.Violation
	correct := r.Correct().Members()
	if len(correct) == 0 {
		return nil
	}

	states := make(map[model.ProcID]State, r.N)
	for p := model.ProcID(0); int(p) < r.N; p++ {
		states[p] = BuildState(r, p, requests, capacity)
	}

	reference := states[correct[0]]
	for _, p := range correct[1:] {
		if states[p].Fingerprint() != reference.Fingerprint() {
			out = append(out, model.Violationf("service-convergence",
				"replica %d state %q differs from replica %d state %q",
				p, states[p].Fingerprint(), correct[0], reference.Fingerprint()))
		}
	}

	known := make(map[model.ActionID]bool, len(requests))
	for _, req := range requests {
		known[ActionFor(req)] = true
	}
	appliedByCorrect := make(map[model.ActionID]bool)
	for _, req := range reference.Applied {
		appliedByCorrect[ActionFor(req)] = true
	}
	for p := model.ProcID(0); int(p) < r.N; p++ {
		evs := r.Events[p]
		for i := range evs {
			if evs[i].Event.Kind != model.EventDo {
				continue
			}
			a := evs[i].Event.Action()
			if !known[a] {
				out = append(out, model.Violationf("service-unknown-request",
					"replica %d applied %v which no client submitted", p, a))
				continue
			}
			if !appliedByCorrect[a] {
				out = append(out, model.Violationf("service-repudiation",
					"replica %d applied %v but the correct replicas' state omits it", p, a))
			}
		}
	}
	return out
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
