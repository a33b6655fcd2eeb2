package model

import "fmt"

// Violation describes one violation of a run condition or protocol property.
type Violation struct {
	// Rule names the violated condition, e.g. "R3", "DC2", "strong-accuracy".
	Rule string
	// Detail is a human-readable description of the violation.
	Detail string
}

// String implements fmt.Stringer.
func (v Violation) String() string { return v.Rule + ": " + v.Detail }

// Violationf constructs a Violation with a formatted detail string.
func Violationf(rule, format string, args ...any) Violation {
	return Violation{Rule: rule, Detail: fmt.Sprintf(format, args...)}
}

// ValidateOptions tunes run validation.
type ValidateOptions struct {
	// FairnessThreshold is the number of sends of the same message on one
	// channel after which condition R5 is checked on the finite trace: if a
	// message was sent at least FairnessThreshold times to a process that
	// never crashed and was never received, the run is flagged.  R5 is a
	// liveness property of infinite runs, so on finite traces this is
	// necessarily a heuristic; 0 disables the check.
	FairnessThreshold int
}

// DefaultValidateOptions returns the options used by the test suite.
func DefaultValidateOptions() ValidateOptions {
	return ValidateOptions{FairnessThreshold: 50}
}

// Validate checks the run conditions R1-R5 of Section 2.1 on a recorded run
// and returns all violations found.  R1 and R2 are guaranteed by construction
// of Run but re-checked here for defence in depth.
func Validate(r *Run, opts ValidateOptions) []Violation {
	var out []Violation
	out = append(out, checkEvents(r)...)
	out = append(out, checkR2(r)...)
	out = append(out, checkR3(r)...)
	out = append(out, checkR4(r)...)
	if opts.FairnessThreshold > 0 {
		out = append(out, checkR5(r, opts.FairnessThreshold)...)
	}
	return out
}

// checkEvents verifies that every event is one of the six forms of Section
// 2.1 over the run's processes (Event.Check).
func checkEvents(r *Run) []Violation {
	var out []Violation
	for p := ProcID(0); int(p) < r.N; p++ {
		evs := r.Events[p]
		for i := range evs {
			if err := evs[i].Event.Check(r.N); err != nil {
				out = append(out, Violationf("event", "process %d event %d: %v", p, i, err))
			}
		}
	}
	return out
}

// checkR2 verifies that per-process event times are nondecreasing and within
// the horizon.
func checkR2(r *Run) []Violation {
	var out []Violation
	for p := ProcID(0); int(p) < r.N; p++ {
		prev := -1
		evs := r.Events[p]
		for i := range evs {
			te := &evs[i]
			if te.Time < prev {
				out = append(out, Violationf("R2", "process %d event %d at time %d precedes time %d", p, i, te.Time, prev))
			}
			if te.Time > r.Horizon {
				out = append(out, Violationf("R2", "process %d event %d at time %d exceeds horizon %d", p, i, te.Time, r.Horizon))
			}
			prev = te.Time
		}
	}
	return out
}

type channelMsg struct {
	from, to ProcID
	key      string
}

// checkR3 verifies that every receive has a matching earlier-or-simultaneous
// send: at every receive time m, the number of recv_q(p, msg) events in
// r_q(m) must not exceed the number of send_p(q, msg) events in r_p(m).
func checkR3(r *Run) []Violation {
	var out []Violation
	for q := ProcID(0); int(q) < r.N; q++ {
		recvCount := make(map[channelMsg]int)
		recvs := r.Events[q]
		for i := range recvs {
			te := &recvs[i]
			if te.Event.Kind != EventRecv {
				continue
			}
			cm := channelMsg{from: te.Event.Peer, to: q, key: te.Event.Msg().Key()}
			recvCount[cm]++
			sends := 0
			sent := r.Events[te.Event.Peer]
			for j := range sent {
				se := &sent[j]
				if se.Time > te.Time {
					break
				}
				if se.Event.Kind == EventSend && se.Event.Peer == q && se.Event.Msg().Key() == cm.key {
					sends++
				}
			}
			if recvCount[cm] > sends {
				out = append(out, Violationf("R3",
					"process %d received %q from %d %d times by time %d but only %d matching sends exist",
					q, cm.key, cm.from, recvCount[cm], te.Time, sends))
			}
		}
	}
	return out
}

// checkR4 verifies that a crash event, if present, is the last event in the
// history.
func checkR4(r *Run) []Violation {
	var out []Violation
	for p := ProcID(0); int(p) < r.N; p++ {
		evs := r.Events[p]
		for i := range evs {
			if evs[i].Event.Kind == EventCrash && i != len(evs)-1 {
				out = append(out, Violationf("R4", "process %d has crash at position %d of %d", p, i, len(evs)))
			}
		}
	}
	return out
}

// checkR5 applies the finite-trace fairness heuristic described in
// ValidateOptions.
func checkR5(r *Run, threshold int) []Violation {
	var out []Violation
	sendCount := make(map[channelMsg]int)
	recvSeen := make(map[channelMsg]bool)
	for p := ProcID(0); int(p) < r.N; p++ {
		evs := r.Events[p]
		for i := range evs {
			te := &evs[i]
			switch te.Event.Kind {
			case EventSend:
				cm := channelMsg{from: p, to: te.Event.Peer, key: te.Event.Msg().Key()}
				sendCount[cm]++
			case EventRecv:
				cm := channelMsg{from: te.Event.Peer, to: p, key: te.Event.Msg().Key()}
				recvSeen[cm] = true
			}
		}
	}
	for cm, c := range sendCount {
		if c < threshold {
			continue
		}
		if _, crashed := r.CrashTime(cm.to); crashed {
			continue
		}
		if !recvSeen[cm] {
			out = append(out, Violationf("R5",
				"message %q sent %d times from %d to never-crashed %d but never received", cm.key, c, cm.from, cm.to))
		}
	}
	return out
}
