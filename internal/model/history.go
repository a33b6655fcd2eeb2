package model

// History is the sequence of events recorded at one process, in the order they
// occurred (Section 2.1: "the events that take place at a particular process
// are totally ordered, and are recorded in that process's history").
type History []Event

// Contains reports whether the history contains an event for which match
// returns true.
func (h History) Contains(match func(Event) bool) bool {
	for _, e := range h {
		if match(e) {
			return true
		}
	}
	return false
}

// Count returns the number of events for which match returns true.
func (h History) Count(match func(Event) bool) int {
	c := 0
	for _, e := range h {
		if match(e) {
			c++
		}
	}
	return c
}

// Crashed reports whether the history contains a crash event.
func (h History) Crashed() bool {
	return h.Contains(func(e Event) bool { return e.Kind == EventCrash })
}

// Did reports whether the history contains do(a).
func (h History) Did(a ActionID) bool {
	return h.Contains(func(e Event) bool { return e.Kind == EventDo && e.actionIs(a) })
}

// Initiated reports whether the history contains init(a).
func (h History) Initiated(a ActionID) bool {
	return h.Contains(func(e Event) bool { return e.Kind == EventInit && e.actionIs(a) })
}

// LastSuspectReport returns the most recent failure-detector report in the
// history and whether one exists.  Following the paper's definition of
// Suspects_p(r, m), only the most recent report counts.
func (h History) LastSuspectReport() (SuspectReport, bool) {
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].Kind == EventSuspect {
			return h[i].Report(), true
		}
	}
	return SuspectReport{}, false
}

// Suspects returns Suspects_p(r, m) for this history: the suspected set of the
// most recent *standard* failure-detector report, or the empty set if there
// has been none (or the most recent report is generalized).  For g-standard
// "these processes are correct" reports, which need the system size to be
// interpreted, use Run.SuspectsAt instead.
func (h History) Suspects() ProcSet {
	rep, ok := h.LastSuspectReport()
	if !ok || rep.Generalized {
		return EmptySet()
	}
	return rep.Suspects
}

// Cut is a tuple of finite histories, one per process.
type Cut []History
