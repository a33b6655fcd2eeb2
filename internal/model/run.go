package model

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// TimedEvent pairs an event with the global time at which it was appended to
// its process's history.  Storing per-process timed event sequences is an
// equivalent, compact representation of the paper's run-as-function-from-time-
// to-cuts: the cut at time m is obtained by truncating each sequence to events
// with Time <= m.
type TimedEvent struct {
	Time  int   `json:"time"`
	Event Event `json:"event"`
}

// Run is a recorded execution.  It corresponds to the paper's notion of a run
// restricted to a finite horizon [0, Horizon].
type Run struct {
	// N is the number of processes.
	N int `json:"n"`
	// Horizon is the last global time of the run.
	Horizon int `json:"horizon"`
	// Events holds, for each process, its timed local history.  Times within
	// one process are nondecreasing.
	Events [][]TimedEvent `json:"events"`
}

// NewRun returns an empty run over n processes.
func NewRun(n int) *Run {
	return NewRunCap(n, 0)
}

// NewRunCap returns an empty run over n processes whose per-process event
// buffers are pre-sized to hold capHint events each without reallocating.
// The simulator derives the hint from its configuration so that the append
// path in hot sweep loops does not repeatedly grow the buffers.
func NewRunCap(n, capHint int) *Run {
	r := &Run{N: n, Events: make([][]TimedEvent, n)}
	if capHint > 0 {
		for p := range r.Events {
			r.Events[p] = make([]TimedEvent, 0, capHint)
		}
	}
	return r
}

// Append records that event e occurred at process p at global time t.  It
// returns an error if the append would violate R2 (monotone time), R4 (crash
// is final) or the basic bounds of the run.
func (r *Run) Append(p ProcID, t int, e Event) error {
	if int(p) < 0 || int(p) >= r.N {
		return fmt.Errorf("append: process %d out of range [0,%d)", p, r.N)
	}
	if t < 0 {
		return fmt.Errorf("append: negative time %d", t)
	}
	evs := r.Events[p]
	if len(evs) > 0 {
		last := &evs[len(evs)-1]
		if t < last.Time {
			return fmt.Errorf("append: time %d before last event time %d at process %d", t, last.Time, p)
		}
		if last.Event.Kind == EventCrash {
			return fmt.Errorf("append: process %d already crashed (R4)", p)
		}
	}
	r.Events[p] = append(evs, TimedEvent{Time: t, Event: e})
	if t > r.Horizon {
		r.Horizon = t
	}
	return nil
}

// SetHorizon extends the run's horizon to at least t (a run may end later than
// its last event).
func (r *Run) SetHorizon(t int) {
	if t > r.Horizon {
		r.Horizon = t
	}
}

// HistoryAt returns r_p(m): p's history at time m.
func (r *Run) HistoryAt(p ProcID, m int) History {
	evs := r.Events[p]
	k := sort.Search(len(evs), func(i int) bool { return evs[i].Time > m })
	h := make(History, k)
	for i := 0; i < k; i++ {
		h[i] = evs[i].Event
	}
	return h
}

// PrefixLen returns the number of events in r_p(m) without materialising the
// history.
func (r *Run) PrefixLen(p ProcID, m int) int {
	evs := r.Events[p]
	return sort.Search(len(evs), func(i int) bool { return evs[i].Time > m })
}

// FinalHistory returns p's complete history at the run's horizon.
func (r *Run) FinalHistory(p ProcID) History {
	evs := r.Events[p]
	h := make(History, len(evs))
	for i := range evs {
		h[i] = evs[i].Event
	}
	return h
}

// EventAt returns the i'th event of p's history (0-based) along with its time.
func (r *Run) EventAt(p ProcID, i int) (TimedEvent, bool) {
	evs := r.Events[p]
	if i < 0 || i >= len(evs) {
		return TimedEvent{}, false
	}
	return evs[i], true
}

// Faulty returns F(r): the set of processes whose history contains a crash
// event.
func (r *Run) Faulty() ProcSet {
	var f ProcSet
	for p := ProcID(0); int(p) < r.N; p++ {
		if ct, ok := r.CrashTime(p); ok && ct <= r.Horizon {
			f = f.Add(p)
		}
	}
	return f
}

// Correct returns Proc - F(r).
func (r *Run) Correct() ProcSet {
	return FullSet(r.N).Diff(r.Faulty())
}

// CrashTime returns the time of p's crash event, if any.  R4 (crash is
// final) is enforced by Append and ValidateStructure, so only the last event
// can be a crash.
func (r *Run) CrashTime(p ProcID) (int, bool) {
	evs := r.Events[p]
	if n := len(evs); n > 0 && evs[n-1].Event.Kind == EventCrash {
		return evs[n-1].Time, true
	}
	return 0, false
}

// CrashedBy reports whether p has crashed by time m (inclusive).
func (r *Run) CrashedBy(p ProcID, m int) bool {
	t, ok := r.CrashTime(p)
	return ok && t <= m
}

// SuspectsAt returns Suspects_p(r, m): the suspected set of p's most recent
// standard failure-detector report at or before time m.
func (r *Run) SuspectsAt(p ProcID, m int) ProcSet {
	evs := r.Events[p]
	k := sort.Search(len(evs), func(i int) bool { return evs[i].Time > m })
	for i := k - 1; i >= 0; i-- {
		if evs[i].Event.Kind == EventSuspect {
			suspects, ok := evs[i].Event.StandardSuspects(r.N)
			if !ok {
				return EmptySet()
			}
			return suspects
		}
	}
	return EmptySet()
}

// InitTime returns the time at which action a was initiated in the run, if it
// was.
func (r *Run) InitTime(a ActionID) (int, bool) {
	evs := r.Events[a.Initiator]
	for i := range evs {
		if e := &evs[i].Event; e.Kind == EventInit && e.actionIs(a) {
			return evs[i].Time, true
		}
	}
	return 0, false
}

// DoTime returns the time at which process p performed action a, if it did.
func (r *Run) DoTime(p ProcID, a ActionID) (int, bool) {
	evs := r.Events[p]
	for i := range evs {
		if e := &evs[i].Event; e.Kind == EventDo && e.actionIs(a) {
			return evs[i].Time, true
		}
	}
	return 0, false
}

// InitiatedActions returns every action initiated anywhere in the run, sorted
// by (initiator, seq).
func (r *Run) InitiatedActions() []ActionID {
	var out []ActionID
	for p := ProcID(0); int(p) < r.N; p++ {
		evs := r.Events[p]
		for i := range evs {
			if e := &evs[i].Event; e.Kind == EventInit {
				out = append(out, e.Action())
			}
		}
	}
	slices.SortFunc(out, func(a, b ActionID) int {
		return cmp.Or(cmp.Compare(a.Initiator, b.Initiator), cmp.Compare(a.Seq, b.Seq))
	})
	return out
}

// Decisions returns, for each process that recorded at least one do event, the
// action of its first do event.  Consensus protocols in this repository record
// their decision as a single do event whose ActionID.Seq encodes the decided
// value.
func (r *Run) Decisions() map[ProcID]ActionID {
	out := make(map[ProcID]ActionID)
	for p := ProcID(0); int(p) < r.N; p++ {
		evs := r.Events[p]
		for i := range evs {
			if e := &evs[i].Event; e.Kind == EventDo {
				out[p] = e.Action()
				break
			}
		}
	}
	return out
}

// EventCount returns the total number of events across all histories.
func (r *Run) EventCount() int {
	total := 0
	for _, evs := range r.Events {
		total += len(evs)
	}
	return total
}

// CountKind returns the number of events of the given kind across all
// histories.
func (r *Run) CountKind(k EventKind) int {
	total := 0
	for _, evs := range r.Events {
		for i := range evs {
			if evs[i].Event.Kind == k {
				total++
			}
		}
	}
	return total
}

// Clone returns a deep copy of the run.
func (r *Run) Clone() *Run {
	cp := &Run{N: r.N, Horizon: r.Horizon, Events: make([][]TimedEvent, r.N)}
	for p := range r.Events {
		cp.Events[p] = append([]TimedEvent(nil), r.Events[p]...)
	}
	return cp
}

// System is a finite set of runs, standing in for the (generally infinite)
// system generated by a protocol in a context.  The epistemic checker
// interprets knowledge with respect to a System.
type System []*Run
