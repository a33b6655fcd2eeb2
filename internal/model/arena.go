package model

import "fmt"

// RunArena is a reusable struct-of-arrays builder for recorded runs.  Events
// from all processes append into one pair of parallel slabs (owning process,
// timed event) in arrival order; Build regroups them into a Run whose
// per-process histories are spans of a single contiguous slab.  Resetting the
// arena keeps the slabs, so a loop that records many runs through one arena
// (the simulator's sweep loop, a decoder draining a batch) performs no
// per-event allocation once the slabs have grown to the workload's high-water
// mark.
//
// A recorded run leaves the arena one of two ways.  Build hands the caller a
// Run of its own; View lends one whose grouped slab and span table belong to
// the arena and are kept across Resets, so it is valid only until the arena's
// next Reset and costs no allocation once they have grown — the ending for a
// caller that scores a run and drops it.
//
// An arena enforces the same per-process invariants as Run.Append — monotone
// times (R2) and crash finality (R4) — so a Run built from it is always
// structurally valid.  Arenas are not safe for concurrent use.
type RunArena struct {
	n       int
	horizon int
	// procs[i] is the process whose history events[i] belongs to.  Within one
	// process, events appear in append (hence time) order.
	procs  []ProcID
	events []TimedEvent
	// counts, lastTime and crashed track each process's history tail for the
	// R2/R4 checks without touching the slabs.
	counts   []int32
	lastTime []int32
	crashed  []bool
	// cursors is group's regrouping scratch.
	cursors []int32
	// view, viewSlab and viewSpans are the run View lends out and the grouped
	// slab and span table behind it.
	view      Run
	viewSlab  []TimedEvent
	viewSpans [][]TimedEvent
}

// NewRunArena returns an empty arena ready for Reset.
func NewRunArena() *RunArena { return &RunArena{} }

// Reset prepares the arena to record a fresh run over n processes, retaining
// the slabs of earlier runs.  capHint pre-sizes the event slabs (total events
// across all processes) on first use; later resets keep whatever capacity has
// accumulated.
func (a *RunArena) Reset(n, capHint int) {
	a.n = n
	a.horizon = 0
	if cap(a.events) < capHint {
		a.events = make([]TimedEvent, 0, capHint)
		a.procs = make([]ProcID, 0, capHint)
	} else {
		a.events = a.events[:0]
		a.procs = a.procs[:0]
	}
	if cap(a.counts) < n {
		a.counts = make([]int32, n)
		a.lastTime = make([]int32, n)
		a.crashed = make([]bool, n)
		a.cursors = make([]int32, n)
	} else {
		a.counts = a.counts[:n]
		a.lastTime = a.lastTime[:n]
		a.crashed = a.crashed[:n]
		a.cursors = a.cursors[:n]
		for p := 0; p < n; p++ {
			a.counts[p] = 0
			a.lastTime[p] = 0
			a.crashed[p] = false
		}
	}
}

// N returns the process count of the run under construction.
func (a *RunArena) N() int { return a.n }

// Len returns the number of events recorded since the last Reset.
func (a *RunArena) Len() int { return len(a.events) }

// Record reserves the next event of process p at global time t, under the same
// invariants as Run.Append, and returns it zeroed but for Kind: the caller
// fills in Peer, Msg, Action or Report in place, so an event is written once,
// where it will live.  The pointer is valid until the next Record or Reset.  A
// refused record leaves the arena as it was.
func (a *RunArena) Record(p ProcID, t int, kind EventKind) (*Event, error) {
	if int(p) < 0 || int(p) >= a.n {
		return nil, fmt.Errorf("record: process %d out of range [0,%d)", p, a.n)
	}
	if t < 0 {
		return nil, fmt.Errorf("record: negative time %d", t)
	}
	if a.counts[p] > 0 {
		if t < int(a.lastTime[p]) {
			return nil, fmt.Errorf("record: time %d before last event time %d at process %d", t, a.lastTime[p], p)
		}
		if a.crashed[p] {
			return nil, fmt.Errorf("record: process %d already crashed (R4)", p)
		}
	}
	a.procs = append(a.procs, p)
	// Extend the slab in place and clear the slot there: append(events,
	// TimedEvent{Time: t}) builds the 176-byte value on the stack and copies
	// it in.
	i := len(a.events)
	if i < cap(a.events) {
		a.events = a.events[:i+1]
		a.events[i] = TimedEvent{}
	} else {
		a.events = append(a.events, TimedEvent{})
	}
	te := &a.events[i]
	te.Time = t
	te.Event.Kind = kind
	a.counts[p]++
	a.lastTime[p] = int32(t)
	a.crashed[p] = kind == EventCrash
	if t > a.horizon {
		a.horizon = t
	}
	return &te.Event, nil
}

// SetHorizon extends the horizon of the run under construction to at least t.
func (a *RunArena) SetHorizon(t int) {
	if t > a.horizon {
		a.horizon = t
	}
}

// Horizon returns the horizon of the run under construction.
func (a *RunArena) Horizon() int { return a.horizon }

// Build regroups the recorded events into a freshly allocated Run: one
// contiguous slab of events ordered by process, with Events[p] a span of that
// slab.  The returned run shares nothing with the arena, so it stays valid
// across later Resets.  The spans are capacity-clipped, so appending to one
// reallocates instead of clobbering its neighbour.  Build performs three
// allocations regardless of event count.
func (a *RunArena) Build() *Run {
	slab := make([]TimedEvent, len(a.events))
	events := make([][]TimedEvent, a.n)
	a.group(slab, events)
	return &Run{N: a.n, Horizon: a.horizon, Events: events}
}

// View regroups the recorded events exactly as Build does, but into the
// arena's own grouped slab and span table, and returns a Run that borrows
// them: it is valid until the arena's next Reset and must not be retained or
// appended to.  The slab follows the recording slabs' capacity, so once those
// have reached the workload's high-water mark View allocates nothing.
func (a *RunArena) View() *Run {
	if cap(a.viewSlab) < len(a.events) {
		a.viewSlab = make([]TimedEvent, cap(a.events))
	}
	if cap(a.viewSpans) < a.n {
		a.viewSpans = make([][]TimedEvent, a.n)
	}
	a.viewSpans = a.viewSpans[:a.n]
	a.group(a.viewSlab[:len(a.events)], a.viewSpans)
	a.view = Run{N: a.n, Horizon: a.horizon, Events: a.viewSpans}
	return &a.view
}

// group performs the counting-sort pass shared by Build and View: slab
// receives the events grouped by process (stable, so per-process time order is
// preserved), and events[p] becomes the p'th span.
func (a *RunArena) group(slab []TimedEvent, events [][]TimedEvent) {
	off := int32(0)
	for p := 0; p < a.n; p++ {
		a.cursors[p] = off
		off += a.counts[p]
	}
	for i, p := range a.procs {
		slab[a.cursors[p]] = a.events[i]
		a.cursors[p]++
	}
	off = 0
	for p := 0; p < a.n; p++ {
		end := off + a.counts[p]
		events[p] = slab[off:end:end]
		off = end
	}
}

// CompactClone returns a deep copy of the run whose per-process histories are
// spans of one contiguous slab, in three allocations regardless of event
// count.  It is the owning counterpart of a transient decode: cloning a run
// that aliases reusable buffers yields one that outlives them.
func (r *Run) CompactClone() *Run {
	total := 0
	for _, evs := range r.Events {
		total += len(evs)
	}
	slab := make([]TimedEvent, 0, total)
	events := make([][]TimedEvent, len(r.Events))
	for p, evs := range r.Events {
		off := len(slab)
		slab = append(slab, evs...)
		end := len(slab)
		events[p] = slab[off:end:end]
	}
	return &Run{N: r.N, Horizon: r.Horizon, Events: events}
}
