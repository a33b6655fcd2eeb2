package model

import "fmt"

// RunArena is a reusable builder for recorded runs.  Each process's events
// append to that process's own history slice, and Reset truncates the slices
// without freeing them, so a loop that records many runs through one arena
// (the simulator's sweep loop) performs no per-event allocation once the
// histories have grown to the workload's high-water mark.
//
// A recorded run leaves the arena one of two ways.  Build hands the caller a
// Run of its own, copied into one exact-size slab.  View lends the arena's
// histories themselves: the Run it returns is valid only until the arena's
// next Reset and costs nothing — the ending for a caller that scores a run and
// drops it.
//
// An arena enforces the same per-process invariants as Run.Append — monotone
// times (R2) and crash finality (R4) — so a Run built from it is always
// structurally valid.  Arenas are not safe for concurrent use.
type RunArena struct {
	n       int
	horizon int
	count   int
	// hist[p] is process p's history; entries past n are kept for a later
	// run over more processes.
	hist [][]TimedEvent
	// view is the run View lends out.
	view Run
}

// NewRunArena returns an empty arena ready for Reset.
func NewRunArena() *RunArena { return &RunArena{} }

// Reset prepares the arena to record a fresh run over n processes, retaining
// the histories of earlier runs.  capHint pre-sizes the histories (total
// events across all processes, spread evenly) on first use; later resets keep
// whatever capacity has accumulated.
func (a *RunArena) Reset(n, capHint int) {
	a.n = n
	a.horizon = 0
	a.count = 0
	if len(a.hist) < n {
		grown := make([][]TimedEvent, n)
		copy(grown, a.hist)
		a.hist = grown
	}
	perProc := 0
	if n > 0 {
		perProc = capHint / n
	}
	for p := 0; p < n; p++ {
		if cap(a.hist[p]) < perProc {
			a.hist[p] = make([]TimedEvent, 0, perProc)
		}
		a.hist[p] = a.hist[p][:0]
	}
}

// N returns the process count of the run under construction.
func (a *RunArena) N() int { return a.n }

// Len returns the number of events recorded since the last Reset.
func (a *RunArena) Len() int { return a.count }

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
	h := a.hist[p]
	i := len(h)
	if i > 0 {
		last := &h[i-1]
		if t < last.Time {
			return nil, fmt.Errorf("record: time %d before last event time %d at process %d", t, last.Time, p)
		}
		if last.Event.Kind == EventCrash {
			return nil, fmt.Errorf("record: process %d already crashed (R4)", p)
		}
	}
	// Extend the history in place and clear the slot there: append(h,
	// TimedEvent{Time: t}) builds the 80-byte value on the stack and copies
	// it in.
	if i < cap(h) {
		h = h[:i+1]
		h[i] = TimedEvent{}
	} else {
		h = append(h, TimedEvent{})
	}
	a.hist[p] = h
	a.count++
	te := &h[i]
	te.Time = t
	te.Event.Kind = kind
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

// Build copies the recorded histories into a freshly allocated Run: one
// contiguous slab of events ordered by process, with Events[p] a span of that
// slab.  The returned run shares nothing with the arena, so it stays valid
// across later Resets.  The spans are capacity-clipped, so appending to one
// reallocates instead of clobbering its neighbour.  Build performs three
// allocations regardless of event count.
func (a *RunArena) Build() *Run {
	slab := make([]TimedEvent, a.count)
	events := make([][]TimedEvent, a.n)
	off := 0
	for p, h := range a.hist[:a.n] {
		end := off + copy(slab[off:], h)
		events[p] = slab[off:end:end]
		off = end
	}
	return &Run{N: a.n, Horizon: a.horizon, Events: events}
}

// View returns a Run whose histories are the arena's own, without copying
// them: it is valid until the arena's next Reset and must not be retained or
// appended to.  View allocates nothing.
func (a *RunArena) View() *Run {
	a.view = Run{N: a.n, Horizon: a.horizon, Events: a.hist[:a.n]}
	return &a.view
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
