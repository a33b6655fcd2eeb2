package model

import (
	"reflect"
	"testing"
)

// timedAppend is one (process, time, event) step of a fixture.
type timedAppend struct {
	p  ProcID
	tm int
	e  Event
}

// arenaFixtures are the recorded sequences the Build and View tests share: a
// run touching every event kind, one with an empty history in the middle, and
// an empty run.
var arenaFixtures = []struct {
	n       int
	appends []timedAppend
}{
	{3, []timedAppend{
		{0, 0, InitEvent(Action(0, 0))},
		{1, 1, RecvEvent(0, Message{Kind: Kind("alpha"), Round: 1})},
		{0, 1, SendEvent(1, Message{Kind: Kind("alpha"), Round: 1})},
		{2, 2, Event{Kind: EventCrash}},
		{0, 3, DoEvent(Action(0, 0))},
		{1, 3, SuspectEvent(SuspectReport{Suspects: Singleton(2)})},
	}},
	{3, []timedAppend{
		{2, 1, InitEvent(Action(2, 0))},
		{0, 1, Event{Kind: EventCrash}},
		{2, 4, DoEvent(Action(2, 0))},
	}},
	{2, nil},
}

// record drives Record the way the simulator does: reserve the event, then
// fill it in place.
func record(a *RunArena, p ProcID, tm int, e Event) error {
	ev, err := a.Record(p, tm, e.Kind)
	if err != nil {
		return err
	}
	*ev = e
	return nil
}

// recordBoth appends the same sequence to a fresh Run and into arena (after a
// Reset), returning the direct run.
func recordBoth(t *testing.T, arena *RunArena, n int, appends []timedAppend) *Run {
	t.Helper()
	direct := NewRunCap(n, 4)
	arena.Reset(n, 4)
	for _, a := range appends {
		if err := direct.Append(a.p, a.tm, a.e); err != nil {
			t.Fatalf("direct append: %v", err)
		}
		if err := record(arena, a.p, a.tm, a.e); err != nil {
			t.Fatalf("arena record: %v", err)
		}
	}
	return direct
}

func TestArenaBuildMatchesRunAppend(t *testing.T) {
	for i, fx := range arenaFixtures {
		arena := NewRunArena()
		direct := recordBoth(t, arena, fx.n, fx.appends)
		if built := arena.Build(); !reflect.DeepEqual(direct, built) {
			t.Fatalf("fixture %d: arena build differs from direct appends:\n%+v\nvs\n%+v", i, direct, built)
		}
	}
}

// TestArenaViewMatchesBuild is the borrowed run's contract: View yields the
// run Build does, event for event, on one arena reused across the fixtures; a
// later Reset+record+View reuses the histories without allocating; and a
// Build taken before it is unaffected.
func TestArenaViewMatchesBuild(t *testing.T) {
	arena := NewRunArena()
	var owned []*Run
	var want []*Run
	for i, fx := range arenaFixtures {
		direct := recordBoth(t, arena, fx.n, fx.appends)
		built, view := arena.Build(), arena.View()
		if !reflect.DeepEqual(built, view) || !reflect.DeepEqual(direct, view) {
			t.Fatalf("fixture %d: view differs from build:\n%+v\nvs\n%+v", i, view, built)
		}
		owned, want = append(owned, built), append(want, direct)
	}
	fx := arenaFixtures[0]
	allocs := testing.AllocsPerRun(20, func() {
		arena.Reset(fx.n, 4)
		for _, a := range fx.appends {
			if err := record(arena, a.p, a.tm, a.e); err != nil {
				t.Fatal(err)
			}
		}
		if arena.View().EventCount() != len(fx.appends) {
			t.Fatal("view lost events")
		}
	})
	if allocs != 0 {
		t.Fatalf("a warmed Reset+record+View allocated %.1f times, want 0", allocs)
	}
	for i := range owned {
		if !reflect.DeepEqual(owned[i], want[i]) {
			t.Fatalf("fixture %d: a Build was changed by the arena's later Reset+View", i)
		}
	}
}

// TestArenaViewLendsHistories pins what View lends: its spans are the arena's
// own histories, so the events Record handed out are the events the view
// holds, and nothing is copied; Build's spans are a copy, capacity-clipped.
func TestArenaViewLendsHistories(t *testing.T) {
	a := NewRunArena()
	a.Reset(2, 8) // room for four events a process: no record reallocates
	var recorded []*Event
	for _, app := range []struct {
		p  ProcID
		tm int
	}{{0, 1}, {1, 2}, {0, 3}} {
		ev, err := a.Record(app.p, app.tm, EventInit)
		if err != nil {
			t.Fatal(err)
		}
		recorded = append(recorded, ev)
	}
	view := a.View()
	if &view.Events[0][0].Event != recorded[0] || &view.Events[1][0].Event != recorded[1] || &view.Events[0][1].Event != recorded[2] {
		t.Fatal("View copied the histories instead of lending them")
	}
	built := a.Build()
	if &built.Events[0][0].Event == recorded[0] {
		t.Fatal("Build shares the arena's histories")
	}
	for p, evs := range built.Events {
		if cap(evs) != len(evs) {
			t.Fatalf("Build's span %d has capacity %d beyond its %d events", p, cap(evs), len(evs))
		}
	}
}

func TestArenaEnforcesRunInvariants(t *testing.T) {
	a := NewRunArena()
	a.Reset(2, 0)
	refused := func(what string, p ProcID, tm int, kind EventKind) {
		t.Helper()
		before := a.Len()
		if ev, err := a.Record(p, tm, kind); err == nil || ev != nil {
			t.Fatalf("%s accepted", what)
		}
		if a.Len() != before {
			t.Fatalf("%s: refused record grew the slab from %d to %d events", what, before, a.Len())
		}
	}
	refused("out-of-range process", 5, 1, EventInit)
	refused("negative time", 0, -1, EventInit)
	if _, err := a.Record(0, 3, EventInit); err != nil {
		t.Fatal(err)
	}
	refused("non-monotone time (R2)", 0, 2, EventInit)
	if _, err := a.Record(0, 4, EventCrash); err != nil {
		t.Fatal(err)
	}
	refused("event after crash (R4)", 0, 5, EventInit)
	// The other process is unaffected by p0's crash.
	if ev, err := a.Record(1, 1, EventInit); err != nil || ev.Kind != EventInit || a.Len() != 3 {
		t.Fatalf("record at the other process: %v, %+v, %d events", err, ev, a.Len())
	}
}

func TestArenaResetIsolatesRuns(t *testing.T) {
	a := NewRunArena()
	a.Reset(2, 0)
	if err := record(a, 0, 1, Event{Kind: EventCrash}); err != nil {
		t.Fatal(err)
	}
	a.SetHorizon(10)
	first := a.Build()

	a.Reset(2, 0)
	if err := record(a, 0, 2, Event{Kind: EventInit}); err != nil {
		t.Fatalf("crash state leaked across Reset: %v", err)
	}
	if err := record(a, 1, 0, Event{Kind: EventInit}); err != nil {
		t.Fatal(err)
	}
	second := a.Build()

	if first.Horizon != 10 || first.EventCount() != 1 || first.Events[0][0].Event.Kind != EventCrash {
		t.Fatalf("first build mutated by reuse: %+v", first)
	}
	if second.Horizon != 2 || second.EventCount() != 2 {
		t.Fatalf("second build wrong: %+v", second)
	}
}

func TestArenaSpansAreCapacityClipped(t *testing.T) {
	a := NewRunArena()
	a.Reset(2, 0)
	for _, app := range []struct {
		p  ProcID
		tm int
	}{{0, 1}, {1, 1}, {0, 2}} {
		if err := record(a, app.p, app.tm, Event{Kind: EventInit}); err != nil {
			t.Fatal(err)
		}
	}
	run := a.Build()
	before := run.Events[1][0]
	// Appending to p0's span must reallocate, not clobber p1's first event.
	_ = append(run.Events[0], TimedEvent{Time: 9, Event: Event{Kind: EventDo}})
	if run.Events[1][0] != before {
		t.Fatal("append to one span clobbered the next process's events")
	}
}

func TestArenaBuildAllocsConstant(t *testing.T) {
	a := NewRunArena()
	record := func(events int) {
		a.Reset(2, 0)
		for i := 0; i < events; i++ {
			if err := record(a, ProcID(i%2), i/2, Event{Kind: EventInit}); err != nil {
				t.Fatal(err)
			}
		}
	}
	record(1024) // grow the slabs to the high-water mark
	allocs := testing.AllocsPerRun(20, func() {
		record(1024)
		_ = a.Build()
	})
	// Build allocates the run, the slab and the span table; the recording loop
	// itself allocates nothing once the slabs are grown.
	if allocs > 3 {
		t.Fatalf("arena record+build allocated %.1f times per run, want <= 3", allocs)
	}
}

func TestCompactCloneEqualsClone(t *testing.T) {
	r := NewRun(3)
	if err := r.Append(0, 1, SendEvent(2, Message{Kind: Kind("alpha")})); err != nil {
		t.Fatal(err)
	}
	if err := r.Append(2, 3, Event{Kind: EventCrash}); err != nil {
		t.Fatal(err)
	}
	r.SetHorizon(7)
	cp := r.CompactClone()
	if cp.N != r.N || cp.Horizon != r.Horizon || !reflect.DeepEqual(cp.Events[0], r.Events[0]) || !reflect.DeepEqual(cp.Events[2], r.Events[2]) {
		t.Fatalf("compact clone differs: %+v vs %+v", cp, r)
	}
	// Deep: mutating the clone must not touch the original.
	cp.Events[0][0].Time = 99
	if r.Events[0][0].Time == 99 {
		t.Fatal("compact clone shares memory with the original")
	}
}
