package epistemic_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/epistemic"
	"repro/internal/model"
)

// The tests in this file pin the incremental index against the from-scratch
// build: NewSystem over a union of runs and NewSystem over a prefix followed
// by Add of the remainder must produce indistinguishable systems — same
// ClassID for every point (the assignment order is part of the contract),
// same keys, same crash knowledge, same stats.

// syntheticRun builds one deterministic pseudo-random run: n processes over
// the horizon, a couple of crashes, and events drawn from a small pool of
// shapes so local histories sometimes coincide across runs and sometimes
// diverge.
func syntheticRun(t *testing.T, seed int64) *model.Run {
	t.Helper()
	const (
		n       = 5
		horizon = 40
	)
	rng := rand.New(rand.NewSource(seed))
	r := model.NewRun(n)
	crashAt := make(map[model.ProcID]int)
	for _, p := range rng.Perm(n)[:rng.Intn(3)] {
		crashAt[model.ProcID(p)] = 1 + rng.Intn(horizon-1)
	}
	kinds := []model.MsgKind{model.Kind("ping"), model.Kind("ack"), model.Kind("crashed")}
	for p := model.ProcID(0); int(p) < n; p++ {
		limit, crashes := horizon, false
		if at, ok := crashAt[p]; ok {
			limit, crashes = at, true
		}
		for m := 0; m <= limit; m++ {
			if rng.Intn(3) != 0 {
				continue
			}
			peer := model.ProcID(rng.Intn(n))
			var e model.Event
			switch rng.Intn(5) {
			case 0:
				e = model.InitEvent(model.Action(p, rng.Intn(3)))
			case 1:
				e = model.DoEvent(model.Action(peer, rng.Intn(3)))
			case 2:
				e = model.SendEvent(peer, model.Message{Kind: kinds[rng.Intn(len(kinds))], Action: model.Action(peer, 1), Round: rng.Intn(4)})
			case 3:
				e = model.RecvEvent(peer, model.Message{Kind: kinds[rng.Intn(len(kinds))], Action: model.Action(peer, 1), Value: rng.Intn(2)})
			case 4:
				e = model.SuspectEvent(model.SuspectReport{Suspects: model.Singleton(peer)})
			}
			mustAppend(t, r, p, m, e)
		}
		if crashes {
			mustAppend(t, r, p, limit, model.Event{Kind: model.EventCrash})
		}
	}
	r.SetHorizon(horizon)
	return r
}

func syntheticSystem(t *testing.T, count int, firstSeed int64) model.System {
	t.Helper()
	runs := make(model.System, count)
	for i := range runs {
		runs[i] = syntheticRun(t, firstSeed+int64(i))
	}
	return runs
}

// requireSameSystem asserts the two indexes agree at every (process, point):
// identical ClassIDs, keys and crash knowledge — through the class-based
// queries over the full set and the point-based ones over a group that varies
// from point to point — plus identical stats.
func requireSameSystem(t *testing.T, got, want *epistemic.System) {
	t.Helper()
	if g, w := got.Stats(), want.Stats(); g != w {
		t.Fatalf("stats diverge: got %+v, want %+v", g, w)
	}
	all := model.FullSet(want.N())
	for p := model.ProcID(0); int(p) < want.N(); p++ {
		for ri := 0; ri < want.Size(); ri++ {
			for m := 0; m <= want.RunAt(ri).Horizon; m++ {
				pt := epistemic.Point{Run: ri, Time: m}
				gc, wc := got.ClassAt(p, pt), want.ClassAt(p, pt)
				if gc != wc {
					t.Fatalf("p=%d %+v: class %d, want %d", p, pt, gc, wc)
				}
				if gk, wk := got.KeyAt(p, pt), want.KeyAt(p, pt); gk != wk {
					t.Fatalf("p=%d %+v: key %q, want %q", p, pt, gk, wk)
				}
				if g, w := got.KnownCrashedClass(p, gc), want.KnownCrashedClass(p, wc); g != w {
					t.Fatalf("p=%d %+v: known-crashed %s, want %s", p, pt, g, w)
				}
				if g, w := got.MaxKnownCrashedInClass(p, gc, all), want.MaxKnownCrashedInClass(p, wc, all); g != w {
					t.Fatalf("p=%d %+v: max-known-crashed %d, want %d", p, pt, g, w)
				}
				if g, w := got.KnownCrashed(p, pt), want.KnownCrashed(p, pt); g != w {
					t.Fatalf("p=%d %+v: KnownCrashed %s, want %s", p, pt, g, w)
				}
				group := model.ProcSet(1 + (31*ri+m)%int(all))
				if g, w := got.MaxKnownCrashedIn(p, pt, group), want.MaxKnownCrashedIn(p, pt, group); g != w {
					t.Fatalf("p=%d %+v: MaxKnownCrashedIn %s = %d, want %d", p, pt, group, g, w)
				}
			}
		}
	}
}

// TestAddMatchesFullRebuild is the golden incremental-index test: indexing a
// window and then extending it must equal indexing the union from scratch,
// across uneven batch splits.
func TestAddMatchesFullRebuild(t *testing.T) {
	runs := syntheticSystem(t, 16, 100)
	full := epistemic.NewSystem(runs)
	for _, split := range [][]int{{8, 16}, {1, 16}, {15, 16}, {5, 9, 16}, {4, 8, 12, 16}} {
		sys := epistemic.NewSystem(nil)
		prev := 0
		for _, end := range split {
			sys.Add(runs[prev:end])
			prev = end
		}
		requireSameSystem(t, sys, full)
	}
}

// TestQuickAddParallelMatchesSerialBuild is ROADMAP item 4's differential
// property for the index: over random run sets, cut at random points and fed
// to AddParallel with a random worker count per call, the grown system equals
// the serial one-shot NewSystem — the process-parallel build may not move a
// single ClassID.  Run it under -race: the workers share the System.
func TestQuickAddParallelMatchesSerialBuild(t *testing.T) {
	property := func(firstSeed uint16, count uint8, cuts []uint8, workers []uint8) bool {
		runs := syntheticSystem(t, 2+int(count%13), int64(firstSeed))
		sys := &epistemic.System{}
		prev := 0
		for i := 0; prev < len(runs); i++ {
			end := len(runs)
			if i < len(cuts) {
				// A cut may be empty: AddParallel of no runs is a no-op.
				end = prev + int(cuts[i])%(len(runs)-prev+1)
			}
			w := 0
			if i < len(workers) {
				w = int(workers[i] % 9)
			}
			sys.AddParallel(w, runs[prev:end])
			prev = end
		}
		requireSameSystem(t, sys, epistemic.NewSystem(runs))
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestAddNoopAndFromEmpty pins the edge cases: Add(nil) changes nothing, and
// a system grown entirely through Add equals the one-shot build.
func TestAddNoopAndFromEmpty(t *testing.T) {
	runs := syntheticSystem(t, 6, 900)
	full := epistemic.NewSystem(runs)

	sys := epistemic.NewSystem(runs[:3])
	before := sys.Stats()
	sys.Add(nil)
	if sys.Stats() != before {
		t.Fatalf("Add(nil) changed the system: %+v vs %+v", sys.Stats(), before)
	}
	sys.Add(runs[3:])
	requireSameSystem(t, sys, full)

	grown := &epistemic.System{}
	grown.Add(runs)
	requireSameSystem(t, grown, full)
}

// TestAddKeepsExistingClassIDsStable pins that extending the system never
// reassigns a ClassID already handed to a caller.
func TestAddKeepsExistingClassIDsStable(t *testing.T) {
	runs := syntheticSystem(t, 10, 4200)
	sys := epistemic.NewSystem(runs[:5])
	type pinned struct {
		p   model.ProcID
		pt  epistemic.Point
		cls epistemic.ClassID
		key string
	}
	var pins []pinned
	for p := model.ProcID(0); int(p) < sys.N(); p++ {
		for ri := 0; ri < sys.Size(); ri++ {
			for m := 0; m <= sys.RunAt(ri).Horizon; m += 7 {
				pt := epistemic.Point{Run: ri, Time: m}
				pins = append(pins, pinned{p, pt, sys.ClassAt(p, pt), sys.KeyAt(p, pt)})
			}
		}
	}
	sys.Add(runs[5:])
	for _, pin := range pins {
		if got := sys.ClassAt(pin.p, pin.pt); got != pin.cls {
			t.Fatalf("p=%d %+v: class moved %d -> %d", pin.p, pin.pt, pin.cls, got)
		}
		if got := sys.KeyAt(pin.p, pin.pt); got != pin.key {
			t.Fatalf("p=%d %+v: key changed %q -> %q", pin.p, pin.pt, pin.key, got)
		}
	}
}
