package epistemic_test

import (
	"testing"

	"repro/internal/epistemic"
	"repro/internal/model"
)

// The tests in this file pin the interned index's query API: ClassID lookups
// must agree with key equality, the Scan cursor must agree with point lookups
// under monotone and non-monotone access, and Stats must account for every
// point, class and interval of the system.

func TestClassAtAgreesWithKeyEquality(t *testing.T) {
	sys := twoRunSystem(t)
	for p := model.ProcID(0); int(p) < sys.N(); p++ {
		type located struct {
			pt  epistemic.Point
			cls epistemic.ClassID
			key string
		}
		var points []located
		for ri := 0; ri < sys.Size(); ri++ {
			for m := 0; m <= sys.RunAt(ri).Horizon; m++ {
				pt := epistemic.Point{Run: ri, Time: m}
				points = append(points, located{pt, sys.ClassAt(p, pt), sys.KeyAt(p, pt)})
			}
		}
		for i, a := range points {
			for _, b := range points[i+1:] {
				if (a.cls == b.cls) != (a.key == b.key) {
					t.Fatalf("p=%d: class/key disagreement between %+v and %+v", p, a, b)
				}
			}
		}
	}
}

func TestScanAgreesWithClassAt(t *testing.T) {
	sys := twoRunSystem(t)
	for p := model.ProcID(0); int(p) < sys.N(); p++ {
		for ri := 0; ri < sys.Size(); ri++ {
			r := sys.RunAt(ri)
			// Monotone walk, including repeated times.
			scan := sys.Scan(p, ri)
			for m := 0; m <= r.Horizon; m++ {
				want := sys.ClassAt(p, epistemic.Point{Run: ri, Time: m})
				if got := scan.At(m); got != want {
					t.Fatalf("p=%d run=%d: scan at %d = %d, want %d", p, ri, m, got, want)
				}
				if got := scan.At(m); got != want {
					t.Fatalf("p=%d run=%d: repeated scan at %d = %d, want %d", p, ri, m, got, want)
				}
			}
			// Backwards access falls back to a restart.
			if r.Horizon > 0 {
				want := sys.ClassAt(p, epistemic.Point{Run: ri, Time: 0})
				if got := scan.At(0); got != want {
					t.Fatalf("p=%d run=%d: backwards scan = %d, want %d", p, ri, got, want)
				}
			}
		}
	}
}

func TestKnownCrashedClassMatchesPointQuery(t *testing.T) {
	sys := twoRunSystem(t)
	all := model.FullSet(sys.N())
	for p := model.ProcID(0); int(p) < sys.N(); p++ {
		for ri := 0; ri < sys.Size(); ri++ {
			for m := 0; m <= sys.RunAt(ri).Horizon; m++ {
				pt := epistemic.Point{Run: ri, Time: m}
				cls := sys.ClassAt(p, pt)
				if got, want := sys.KnownCrashedClass(p, cls), sys.KnownCrashed(p, pt); got != want {
					t.Fatalf("KnownCrashedClass disagrees at p=%d %+v: %s vs %s", p, pt, got, want)
				}
				if got, want := sys.MaxKnownCrashedInClass(p, cls, all), sys.MaxKnownCrashedIn(p, pt, all); got != want {
					t.Fatalf("MaxKnownCrashedInClass disagrees at p=%d %+v: %d vs %d", p, pt, got, want)
				}
			}
		}
	}
}

func TestStatsAccountsForTheSystem(t *testing.T) {
	sys := twoRunSystem(t)
	st := sys.Stats()
	if st.Runs != sys.Size() || st.Processes != sys.N() {
		t.Fatalf("shape wrong: %+v", st)
	}
	wantPoints := 0
	for ri := 0; ri < sys.Size(); ri++ {
		wantPoints += sys.RunAt(ri).Horizon + 1
	}
	if st.Points != wantPoints {
		t.Fatalf("points = %d, want %d", st.Points, wantPoints)
	}
	if st.Classes == 0 || st.Intervals == 0 {
		t.Fatalf("empty index stats: %+v", st)
	}
	// Every (process, point) pair lies in exactly one interval of its class,
	// so the intervals of each process partition the system's points.
	if st.Intervals < st.Classes-sys.N() {
		t.Fatalf("fewer intervals than classes can cover: %+v", st)
	}
	empty := epistemic.NewSystem(nil).Stats()
	if empty != (epistemic.Stats{}) {
		t.Fatalf("empty system should have zero stats, got %+v", empty)
	}
}

// TestStatsCountsNoOrphanClassesForTimeZeroEvents pins a subtlety of the
// interning walk: events at time 0 are folded into the initial observable
// state before the time-0 class is interned, so a process whose history
// starts at time 0 must not leave a zero-interval empty-history class behind.
func TestStatsCountsNoOrphanClassesForTimeZeroEvents(t *testing.T) {
	r := model.NewRun(2)
	mustAppend(t, r, 0, 0, model.InitEvent(model.Action(0, 1)))
	mustAppend(t, r, 0, 2, model.DoEvent(model.Action(0, 1)))
	r.SetHorizon(4)
	sys := epistemic.NewSystem(model.System{r})
	st := sys.Stats()
	// Process 0 has two classes ([0,1] and [2,4]), process 1 one (empty
	// history over [0,4]); every class must own at least one interval.
	if st.Classes != 3 || st.Intervals != 3 {
		t.Fatalf("expected 3 classes with 3 intervals, got %+v", st)
	}
}
