package fd

import (
	"testing"

	"repro/internal/model"
)

// fakeTruth is a GroundTruth stub with a fixed crash schedule.
type fakeTruth struct {
	n      int
	crash  map[model.ProcID]int
	maxAge int
}

func newFakeTruth(n int, crash map[model.ProcID]int) *fakeTruth {
	return &fakeTruth{n: n, crash: crash, maxAge: 1 << 30}
}

func (f *fakeTruth) N() int { return f.n }

func (f *fakeTruth) CrashedBy(q model.ProcID, now int) bool {
	t, ok := f.crash[q]
	return ok && t <= now
}

func (f *fakeTruth) CrashTime(q model.ProcID) (int, bool) {
	t, ok := f.crash[q]
	return t, ok
}

func (f *fakeTruth) Faulty() model.ProcSet {
	var s model.ProcSet
	for q := range f.crash {
		s = s.Add(q)
	}
	return s
}

var _ GroundTruth = (*fakeTruth)(nil)

func TestNoOracle(t *testing.T) {
	gt := newFakeTruth(3, map[model.ProcID]int{1: 5})
	if _, ok := (NoOracle{}).Report(0, 10, gt); ok {
		t.Fatalf("NoOracle should never report")
	}
}

func TestPerfectOracleTracksCrashes(t *testing.T) {
	gt := newFakeTruth(4, map[model.ProcID]int{1: 5, 3: 9})
	cases := []struct {
		now  int
		want model.ProcSet
	}{
		{now: 0, want: model.EmptySet()},
		{now: 4, want: model.EmptySet()},
		{now: 5, want: model.Singleton(1)},
		{now: 8, want: model.Singleton(1)},
		{now: 9, want: model.SetOf(1, 3)},
		{now: 100, want: model.SetOf(1, 3)},
	}
	for _, tc := range cases {
		rep, ok := (PerfectOracle{}).Report(0, tc.now, gt)
		if !ok || !rep.Suspects.Equal(tc.want) {
			t.Errorf("at %d: report %v ok=%v, want %v", tc.now, rep.Suspects, ok, tc.want)
		}
	}
}

func TestStrongOracleShieldsOneCorrectProcess(t *testing.T) {
	gt := newFakeTruth(5, map[model.ProcID]int{0: 3, 2: 7})
	oracle := StrongOracle{FalseSuspicionRate: 0.9, Seed: 42}
	// The shielded process is the lowest-numbered correct process: 1.
	for now := 0; now <= 50; now += 5 {
		for p := model.ProcID(0); p < 5; p++ {
			if gt.CrashedBy(p, now) {
				// The simulator never queries a crashed process's detector.
				continue
			}
			rep, ok := oracle.Report(p, now, gt)
			if !ok {
				t.Fatalf("strong oracle must always report")
			}
			if rep.Suspects.Has(1) {
				t.Fatalf("shielded process 1 suspected by %d at %d", p, now)
			}
			if rep.Suspects.Has(p) {
				t.Fatalf("process %d suspected itself", p)
			}
			// Strong completeness: crashed processes are always included.
			if now >= 3 && !rep.Suspects.Has(0) {
				t.Fatalf("crashed process 0 not suspected at %d", now)
			}
			if now >= 7 && !rep.Suspects.Has(2) {
				t.Fatalf("crashed process 2 not suspected at %d", now)
			}
		}
	}
	// With a high false-suspicion rate, some correct non-shielded process
	// should be falsely suspected (that is what distinguishes strong from
	// perfect).
	rep, _ := oracle.Report(1, 0, gt)
	if rep.Suspects.IsEmpty() {
		t.Fatalf("expected false suspicions before any crash with rate 0.9")
	}
}

func TestStrongOracleZeroRateIsPerfect(t *testing.T) {
	gt := newFakeTruth(4, map[model.ProcID]int{2: 5})
	oracle := StrongOracle{}
	rep, _ := oracle.Report(0, 10, gt)
	if !rep.Suspects.Equal(model.Singleton(2)) {
		t.Fatalf("zero-rate strong oracle should equal perfect, got %v", rep.Suspects)
	}
}

func TestWeakOracleSingleMonitor(t *testing.T) {
	gt := newFakeTruth(5, map[model.ProcID]int{1: 3, 4: 6})
	oracle := WeakOracle{}
	suspectsOf := func(q model.ProcID, now int) []model.ProcID {
		var out []model.ProcID
		for p := model.ProcID(0); p < 5; p++ {
			rep, ok := oracle.Report(p, now, gt)
			if !ok {
				t.Fatalf("weak oracle must report")
			}
			if rep.Suspects.Has(q) {
				out = append(out, p)
			}
		}
		return out
	}
	if got := suspectsOf(1, 2); len(got) != 0 {
		t.Fatalf("process 1 suspected before its crash by %v", got)
	}
	monitors := suspectsOf(1, 10)
	if len(monitors) != 1 {
		t.Fatalf("faulty process 1 should be suspected by exactly one monitor, got %v", monitors)
	}
	if gt.Faulty().Has(monitors[0]) {
		t.Fatalf("monitor %d is itself faulty", monitors[0])
	}
	if got := suspectsOf(0, 10); len(got) != 0 {
		t.Fatalf("correct process 0 should never be suspected, got %v", got)
	}
}

func TestWeakOracleAllFaultyIsVacuous(t *testing.T) {
	gt := newFakeTruth(2, map[model.ProcID]int{0: 1, 1: 1})
	rep, ok := WeakOracle{}.Report(0, 10, gt)
	if !ok || !rep.Suspects.IsEmpty() {
		t.Fatalf("with no correct process the weak oracle should report nothing, got %v", rep.Suspects)
	}
}

// TestWeakOracleMatchesMemberListing pins the bit-walking Report to the
// member-list definition of the monitor assignment (q's monitor is the
// (q mod |correct|)'th correct process), over every failure pattern of up to
// six processes, with crash times spread so some faulty processes have not
// crashed yet.
func TestWeakOracleMatchesMemberListing(t *testing.T) {
	reference := func(p model.ProcID, now int, gt GroundTruth) model.ProcSet {
		correct := model.FullSet(gt.N()).Diff(gt.Faulty()).Members()
		var suspects model.ProcSet
		for _, q := range gt.Faulty().Members() {
			if len(correct) > 0 && gt.CrashedBy(q, now) && correct[int(q)%len(correct)] == p {
				suspects = suspects.Add(q)
			}
		}
		return suspects
	}
	for n := 1; n <= 6; n++ {
		for faulty := model.ProcSet(0); faulty <= model.FullSet(n); faulty++ {
			crash := map[model.ProcID]int{}
			for _, q := range faulty.Members() {
				crash[q] = int(q) * 3
			}
			gt := newFakeTruth(n, crash)
			for p := model.ProcID(0); int(p) < n; p++ {
				for _, now := range []int{0, 7, 100} {
					rep, ok := WeakOracle{}.Report(p, now, gt)
					if want := reference(p, now, gt); !ok || rep.Suspects != want {
						t.Fatalf("n=%d faulty=%v p=%d now=%d: got %v, want %v", n, faulty, p, now, rep.Suspects, want)
					}
				}
			}
		}
	}
}

func TestImpermanentStrongOracleAlternates(t *testing.T) {
	gt := newFakeTruth(3, map[model.ProcID]int{2: 1})
	oracle := ImpermanentStrongOracle{Window: 5}
	evenRep, _ := oracle.Report(0, 2, gt)
	oddRep, _ := oracle.Report(0, 7, gt)
	if !evenRep.Suspects.Has(2) {
		t.Fatalf("even window should suspect the crashed process")
	}
	if !oddRep.Suspects.IsEmpty() {
		t.Fatalf("odd window should retract suspicions, got %v", oddRep.Suspects)
	}
	// Default window of 1 must not panic and must alternate per step (use
	// times after the crash so the suspect window is nonempty).
	d := ImpermanentStrongOracle{}
	r2, _ := d.Report(0, 2, gt)
	r3, _ := d.Report(0, 3, gt)
	if r2.Suspects.Equal(r3.Suspects) {
		t.Fatalf("default window should alternate between consecutive steps")
	}
	if !r2.Suspects.Has(2) || !r3.Suspects.IsEmpty() {
		t.Fatalf("unexpected default-window reports: even=%v odd=%v", r2.Suspects, r3.Suspects)
	}
}

func TestImpermanentWeakOracle(t *testing.T) {
	gt := newFakeTruth(4, map[model.ProcID]int{3: 2})
	oracle := ImpermanentWeakOracle{Window: 3}
	suspectedEver := false
	for now := 0; now < 30; now++ {
		for p := model.ProcID(0); p < 4; p++ {
			rep, ok := oracle.Report(p, now, gt)
			if !ok {
				t.Fatalf("oracle must report")
			}
			for _, q := range rep.Suspects.Members() {
				if !gt.CrashedBy(q, now) {
					t.Fatalf("impermanent-weak oracle falsely suspected %d at %d", q, now)
				}
				if q == 3 {
					suspectedEver = true
				}
			}
		}
	}
	if !suspectedEver {
		t.Fatalf("faulty process 3 was never suspected")
	}
}

func TestEventuallyStrongOracleStabilises(t *testing.T) {
	gt := newFakeTruth(5, map[model.ProcID]int{4: 10})
	oracle := EventuallyStrongOracle{StabilizeAt: 100, ChaosRate: 0.8, Seed: 7}
	// Before stabilisation, suspicions may be arbitrary; after it they must
	// match the crashed set exactly.
	rep, _ := oracle.Report(0, 150, gt)
	if !rep.Suspects.Equal(model.Singleton(4)) {
		t.Fatalf("after stabilisation expected {4}, got %v", rep.Suspects)
	}
	chaotic := false
	for now := 0; now < 100; now += 7 {
		rep, _ := oracle.Report(0, now, gt)
		for _, q := range rep.Suspects.Members() {
			if !gt.CrashedBy(q, now) {
				chaotic = true
			}
		}
	}
	if !chaotic {
		t.Fatalf("expected at least one wrong suspicion before stabilisation with rate 0.8")
	}
}

func TestFaultySetOracle(t *testing.T) {
	gt := newFakeTruth(5, map[model.ProcID]int{1: 4, 3: 9})
	rep, ok := FaultySetOracle{}.Report(2, 5, gt)
	if !ok || !rep.Generalized {
		t.Fatalf("expected a generalized report")
	}
	if !rep.Group.Equal(model.SetOf(1, 3)) {
		t.Fatalf("group = %v, want {1,3}", rep.Group)
	}
	if rep.MinFaulty != 1 {
		t.Fatalf("k = %d, want 1 (only process 1 crashed by 5)", rep.MinFaulty)
	}
	rep, _ = FaultySetOracle{}.Report(2, 20, gt)
	if rep.MinFaulty != 2 {
		t.Fatalf("k = %d, want 2 after both crashed", rep.MinFaulty)
	}
}

func TestTrivialGeneralizedOracleCyclesAllSubsets(t *testing.T) {
	gt := newFakeTruth(5, map[model.ProcID]int{0: 2})
	oracle := TrivialGeneralizedOracle{T: 2}
	seen := make(map[model.ProcSet]bool)
	for now := 0; now < 40; now++ {
		rep, ok := oracle.Report(1, now, gt)
		if !ok || !rep.Generalized {
			t.Fatalf("expected generalized reports")
		}
		if rep.MinFaulty != 0 {
			t.Fatalf("trivial detector must report k=0")
		}
		if rep.Group.Count() != 2 {
			t.Fatalf("group size = %d, want 2", rep.Group.Count())
		}
		seen[rep.Group] = true
	}
	if len(seen) != 10 {
		t.Fatalf("expected all C(5,2)=10 subsets to be reported over time, saw %d", len(seen))
	}
	// Degenerate sizes clamp rather than fail.
	if rep, ok := (TrivialGeneralizedOracle{T: 99}).Report(0, 0, gt); !ok || rep.Group.Count() != gt.N() {
		t.Fatalf("oversized T should clamp to n")
	}
	if rep, ok := (TrivialGeneralizedOracle{T: -1}).Report(0, 0, gt); !ok || rep.Group.Count() != 0 {
		t.Fatalf("negative T should clamp to 0")
	}
}

func TestComponentOracle(t *testing.T) {
	gt := newFakeTruth(6, map[model.ProcID]int{1: 3, 4: 5})
	comps := []model.ProcSet{model.SetOf(0, 1, 2), model.SetOf(3, 4, 5)}
	oracle := ComponentOracle{Components: comps}
	for now := 0; now < 10; now++ {
		rep, ok := oracle.Report(0, now, gt)
		if !ok || !rep.Generalized {
			t.Fatalf("expected generalized reports")
		}
		crashed := 0
		for _, q := range rep.Group.Members() {
			if gt.CrashedBy(q, now) {
				crashed++
			}
		}
		if rep.MinFaulty != crashed {
			t.Fatalf("component report k=%d but %d members crashed", rep.MinFaulty, crashed)
		}
	}
	if _, ok := (ComponentOracle{}).Report(0, 0, gt); ok {
		t.Fatalf("component oracle with no components should not report")
	}
}

func TestGeneralizedFromStandard(t *testing.T) {
	gt := newFakeTruth(4, map[model.ProcID]int{2: 3})
	oracle := GeneralizedFromStandard{Inner: PerfectOracle{}}
	rep, ok := oracle.Report(0, 10, gt)
	if !ok || !rep.Generalized {
		t.Fatalf("expected a generalized report")
	}
	if !rep.Group.Equal(model.Singleton(2)) || rep.MinFaulty != 1 {
		t.Fatalf("report = (%v,%d), want ({2},1)", rep.Group, rep.MinFaulty)
	}
	if _, ok := (GeneralizedFromStandard{Inner: NoOracle{}}).Report(0, 10, gt); ok {
		t.Fatalf("wrapping a silent oracle should stay silent")
	}
}

func TestGossipOracleAmplifiesWeakToStrong(t *testing.T) {
	gt := newFakeTruth(5, map[model.ProcID]int{1: 3, 4: 6})
	gossip := GossipOracle{Inner: WeakOracle{}, Delay: 0}
	// Under the weak oracle only one monitor suspects each faulty process;
	// after gossip every correct process suspects every crashed process.
	for _, p := range []model.ProcID{0, 2, 3} {
		rep, ok := gossip.Report(p, 10, gt)
		if !ok {
			t.Fatalf("gossip oracle should report")
		}
		if !rep.Suspects.Equal(model.SetOf(1, 4)) {
			t.Fatalf("process %d sees %v, want {1,4}", p, rep.Suspects)
		}
	}
	// Accuracy is preserved: nothing is suspected before it crashes.
	rep, _ := gossip.Report(0, 2, gt)
	if !rep.Suspects.IsEmpty() {
		t.Fatalf("gossip introduced premature suspicion %v", rep.Suspects)
	}
	// Delay shifts the information back in time.
	delayed := GossipOracle{Inner: WeakOracle{}, Delay: 5}
	rep, _ = delayed.Report(0, 7, gt)
	if rep.Suspects.Has(4) {
		t.Fatalf("delayed gossip should not yet know about the crash at 6")
	}
}

func TestCumulativeOracleMakesSuspicionsPermanent(t *testing.T) {
	gt := newFakeTruth(3, map[model.ProcID]int{2: 2})
	inner := ImpermanentStrongOracle{Window: 3}
	cum := CumulativeOracle{Inner: inner, Step: 1}
	// At a time inside a retract window the inner oracle reports nothing, but
	// the cumulative oracle still remembers the earlier suspicion.
	innerRep, _ := inner.Report(0, 4, gt)
	if !innerRep.Suspects.IsEmpty() {
		t.Fatalf("expected the inner oracle to retract at time 4")
	}
	rep, ok := cum.Report(0, 4, gt)
	if !ok || !rep.Suspects.Has(2) {
		t.Fatalf("cumulative oracle lost the suspicion: %v", rep.Suspects)
	}
}
