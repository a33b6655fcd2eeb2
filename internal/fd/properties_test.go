package fd

import (
	"testing"

	"repro/internal/model"
)

// runBuilder helps construct small hand-crafted runs for checker tests.
type runBuilder struct {
	t *testing.T
	r *model.Run
}

func newRunBuilder(t *testing.T, n int) *runBuilder {
	return &runBuilder{t: t, r: model.NewRun(n)}
}

func (b *runBuilder) crash(p model.ProcID, at int) *runBuilder {
	b.t.Helper()
	if err := b.r.Append(p, at, model.Event{Kind: model.EventCrash}); err != nil {
		b.t.Fatalf("crash: %v", err)
	}
	return b
}

func (b *runBuilder) report(p model.ProcID, at int, suspects ...model.ProcID) *runBuilder {
	b.t.Helper()
	ev := model.SuspectEvent(model.SuspectReport{Suspects: model.SetOf(suspects...)})
	if err := b.r.Append(p, at, ev); err != nil {
		b.t.Fatalf("report: %v", err)
	}
	return b
}

func (b *runBuilder) generalized(p model.ProcID, at int, group model.ProcSet, k int) *runBuilder {
	b.t.Helper()
	ev := model.SuspectEvent(model.SuspectReport{Generalized: true, Group: group, MinFaulty: k})
	if err := b.r.Append(p, at, ev); err != nil {
		b.t.Fatalf("generalized report: %v", err)
	}
	return b
}

func (b *runBuilder) done(horizon int) *model.Run {
	b.r.SetHorizon(horizon)
	return b.r
}

func rules(vs []model.Violation) map[string]bool {
	out := make(map[string]bool, len(vs))
	for _, v := range vs {
		out[v.Rule] = true
	}
	return out
}

func TestCheckStrongAccuracy(t *testing.T) {
	good := newRunBuilder(t, 3).crash(2, 5).report(0, 6, 2).report(1, 7, 2).done(10)
	if vs := CheckStrongAccuracy(good); len(vs) != 0 {
		t.Fatalf("accurate run flagged: %v", vs)
	}
	bad := newRunBuilder(t, 3).report(0, 3, 2).crash(2, 5).done(10)
	if vs := CheckStrongAccuracy(bad); len(vs) == 0 {
		t.Fatalf("premature suspicion not flagged")
	}
	neverCrashed := newRunBuilder(t, 3).report(0, 3, 1).done(10)
	if vs := CheckStrongAccuracy(neverCrashed); len(vs) == 0 {
		t.Fatalf("suspicion of a correct process not flagged")
	}
}

func TestCheckWeakAccuracy(t *testing.T) {
	// Processes 1 and 2 are correct; 1 is suspected but 2 never is.
	ok := newRunBuilder(t, 3).crash(0, 2).report(1, 3, 0, 1).done(10)
	if vs := CheckWeakAccuracy(ok); len(vs) != 0 {
		t.Fatalf("weak accuracy should hold when some correct process is unsuspected: %v", vs)
	}
	// Every correct process is suspected at some point.
	bad := newRunBuilder(t, 3).crash(0, 2).report(1, 3, 2).report(2, 4, 1).done(10)
	if vs := CheckWeakAccuracy(bad); len(vs) == 0 {
		t.Fatalf("expected a weak-accuracy violation")
	}
	// All processes faulty: vacuous.
	vac := newRunBuilder(t, 2).report(0, 1, 1).crash(0, 3).crash(1, 3).done(10)
	if vs := CheckWeakAccuracy(vac); len(vs) != 0 {
		t.Fatalf("weak accuracy should be vacuous with no correct process: %v", vs)
	}
}

func TestCheckStrongCompleteness(t *testing.T) {
	good := newRunBuilder(t, 3).
		crash(2, 5).
		report(0, 6, 2).report(0, 9, 2).
		report(1, 7, 2).
		done(12)
	if vs := CheckStrongCompleteness(good); len(vs) != 0 {
		t.Fatalf("complete run flagged: %v", vs)
	}
	// Process 1's final report forgets about the crash: not permanent.
	retracted := newRunBuilder(t, 3).
		crash(2, 5).
		report(0, 6, 2).
		report(1, 6, 2).report(1, 9).
		done(12)
	if vs := CheckStrongCompleteness(retracted); len(vs) == 0 {
		t.Fatalf("retraction should violate strong completeness")
	}
	// A correct process with no reports at all violates completeness.
	silent := newRunBuilder(t, 3).crash(2, 5).report(0, 6, 2).done(12)
	if vs := CheckStrongCompleteness(silent); len(vs) == 0 {
		t.Fatalf("silent correct process should violate strong completeness")
	}
	// No faulty processes: nothing to check.
	clean := newRunBuilder(t, 3).done(12)
	if vs := CheckStrongCompleteness(clean); len(vs) != 0 {
		t.Fatalf("failure-free run flagged: %v", vs)
	}
}

func TestCheckWeakCompleteness(t *testing.T) {
	good := newRunBuilder(t, 4).crash(3, 5).report(1, 8, 3).done(12)
	if vs := CheckWeakCompleteness(good); len(vs) != 0 {
		t.Fatalf("weakly complete run flagged: %v", vs)
	}
	bad := newRunBuilder(t, 4).crash(3, 5).report(1, 8).done(12)
	if vs := CheckWeakCompleteness(bad); len(vs) == 0 {
		t.Fatalf("unsuspected faulty process should be flagged")
	}
}

func TestCheckImpermanentCompleteness(t *testing.T) {
	// Suspicion occurs once and is then retracted: impermanent completeness
	// holds, permanent completeness does not.
	r := newRunBuilder(t, 3).
		crash(2, 4).
		report(0, 5, 2).report(0, 8).
		report(1, 6, 2).report(1, 9).
		done(12)
	if vs := CheckImpermanentStrongCompleteness(r); len(vs) != 0 {
		t.Fatalf("impermanent strong completeness should hold: %v", vs)
	}
	if vs := CheckImpermanentWeakCompleteness(r); len(vs) != 0 {
		t.Fatalf("impermanent weak completeness should hold: %v", vs)
	}
	if vs := CheckStrongCompleteness(r); len(vs) == 0 {
		t.Fatalf("permanent completeness should fail after retraction")
	}
	missing := newRunBuilder(t, 3).crash(2, 4).report(0, 5).report(1, 6).done(12)
	if vs := CheckImpermanentWeakCompleteness(missing); len(vs) == 0 {
		t.Fatalf("never-suspected faulty process should be flagged")
	}
	if vs := CheckImpermanentStrongCompleteness(missing); len(vs) == 0 {
		t.Fatalf("never-suspected faulty process should be flagged for every correct process")
	}
}

func TestCompositeCheckers(t *testing.T) {
	r := newRunBuilder(t, 3).
		crash(2, 4).
		report(0, 5, 2).
		report(1, 6, 1, 2).
		done(12)
	// Strong accuracy fails (1 suspected while correct), weak accuracy holds
	// (0 never suspected), completeness holds.
	perfect := rules(CheckPerfect(r))
	if !perfect["strong-accuracy"] {
		t.Fatalf("CheckPerfect should report the accuracy violation")
	}
	if len(CheckStrong(r)) != 0 {
		t.Fatalf("CheckStrong should pass: %v", CheckStrong(r))
	}
	if len(CheckWeak(r)) != 0 {
		t.Fatalf("CheckWeak should pass: %v", CheckWeak(r))
	}
}

func TestGeneralizedAccuracyChecker(t *testing.T) {
	ok := newRunBuilder(t, 4).
		crash(1, 3).
		generalized(0, 5, model.SetOf(1, 2), 1).
		done(10)
	if vs := CheckGeneralizedStrongAccuracy(ok); len(vs) != 0 {
		t.Fatalf("accurate generalized report flagged: %v", vs)
	}
	overcount := newRunBuilder(t, 4).
		crash(1, 3).
		generalized(0, 5, model.SetOf(1, 2), 2).
		done(10)
	if vs := CheckGeneralizedStrongAccuracy(overcount); len(vs) == 0 {
		t.Fatalf("overcounted generalized report not flagged")
	}
	tooBig := newRunBuilder(t, 4).
		generalized(0, 5, model.Singleton(1), 2).
		done(10)
	if vs := CheckGeneralizedStrongAccuracy(tooBig); len(vs) == 0 {
		t.Fatalf("k > |S| not flagged")
	}
}

func TestIsTUsefulEventAndChecker(t *testing.T) {
	// n = 5, faulty = {1, 2}, t = 2.
	base := newRunBuilder(t, 5).crash(1, 3).crash(2, 4)
	r := base.
		generalized(0, 10, model.SetOf(1, 2), 2).
		generalized(3, 10, model.SetOf(1, 2, 4), 2).
		generalized(4, 10, model.SetOf(1, 2, 3, 4), 1).
		done(20)

	useful := model.SuspectReport{Generalized: true, Group: model.SetOf(1, 2), MinFaulty: 2}
	if !IsTUsefulEvent(r, useful, 2) {
		t.Fatalf("(F(r), |F|) should be t-useful")
	}
	notCovering := model.SuspectReport{Generalized: true, Group: model.SetOf(1, 3), MinFaulty: 1}
	if IsTUsefulEvent(r, notCovering, 2) {
		t.Fatalf("a group not containing F(r) is not useful")
	}
	tooWeak := model.SuspectReport{Generalized: true, Group: model.SetOf(1, 2, 3, 4), MinFaulty: 1}
	if IsTUsefulEvent(r, tooWeak, 2) {
		t.Fatalf("n-|S| > min(t,n-1)-k must fail for (|S|=4,k=1)")
	}
	standard := model.SuspectReport{Suspects: model.SetOf(1, 2)}
	if IsTUsefulEvent(r, standard, 2) {
		t.Fatalf("standard reports are never t-useful events")
	}

	// Correct processes are 0, 3, 4.  Process 0 and 3 received useful events
	// (for 3: group {1,2,4} with k=2 satisfies 5-3 > 2-2); process 4's report
	// has k=1, which is not useful, so CheckTUseful must flag it.
	vs := CheckTUseful(r, 2)
	if len(vs) != 1 {
		t.Fatalf("expected exactly one t-usefulness violation, got %v", vs)
	}
	if vs[0].Rule != "t-useful" {
		t.Fatalf("unexpected rule %q", vs[0].Rule)
	}
}

func TestCheckTUsefulWithTrivialDetectorShape(t *testing.T) {
	// For t < n/2, reports (S, 0) with F(r) contained in S are useful: n=5,
	// t=2, faulty={4}.
	r := newRunBuilder(t, 5).
		crash(4, 2).
		generalized(0, 5, model.SetOf(3, 4), 0).
		generalized(1, 5, model.SetOf(2, 4), 0).
		generalized(2, 5, model.SetOf(1, 4), 0).
		generalized(3, 5, model.SetOf(0, 4), 0).
		done(10)
	if vs := CheckTUseful(r, 2); len(vs) != 0 {
		t.Fatalf("trivial-detector reports should be 2-useful: %v", vs)
	}
	// The same reports are not useful for t = 3 (5-2 > 3-0 fails).
	if vs := CheckTUseful(r, 3); len(vs) == 0 {
		t.Fatalf("size-2 groups with k=0 must not be 3-useful")
	}
}

// TestCheckPerfectAllocatesOneTimelinePerProcess bounds what a check of a
// long, clean history allocates: the accuracy check one exact-size timeline
// per process that has reports, the completeness check (which reads each
// final report in place) the correct-process list and one faulty list per
// correct process — nothing per report, however many there are.
func TestCheckPerfectAllocatesOneTimelinePerProcess(t *testing.T) {
	const (
		n       = 5
		crashAt = 7
		horizon = 400
	)
	b := newRunBuilder(t, n).crash(n-1, crashAt)
	for p := model.ProcID(0); p < n-1; p++ {
		for m := 0; m <= horizon; m++ {
			if m < crashAt {
				b.report(p, m)
			} else {
				b.report(p, m, n-1)
			}
		}
	}
	r := b.done(horizon)
	if vs := CheckPerfect(r); len(vs) > 0 {
		t.Fatalf("the hand-built detector is perfect, got %v", vs[0])
	}
	correct := r.Correct().Count()
	allocs := testing.AllocsPerRun(20, func() { CheckPerfect(r) })
	if limit := float64(correct + 1 + correct); allocs > limit {
		t.Fatalf("CheckPerfect allocated %.0f objects over %d reports, want at most %.0f (%d timelines, %d process lists)",
			allocs, correct*(horizon+1), limit, correct, 1+correct)
	}
}
