package fd

import (
	"iter"

	"repro/internal/model"
)

// The checkers in this file verify the accuracy and completeness properties of
// Section 2.2 (and the generalized properties of Section 4) on recorded runs.
// "Eventually permanently" is interpreted on the finite trace as "from the
// final report onwards", which is the strongest statement a finite prefix can
// support; EXPERIMENTS.md discusses this bounded-horizon reading.

// reportEvent is one failure-detector event extracted from a history.  For
// standard and g-standard reports, suspects holds the report's suspected set
// after applying the g mapping (standard reports map to themselves,
// "these are correct" reports map to the complement); isStandard is false for
// generalized (S, k) reports, which do not identify individual suspects and
// carry group and minFaulty instead.
type reportEvent struct {
	time       int
	suspects   model.ProcSet
	isStandard bool
	group      model.ProcSet
	minFaulty  int
}

// newReportEvent reads one failure-detector event in place.
func newReportEvent(r *model.Run, te *model.TimedEvent) reportEvent {
	re := reportEvent{time: te.Time}
	re.suspects, re.isStandard = te.Event.StandardSuspects(r.N)
	if !re.isStandard {
		re.group, re.minFaulty, _ = te.Event.GeneralizedReport()
	}
	return re
}

// finalReport returns p's last failure-detector event, if it has one: what
// the "from the final report onwards" checks read, found from the history's
// end without building the timeline.
func finalReport(r *model.Run, p model.ProcID) (reportEvent, bool) {
	evs := r.Events[p]
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].Event.Kind == model.EventSuspect {
			return newReportEvent(r, &evs[i]), true
		}
	}
	return reportEvent{}, false
}

// reports yields p's failure-detector events in order, each read in place
// from the history: a transformed run of Theorems 3.6/4.3 carries one report
// per process per original time step, and the checks walk them without
// collecting them.
func reports(r *model.Run, p model.ProcID) iter.Seq[reportEvent] {
	return func(yield func(reportEvent) bool) {
		evs := r.Events[p]
		for i := range evs {
			if evs[i].Event.Kind == model.EventSuspect && !yield(newReportEvent(r, &evs[i])) {
				return
			}
		}
	}
}

// CheckStrongAccuracy verifies that no process is suspected before it crashes:
// for every standard report S of every process at time m and every q in S,
// crash_q is in r_q(m).
func CheckStrongAccuracy(r *model.Run) []model.Violation {
	var out []model.Violation
	for p := model.ProcID(0); int(p) < r.N; p++ {
		for re := range reports(r, p) {
			if !re.isStandard {
				continue
			}
			for q := model.ProcID(0); int(q) < r.N; q++ {
				if re.suspects.Has(q) && !r.CrashedBy(q, re.time) {
					out = append(out, model.Violationf("strong-accuracy",
						"process %d suspected %d at time %d but %d had not crashed", p, q, re.time, q))
				}
			}
		}
	}
	return out
}

// CheckWeakAccuracy verifies that, if the run has at least one correct
// process, some correct process is never suspected by anyone.
func CheckWeakAccuracy(r *model.Run) []model.Violation {
	correct := r.Correct()
	if correct.IsEmpty() {
		return nil
	}
	var everSuspected model.ProcSet
	for p := model.ProcID(0); int(p) < r.N; p++ {
		for re := range reports(r, p) {
			if re.isStandard {
				everSuspected = everSuspected.Union(re.suspects)
			}
		}
	}
	if correct.Diff(everSuspected).IsEmpty() {
		return []model.Violation{model.Violationf("weak-accuracy",
			"every correct process in %s was suspected at some point", correct)}
	}
	return nil
}

// CheckStrongCompleteness verifies that every faulty process is eventually
// permanently suspected by every correct process.  On a finite trace this
// means: every correct process has at least one report, and its final report
// contains every faulty process that crashed before that report.
func CheckStrongCompleteness(r *model.Run) []model.Violation {
	var out []model.Violation
	faulty := r.Faulty()
	if faulty.IsEmpty() {
		return nil
	}
	for _, p := range r.Correct().Members() {
		last, ok := finalReport(r, p)
		if !ok {
			out = append(out, model.Violationf("strong-completeness",
				"correct process %d never received a failure-detector report", p))
			continue
		}
		for _, q := range faulty.Members() {
			if !last.isStandard || !last.suspects.Has(q) {
				out = append(out, model.Violationf("strong-completeness",
					"correct process %d's final report at time %d does not suspect faulty %d", p, last.time, q))
			}
		}
	}
	return out
}

// CheckWeakCompleteness verifies that every faulty process is eventually
// permanently suspected by some correct process (final-report reading, as in
// CheckStrongCompleteness).
func CheckWeakCompleteness(r *model.Run) []model.Violation {
	var out []model.Violation
	correct := r.Correct()
	if correct.IsEmpty() {
		return nil
	}
	for _, q := range r.Faulty().Members() {
		found := false
		for _, p := range correct.Members() {
			if last, ok := finalReport(r, p); ok && last.isStandard && last.suspects.Has(q) {
				found = true
				break
			}
		}
		if !found {
			out = append(out, model.Violationf("weak-completeness",
				"faulty process %d is not suspected in any correct process's final report", q))
		}
	}
	return out
}

// CheckImpermanentStrongCompleteness verifies that every faulty process is
// suspected at least once (not necessarily permanently) by every correct
// process.
func CheckImpermanentStrongCompleteness(r *model.Run) []model.Violation {
	var out []model.Violation
	faulty := r.Faulty()
	for _, p := range r.Correct().Members() {
		var everSuspected model.ProcSet
		for re := range reports(r, p) {
			if re.isStandard {
				everSuspected = everSuspected.Union(re.suspects)
			}
		}
		for _, q := range faulty.Members() {
			if !everSuspected.Has(q) {
				out = append(out, model.Violationf("impermanent-strong-completeness",
					"correct process %d never suspected faulty %d", p, q))
			}
		}
	}
	return out
}

// CheckImpermanentWeakCompleteness verifies that every faulty process is
// suspected at least once by some correct process.
func CheckImpermanentWeakCompleteness(r *model.Run) []model.Violation {
	var out []model.Violation
	correct := r.Correct()
	if correct.IsEmpty() {
		return nil
	}
	for _, q := range r.Faulty().Members() {
		found := false
		for _, p := range correct.Members() {
			for re := range reports(r, p) {
				if re.isStandard && re.suspects.Has(q) {
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			out = append(out, model.Violationf("impermanent-weak-completeness",
				"faulty process %d was never suspected by any correct process", q))
		}
	}
	return out
}

// CheckPerfect verifies strong completeness and strong accuracy.
func CheckPerfect(r *model.Run) []model.Violation {
	return append(CheckStrongAccuracy(r), CheckStrongCompleteness(r)...)
}

// CheckStrong verifies strong completeness and weak accuracy.
func CheckStrong(r *model.Run) []model.Violation {
	return append(CheckWeakAccuracy(r), CheckStrongCompleteness(r)...)
}

// CheckWeak verifies weak completeness and weak accuracy.
func CheckWeak(r *model.Run) []model.Violation {
	return append(CheckWeakAccuracy(r), CheckWeakCompleteness(r)...)
}

// CheckGeneralizedStrongAccuracy verifies Section 4's generalized strong
// accuracy: every generalized report (S, k) delivered at time m is such that
// at least k processes of S have crashed by m.
func CheckGeneralizedStrongAccuracy(r *model.Run) []model.Violation {
	var out []model.Violation
	for p := model.ProcID(0); int(p) < r.N; p++ {
		for re := range reports(r, p) {
			if re.isStandard {
				continue
			}
			crashed := 0
			for q := model.ProcID(0); int(q) < r.N; q++ {
				if re.group.Has(q) && r.CrashedBy(q, re.time) {
					crashed++
				}
			}
			if crashed < re.minFaulty {
				out = append(out, model.Violationf("generalized-strong-accuracy",
					"process %d received (%s,%d) at time %d but only %d members had crashed",
					p, re.group, re.minFaulty, re.time, crashed))
			}
			if re.minFaulty > re.group.Count() {
				out = append(out, model.Violationf("generalized-strong-accuracy",
					"process %d received (%s,%d) with k exceeding |S|", p, re.group, re.minFaulty))
			}
		}
	}
	return out
}

// IsTUsefulEvent reports whether the generalized report (S, k) is a t-useful
// failure-detector event for the run: F(r) is contained in S,
// n - |S| > min(t, n-1) - k, and k <= |S|.
func IsTUsefulEvent(r *model.Run, rep model.SuspectReport, t int) bool {
	return rep.Generalized && isTUseful(r, rep.Group, rep.MinFaulty, t)
}

// isTUseful is IsTUsefulEvent for the generalized report (group, k).
func isTUseful(r *model.Run, group model.ProcSet, k, t int) bool {
	n := r.N
	s := group.Count()
	if k > s {
		return false
	}
	if !group.Contains(r.Faulty()) {
		return false
	}
	bound := t
	if n-1 < bound {
		bound = n - 1
	}
	return n-s > bound-k
}

// CheckTUseful verifies that the generalized detector of the run is t-useful:
// generalized strong accuracy holds, and every correct process receives at
// least one t-useful failure-detector event (generalized impermanent strong
// completeness).
func CheckTUseful(r *model.Run, t int) []model.Violation {
	out := CheckGeneralizedStrongAccuracy(r)
	for _, p := range r.Correct().Members() {
		found := false
		for re := range reports(r, p) {
			if !re.isStandard && isTUseful(r, re.group, re.minFaulty, t) {
				found = true
				break
			}
		}
		if !found {
			out = append(out, model.Violationf("t-useful",
				"correct process %d never received a %d-useful failure-detector event", p, t))
		}
	}
	return out
}
