package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/workload"
)

// scapegoatOracle is a failure detector whose reports depend only on the past
// of the run (crashes that have already happened) plus one fixed, unjustified
// suspicion: every process other than the scapegoat permanently suspects the
// scapegoat.  Because its output never depends on *future* crashes, any run
// prefix it produces is also a prefix of the runs in which additional
// processes crash later — which is exactly the closure property assumption A1
// demands and the proof of Proposition 3.4 exploits.
type scapegoatOracle struct {
	scapegoat model.ProcID
}

func (o scapegoatOracle) Name() string { return "scapegoat" }

func (o scapegoatOracle) Report(p model.ProcID, now int, gt fd.GroundTruth) (model.SuspectReport, bool) {
	var suspects model.ProcSet
	for _, q := range gt.Faulty().Members() {
		if gt.CrashedBy(q, now) {
			suspects = suspects.Add(q)
		}
	}
	if p != o.scapegoat {
		suspects = suspects.Add(o.scapegoat)
	}
	return model.SuspectReport{Suspects: suspects}, true
}

var _ fd.Oracle = scapegoatOracle{}

// TestProp34WeakAccuracyImpliesStrongAccuracy reproduces Proposition 3.4 by
// mirroring its proof.  The proposition says: in a context satisfying A1
// (failures are independent, so any crash pattern may extend any point) and
// A5_{n-1} (any n-1 processes may fail), weak accuracy already implies strong
// accuracy.  The proof argues that a premature suspicion of a process q at
// some point can be extended to a run in which everyone except q crashes; in
// that run q is the only correct process yet it was suspected, so weak
// accuracy fails.
//
// The test takes a detector with a premature suspicion whose reports are
// prefix-stable (so the A1 extension exists and the simulator's determinism
// constructs it exactly), builds the all-but-q-crash extension, and checks
// that weak accuracy is indeed violated there.
func TestProp34WeakAccuracyImpliesStrongAccuracy(t *testing.T) {
	const scapegoat = model.ProcID(4)
	spec := workload.Spec{
		Name:         "prop3.4",
		N:            5,
		MaxSteps:     300,
		TickEvery:    2,
		SuspectEvery: 3,
		Network:      sim.FairLossyNetwork(0.2),
		Oracle:       scapegoatOracle{scapegoat: scapegoat},
		Protocol:     core.NewStrongFDUDC,
		Actions:      4,
		MaxFailures:  1,
		CrashEnd:     60,
	}

	// Find a base run in which the scapegoat stays correct and is prematurely
	// suspected.
	var (
		baseCfg    sim.Config
		baseRun    *model.Run
		observer   model.ProcID
		suspicionT int
		found      bool
	)
	for _, seed := range workload.Seeds(1, 10) {
		cfg := workload.BuildConfig(spec, seed)
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if res.Run.Faulty().Has(scapegoat) {
			continue
		}
		for p := model.ProcID(0); int(p) < res.Run.N && !found; p++ {
			if p == scapegoat {
				continue
			}
			for _, te := range res.Run.Events[p] {
				if te.Event.Kind == model.EventSuspect && te.Event.Report().Suspects.Has(scapegoat) {
					baseCfg, baseRun = cfg, res.Run
					observer, suspicionT = p, te.Time
					found = true
					break
				}
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatalf("no base run with a premature suspicion of the scapegoat; adjust the workload")
	}

	// Precondition: the base run violates strong accuracy but satisfies weak
	// accuracy (the other correct processes are never suspected).
	if vs := fd.CheckStrongAccuracy(baseRun); len(vs) == 0 {
		t.Fatalf("precondition: base run should violate strong accuracy")
	}
	if vs := fd.CheckWeakAccuracy(baseRun); len(vs) != 0 {
		t.Fatalf("precondition: base run should satisfy weak accuracy, got %v", vs)
	}

	// Build the A1/A5_{n-1} extension: every process other than the scapegoat
	// crashes right after the suspicion (keeping any earlier crashes).
	extCfg := baseCfg
	extCfg.Crashes = append([]sim.CrashEvent(nil), baseCfg.Crashes...)
	already := make(map[model.ProcID]bool, len(baseCfg.Crashes))
	for _, cr := range baseCfg.Crashes {
		if cr.Time <= suspicionT {
			already[cr.Proc] = true
		} else {
			// Replace later scheduled crashes with the extension's schedule.
			already[cr.Proc] = false
		}
	}
	var extCrashes []sim.CrashEvent
	for _, cr := range baseCfg.Crashes {
		if cr.Time <= suspicionT {
			extCrashes = append(extCrashes, cr)
		}
	}
	for p := model.ProcID(0); int(p) < extCfg.N; p++ {
		if p == scapegoat || already[p] {
			continue
		}
		extCrashes = append(extCrashes, sim.CrashEvent{Time: suspicionT + 1, Proc: p})
	}
	extCfg.Crashes = extCrashes
	extRes, err := sim.Run(extCfg)
	if err != nil {
		t.Fatalf("extension run: %v", err)
	}

	// The extension agrees with the base run up to the suspicion time (this is
	// what A1 demands and the deterministic simulator provides for a
	// prefix-stable detector).
	for p := model.ProcID(0); int(p) < extCfg.N; p++ {
		if baseRun.HistoryAt(p, suspicionT).Key() != extRes.Run.HistoryAt(p, suspicionT).Key() {
			t.Fatalf("extension diverges from the base run before the suspicion at process %d", p)
		}
	}

	// In the extension, the scapegoat is the only correct process...
	if got := extRes.Run.Correct(); !got.Equal(model.Singleton(scapegoat)) {
		t.Fatalf("extension's correct set = %v, want {%d}", got, scapegoat)
	}
	// ...yet it was suspected by the same (now unretractable) report, so weak
	// accuracy fails, exactly as the proof of Proposition 3.4 derives.
	if !extRes.Run.SuspectsAt(observer, suspicionT).Has(scapegoat) {
		t.Fatalf("the premature suspicion disappeared in the extension")
	}
	if vs := fd.CheckWeakAccuracy(extRes.Run); len(vs) == 0 {
		t.Fatalf("weak accuracy should be violated in the all-but-one-crash extension")
	}
}

// TestProp34PerfectDetectorSatisfiesBoth is the easy direction: a strongly
// accurate detector is weakly accurate on every run.
func TestProp34PerfectDetectorSatisfiesBoth(t *testing.T) {
	spec := workload.Spec{
		Name:         "prop3.4-easy",
		N:            5,
		MaxSteps:     250,
		TickEvery:    2,
		SuspectEvery: 3,
		Network:      sim.FairLossyNetwork(0.2),
		Oracle:       fd.PerfectOracle{},
		Protocol:     core.NewStrongFDUDC,
		Actions:      4,
		MaxFailures:  4,
	}
	for _, seed := range workload.Seeds(50, 10) {
		res, err := workload.Execute(spec, seed)
		if err != nil {
			t.Fatalf("execute: %v", err)
		}
		if vs := fd.CheckStrongAccuracy(res.Run); len(vs) != 0 {
			t.Fatalf("seed %d: perfect oracle violated strong accuracy: %v", seed, vs[0])
		}
		if vs := fd.CheckWeakAccuracy(res.Run); len(vs) != 0 {
			t.Fatalf("seed %d: strong accuracy must imply weak accuracy: %v", seed, vs[0])
		}
	}
}
