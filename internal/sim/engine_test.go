package sim_test

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sim"
)

// TestEngineReuseMatchesFreshEngines runs a mix of configurations (different
// sizes, networks and oracles) twice — once on fresh engines, once
// interleaved on a single reused engine, alternating the owning and the
// borrowed ending — and requires identical recorded runs and statistics.
func TestEngineReuseMatchesFreshEngines(t *testing.T) {
	configs := []sim.Config{
		baseConfig(),
		func() sim.Config {
			cfg := baseConfig()
			cfg.N = 7
			cfg.Seed = 99
			cfg.Network = sim.ReliableNetwork()
			cfg.Crashes = []sim.CrashEvent{{Time: 9, Proc: 6}, {Time: 4, Proc: 2}}
			return cfg
		}(),
		func() sim.Config {
			cfg := baseConfig()
			cfg.Seed = 5
			cfg.Oracle = fd.PerfectOracle{}
			cfg.SuspectEvery = 4
			cfg.Crashes = []sim.CrashEvent{{Time: 20, Proc: 1}, {Time: 35, Proc: 1}} // duplicate: earliest wins
			return cfg
		}(),
	}

	fresh := make([]*sim.Result, len(configs))
	for i, cfg := range configs {
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("fresh run %d: %v", i, err)
		}
		fresh[i] = res
	}

	eng := sim.NewEngine()
	for round := 0; round < 4; round++ {
		run := eng.Run
		if round%2 == 1 {
			run = eng.RunBorrowed
		}
		for i, cfg := range configs {
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("round %d reused run %d: %v", round, i, err)
			}
			if !reflect.DeepEqual(res.Run, fresh[i].Run) {
				t.Errorf("round %d config %d: reused engine recorded a different run", round, i)
			}
			if res.Stats != fresh[i].Stats {
				t.Errorf("round %d config %d: stats diverged: %+v vs %+v", round, i, res.Stats, fresh[i].Stats)
			}
		}
	}
}

// TestPreHorizonEntriesDoNotStallSchedule pins a cursor regression: an
// initiation or crash scheduled at Time <= 0 never fires (the loop starts at
// time 1), but it must not block later entries from firing.
func TestPreHorizonEntriesDoNotStallSchedule(t *testing.T) {
	cfg := baseConfig()
	cfg.Initiations = []sim.Initiation{
		{Time: 0, Proc: 0, Action: model.Action(0, 1)},
		{Time: 5, Proc: 1, Action: model.Action(1, 1)},
	}
	cfg.Crashes = []sim.CrashEvent{
		{Time: 0, Proc: 2},
		{Time: 10, Proc: 3},
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, ok := res.Run.InitTime(model.Action(0, 1)); ok {
		t.Errorf("time-0 initiation must not fire")
	}
	if it, ok := res.Run.InitTime(model.Action(1, 1)); !ok || it != 5 {
		t.Errorf("time-5 initiation fired at %d,%v; want 5,true", it, ok)
	}
	if _, ok := res.Run.CrashTime(2); ok {
		t.Errorf("time-0 crash must not fire")
	}
	if ct, ok := res.Run.CrashTime(3); !ok || ct != 10 {
		t.Errorf("time-10 crash fired at %d,%v; want 10,true", ct, ok)
	}
}

// TestEngineResultsOutliveEngine checks that a result recorded by an engine is
// not mutated by the engine's later runs.
func TestEngineResultsOutliveEngine(t *testing.T) {
	eng := sim.NewEngine()
	cfg := baseConfig()
	first, err := eng.Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	snapshot := first.Run.Clone()
	cfg2 := baseConfig()
	cfg2.Seed = 77
	if _, err := eng.Run(cfg2); err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !reflect.DeepEqual(first.Run, snapshot) {
		t.Fatalf("first result mutated by the engine's second run")
	}
}

// TestBorrowedResultLivesInEngine pins the borrowed ending's lifetime: the
// result is the engine's own, so the next run overwrites it in place, and a
// warmed RunBorrowed pays for no slab — a hundredth of what Run allocates for
// the same configuration.
func TestBorrowedResultLivesInEngine(t *testing.T) {
	eng := sim.NewEngine()
	cfg := baseConfig()
	cfg.MaxSteps = 800
	first, err := eng.RunBorrowed(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	cfg2 := cfg
	cfg2.Seed = 77
	want, err := sim.Run(cfg2)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	second, err := eng.RunBorrowed(cfg2)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if first != second || first.Run != second.Run {
		t.Fatalf("two borrowed results of one engine are distinct values: the ending allocates")
	}
	if !reflect.DeepEqual(first.Run, want.Run) || first.Stats != want.Stats {
		t.Fatalf("the borrowed result does not hold the engine's latest run")
	}

	bytesPerRun := func(run func(sim.Config) (*sim.Result, error)) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 8; i++ {
			if _, err := run(cfg); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 8
	}
	owned, borrowed := bytesPerRun(eng.Run), bytesPerRun(eng.RunBorrowed)
	t.Logf("owned %d B/run, borrowed %d B/run", owned, borrowed)
	if borrowed*100 > owned {
		t.Fatalf("a warmed RunBorrowed allocates %d bytes against Run's %d: it is building a slab", borrowed, owned)
	}
}

// TestZeroMaxDelayDeliversNextStep pins the calendar queue's smallest ring:
// with MaxDelay 0 every message arrives exactly one step after it was sent.
func TestZeroMaxDelayDeliversNextStep(t *testing.T) {
	cfg := baseConfig()
	cfg.Network = sim.NetworkConfig{Reliable: true, MaxDelay: 0}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	type sendKey struct {
		from, to model.ProcID
		time     int
		kind     model.MsgKind
	}
	sends := map[sendKey]bool{}
	for p := range res.Run.Events {
		for _, te := range res.Run.Events[p] {
			if te.Event.Kind == model.EventSend {
				sends[sendKey{from: model.ProcID(p), to: te.Event.Peer, time: te.Time, kind: te.Event.Msg().Kind}] = true
			}
		}
	}
	recvs := 0
	for p := range res.Run.Events {
		for _, te := range res.Run.Events[p] {
			if te.Event.Kind != model.EventRecv {
				continue
			}
			recvs++
			key := sendKey{from: te.Event.Peer, to: model.ProcID(p), time: te.Time - 1, kind: te.Event.Msg().Kind}
			if !sends[key] {
				t.Fatalf("delivery at time %d has no matching send at time %d: %+v", te.Time, te.Time-1, te.Event)
			}
		}
	}
	if res.Stats.MessagesDelivered == 0 || recvs == 0 {
		t.Fatalf("expected deliveries, got stats %+v", res.Stats)
	}
}
