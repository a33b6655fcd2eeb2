package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/adversary"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sim"
)

// Spec is a parameterised experiment scenario.
type Spec struct {
	// Name identifies the scenario in reports.
	Name string
	// N is the number of processes.
	N int
	// MaxSteps is the simulation horizon.
	MaxSteps int
	// TickEvery and SuspectEvery are passed through to the simulator
	// (0 means 1).
	TickEvery    int
	SuspectEvery int
	// Network is the channel regime.
	Network sim.NetworkConfig
	// Oracle is the failure detector (nil for none).
	Oracle fd.Oracle
	// Protocol builds each process's behaviour.
	Protocol sim.ProtocolFactory
	// Actions is the number of coordination actions to initiate.
	Actions int
	// LastInitTime is the latest time at which an action may be initiated;
	// initiation times are drawn uniformly from [1, LastInitTime].  Zero means
	// a quarter of MaxSteps.
	LastInitTime int
	// MaxFailures bounds the number of crashes injected per run.
	MaxFailures int
	// ExactFailures forces exactly MaxFailures crashes instead of a random
	// number in [0, MaxFailures].
	ExactFailures bool
	// CrashStart and CrashEnd bound the crash times; zero values default to
	// [1, MaxSteps/2].
	CrashStart, CrashEnd int
	// Adversary plans the failure pattern and, when it also implements
	// adversary.ChannelShaper, shapes per-link delivery.  The resolved
	// crash window and failure budget above are passed to it as planning
	// parameters, but positional schedules (targeted-final, late-burst, the
	// tail of a cascade) deliberately place crashes outside the window.
	// Nil means adversary.UniformCrashes, the baseline sampler, which does
	// honour the window.
	Adversary adversary.Adversary
}

// BuildConfig expands the spec into a concrete simulator configuration for the
// given seed.  Identical (spec, seed) pairs yield identical configurations.
func BuildConfig(spec Spec, seed int64) sim.Config {
	return buildConfig(spec, seed, rand.New(rand.NewSource(seed)))
}

// buildConfig is BuildConfig drawing from rng, which must be freshly seeded
// with seed: the executing engine's own source (sim.Engine.Rand), so a seed
// of a sweep allocates no source of its own.
func buildConfig(spec Spec, seed int64, rng *rand.Rand) sim.Config {
	if spec.N <= 0 {
		// Produce a config that sim.Run's validation will reject with a clear
		// error rather than panicking while generating the workload.
		return sim.Config{N: spec.N, Seed: seed, MaxSteps: spec.MaxSteps, Protocol: spec.Protocol}
	}

	lastInit := spec.LastInitTime
	if lastInit <= 0 {
		lastInit = spec.MaxSteps / 4
	}
	if lastInit < 1 {
		lastInit = 1
	}
	crashStart := spec.CrashStart
	if crashStart <= 0 {
		crashStart = 1
	}
	crashEnd := spec.CrashEnd
	if crashEnd <= 0 {
		crashEnd = spec.MaxSteps / 2
	}
	if crashEnd < crashStart {
		crashEnd = crashStart
	}

	// Crash pattern: the adversary plans it from the resolved crash window
	// and failure budget.  The default is the uniform baseline sampler,
	// which reproduces the historically inlined sampling draw for draw.
	adv := spec.Adversary
	if adv == nil {
		adv = adversary.UniformCrashes{}
	}
	planned := adv.PlanCrashes(rng, adversary.Params{
		N:             spec.N,
		Horizon:       spec.MaxSteps,
		MaxFailures:   spec.MaxFailures,
		ExactFailures: spec.ExactFailures,
		CrashStart:    crashStart,
		CrashEnd:      crashEnd,
	})
	crashes := make([]sim.CrashEvent, len(planned))
	for i, cr := range planned {
		crashes[i] = sim.CrashEvent{Time: cr.Time, Proc: cr.Proc}
	}

	// Initiation schedule: actions are spread round-robin over processes with
	// uniformly random initiation times.
	inits := make([]sim.Initiation, 0, spec.Actions)
	for i := 0; i < spec.Actions; i++ {
		p := model.ProcID(i % spec.N)
		t := 1 + rng.Intn(lastInit)
		inits = append(inits, sim.Initiation{
			Time:   t,
			Proc:   p,
			Action: model.Action(p, i),
		})
	}

	cfg := sim.Config{
		N:            spec.N,
		Seed:         seed,
		MaxSteps:     spec.MaxSteps,
		TickEvery:    spec.TickEvery,
		SuspectEvery: spec.SuspectEvery,
		Network:      spec.Network,
		Crashes:      crashes,
		Initiations:  inits,
		Protocol:     spec.Protocol,
		Oracle:       spec.Oracle,
	}
	if shaper, ok := adv.(adversary.ChannelShaper); ok {
		cfg.Shaper = shaper
	}
	return cfg
}

// Execute builds and runs the scenario for one seed on a fresh engine.
func Execute(spec Spec, seed int64) (*sim.Result, error) {
	return ExecuteWith(sim.NewEngine(), spec, seed)
}

// ExecuteWith builds and runs the scenario for one seed on the given engine,
// reusing the engine's buffers.  The recorded result is independent of the
// engine's prior runs, so sweeps over many (spec, seed) pairs can share one
// engine per worker.
func ExecuteWith(eng *sim.Engine, spec Spec, seed int64) (*sim.Result, error) {
	return execute(eng, (*sim.Engine).Run, spec, seed)
}

// engineRun is one of sim.Engine's two endings as a method expression:
// (*sim.Engine).Run, whose result the caller owns, or
// (*sim.Engine).RunBorrowed, whose result is valid until the engine's next
// run.  Which one is the caller's need to retain, not an option.
type engineRun func(*sim.Engine, sim.Config) (*sim.Result, error)

// execute builds the scenario's configuration for one seed from eng's own
// random source and runs it on eng through the given ending.
func execute(eng *sim.Engine, run engineRun, spec Spec, seed int64) (*sim.Result, error) {
	res, err := run(eng, buildConfig(spec, seed, eng.Rand(seed)))
	if err != nil {
		return nil, fmt.Errorf("scenario %q seed %d: %w", spec.Name, seed, err)
	}
	return res, nil
}

// Seeds returns count deterministic seeds derived from base.
func Seeds(base int64, count int) []int64 {
	out := make([]int64, count)
	for i := range out {
		out[i] = base + int64(i)*7919
	}
	return out
}
