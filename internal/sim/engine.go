package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/model"
)

// EngineVersion identifies the recorded-run semantics of the simulator.  Two
// binaries with the same EngineVersion produce byte-identical recorded runs
// for the same configuration.  Bump it whenever a change alters recorded runs
// (event ordering, sampling draws, new event kinds); the run-corpus store
// folds it into every cache key, so stale entries are never served.
const EngineVersion = 1

// Engine executes simulations.  One Engine can run many configurations in
// sequence, reusing its internal buffers (its random source, network buckets
// and per-channel drop lists, per-process harnesses, schedule slices and the
// event arena) between runs, so the inner recording loop allocates nothing
// once they have grown to the workload's high-water mark.  Run returns a
// result the caller owns: its model.Run is freshly allocated — copied out of
// the arena in a constant number of allocations — and stays valid after the
// Engine moves on.  RunBorrowed returns a result that lives in the Engine,
// valid only until that Engine's next run, and allocates nothing for it.  An
// Engine is not safe for concurrent use; parallel sweeps give each worker its
// own Engine.  For the same Config, every Engine produces an identical
// recorded run regardless of what it ran before and of which ending returned
// it.
type Engine struct {
	// Reused across runs.
	net      network
	gt       groundTruth
	procs    []procRuntime
	actions  []model.ActionID // this run's actions, in order of first Do
	epoch    uint32
	initsBuf []Initiation
	crashBuf []CrashEvent
	arena    model.RunArena
	// borrowed is the result RunBorrowed lends out; sink is where record
	// points its caller once a run has failed.
	borrowed Result
	sink     model.Event
	// Per-run state.
	cfg   Config
	rng   *rand.Rand // reseeded by each run
	now   int
	stats Stats
	err   error
}

// NewEngine returns an empty engine ready to run configurations.
func NewEngine() *Engine {
	return &Engine{rng: rand.New(rand.NewSource(0))}
}

// Rand reseeds the engine's random source with seed and lends it to the
// caller until the engine's next run, which reseeds it with its Config's
// Seed.  Drawing a run's configuration from it (workload.BuildConfig's draws)
// therefore moves no draw of the run, and costs no source of its own.
func (e *Engine) Rand(seed int64) *rand.Rand {
	e.rng.Seed(seed)
	return e.rng
}

// Run executes one simulation described by cfg and returns the recorded run
// and statistics.  It may be called repeatedly; identical configurations yield
// identical results regardless of what the engine ran before.  The result
// belongs to the caller: Build copies the arena into a fresh Run, which
// survives the engine's later runs.
func (e *Engine) Run(cfg Config) (*Result, error) {
	if err := e.simulate(cfg); err != nil {
		return nil, err
	}
	return &Result{Run: e.arena.Build(), Stats: e.stats}, nil
}

// RunBorrowed is Run for a caller that reads the result and drops it before
// the engine runs again (a sweep scoring one seed): the same recorded run,
// event for event, but the Result and its Run live in the engine and are
// overwritten by its next Run or RunBorrowed.
func (e *Engine) RunBorrowed(cfg Config) (*Result, error) {
	if err := e.simulate(cfg); err != nil {
		return nil, err
	}
	e.borrowed = Result{Run: e.arena.View(), Stats: e.stats}
	return &e.borrowed, nil
}

// simulate is the recording loop behind both endings: it leaves the run of
// cfg in the arena and its counters in e.stats.
func (e *Engine) simulate(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.TickEvery <= 0 {
		cfg.TickEvery = 1
	}
	if cfg.SuspectEvery <= 0 {
		cfg.SuspectEvery = 1
	}

	e.cfg = cfg
	e.rng.Seed(cfg.Seed)
	e.now = 0
	e.stats = Stats{}
	e.err = nil
	e.actions = e.actions[:0]
	e.epoch++
	if e.epoch == 0 { // epoch wrapped: stale done stamps could collide
		for i := range e.procs {
			e.procs[i].done = e.procs[i].done[:0]
		}
		e.epoch = 1
	}
	e.gt.reset(cfg)
	e.net.reset(cfg, e.rng, &e.stats)
	e.arena.Reset(cfg.N, cfg.N*eventCapacityHint(cfg))

	if cap(e.procs) < cfg.N {
		grown := make([]procRuntime, cfg.N)
		copy(grown, e.procs)
		e.procs = grown
	}
	e.procs = e.procs[:cfg.N]
	for i := 0; i < cfg.N; i++ {
		pr := &e.procs[i]
		pr.id = model.ProcID(i)
		pr.crashed = false
		pr.proto = cfg.Protocol(pr.id, cfg.N)
		if pr.proto == nil {
			return fmt.Errorf("sim: protocol factory returned nil for process %d", i)
		}
		pr.ctx = procContext{e: e, p: pr}
	}

	inits, crashes := e.buildSchedule(cfg)

	// Time 0: protocol initialisation.
	for i := range e.procs {
		e.procs[i].proto.Init(&e.procs[i].ctx)
	}

	ii, ci := 0, 0
	for e.now = 1; e.now <= cfg.MaxSteps; e.now++ {
		// Entries scheduled before the loop's first step (Time < 1) never
		// fire; skip them so they cannot stall the cursor.
		for ii < len(inits) && inits[ii].Time < e.now {
			ii++
		}
		i0 := ii
		for ii < len(inits) && inits[ii].Time == e.now {
			ii++
		}
		for ci < len(crashes) && crashes[ci].Time < e.now {
			ci++
		}
		c0 := ci
		for ci < len(crashes) && crashes[ci].Time == e.now {
			ci++
		}
		e.step(inits[i0:ii], crashes[c0:ci])
		if e.err != nil {
			return fmt.Errorf("sim: step %d: %w", e.now, e.err)
		}
	}
	e.arena.SetHorizon(cfg.MaxSteps)
	e.stats.Steps = cfg.MaxSteps
	return nil
}

// buildSchedule sorts the workload and the (deduplicated) failure pattern into
// time order, reusing the engine's schedule buffers.
func (e *Engine) buildSchedule(cfg Config) ([]Initiation, []CrashEvent) {
	e.initsBuf = append(e.initsBuf[:0], cfg.Initiations...)
	inits := e.initsBuf
	slices.SortFunc(inits, func(a, b Initiation) int {
		return cmp.Or(cmp.Compare(a.Time, b.Time), cmp.Compare(a.Proc, b.Proc), cmp.Compare(a.Action.Seq, b.Action.Seq))
	})

	e.crashBuf = e.crashBuf[:0]
	for q, t := range e.gt.crashTime {
		if t >= 0 {
			e.crashBuf = append(e.crashBuf, CrashEvent{Time: t, Proc: model.ProcID(q)})
		}
	}
	crashes := e.crashBuf
	slices.SortFunc(crashes, func(a, b CrashEvent) int {
		return cmp.Or(cmp.Compare(a.Time, b.Time), cmp.Compare(a.Proc, b.Proc))
	})
	return inits, crashes
}

// actionIndex returns a's index in this run's action list, or the list's
// length if a has not been performed yet.
func (e *Engine) actionIndex(a model.ActionID) int {
	i := 0
	for i < len(e.actions) && e.actions[i] != a {
		i++
	}
	return i
}

// record reserves an event of the given kind at process p in the run arena and
// returns it for the caller to fill in place.  The first refused record is
// captured in e.err; from then on callers are handed the sink event, so they
// need no error branch of their own.
func (e *Engine) record(p model.ProcID, kind model.EventKind) *model.Event {
	if e.err != nil {
		return &e.sink
	}
	ev, err := e.arena.Record(p, e.now, kind)
	if err != nil {
		e.err = err
		return &e.sink
	}
	e.stats.LastEventTime = e.now
	return ev
}

// step advances the simulation by one global time unit.
func (e *Engine) step(inits []Initiation, crashes []CrashEvent) {
	// 1. Crashes scheduled for this step.
	for _, cr := range crashes {
		pr := &e.procs[cr.Proc]
		if pr.crashed {
			continue
		}
		pr.crashed = true
		e.stats.CrashEvents++
		e.record(cr.Proc, model.EventCrash)
	}

	// 2. Workload initiations.
	for _, in := range inits {
		pr := &e.procs[in.Proc]
		if pr.crashed {
			continue
		}
		e.stats.InitEvents++
		e.record(in.Proc, model.EventInit).SetAction(in.Action)
		pr.proto.OnInitiate(&pr.ctx, in.Action)
	}

	// 3. Message deliveries due now.
	due := e.net.due(e.now)
	for i := range due {
		pm := &due[i]
		pr := &e.procs[pm.to]
		if pr.crashed {
			e.stats.MessagesToCrashed++
			continue
		}
		e.stats.MessagesDelivered++
		ev := e.record(pm.to, model.EventRecv)
		ev.Peer = pm.from
		ev.SetMsg(&pm.msg)
		pr.proto.OnMessage(&pr.ctx, pm.from, pm.msg)
	}

	// 4. Failure-detector reports.
	if e.cfg.Oracle != nil && e.now%e.cfg.SuspectEvery == 0 {
		for i := range e.procs {
			pr := &e.procs[i]
			if pr.crashed {
				continue
			}
			rep, ok := e.cfg.Oracle.Report(pr.id, e.now, &e.gt)
			if !ok {
				continue
			}
			e.stats.SuspectEvents++
			e.record(pr.id, model.EventSuspect).SetReport(&rep)
			pr.proto.OnSuspect(&pr.ctx, rep)
		}
	}

	// 5. Ticks for retransmission.
	if e.now%e.cfg.TickEvery == 0 {
		for i := range e.procs {
			pr := &e.procs[i]
			if pr.crashed {
				continue
			}
			pr.proto.OnTick(&pr.ctx)
		}
	}
}

// eventCapacityHint estimates the per-process event-buffer capacity for a
// configuration.  Sends and receives dominate, scaling with the horizon; the
// hint is deliberately conservative so short runs stay small while sweep-scale
// runs avoid the first several buffer growths.
func eventCapacityHint(cfg Config) int {
	hint := 32 + len(cfg.Initiations) + cfg.MaxSteps/2
	if hint > 4096 {
		hint = 4096
	}
	return hint
}

// Run executes the simulation described by cfg on a fresh engine and returns
// the recorded run and statistics.
func Run(cfg Config) (*Result, error) {
	return NewEngine().Run(cfg)
}
