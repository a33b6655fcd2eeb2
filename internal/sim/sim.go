package sim

import (
	"repro/internal/fd"
	"repro/internal/model"
)

// groundTruth exposes the configured failure pattern to the oracle.  Crash
// times are stored in a process-indexed slice (-1 meaning "never crashes")
// and the faulty set is computed once when the pattern is fixed at
// configuration time, so oracle queries in the hot loop never re-derive it.
type groundTruth struct {
	n         int
	horizon   int
	crashTime []int // indexed by process; -1 = never crashes
	faulty    model.ProcSet
}

var _ fd.GroundTruth = (*groundTruth)(nil)

// reset installs the failure pattern of cfg, reusing the crash-time buffer.
func (g *groundTruth) reset(cfg Config) {
	g.n = cfg.N
	g.horizon = cfg.MaxSteps
	if cap(g.crashTime) < cfg.N {
		g.crashTime = make([]int, cfg.N)
	}
	g.crashTime = g.crashTime[:cfg.N]
	for i := range g.crashTime {
		g.crashTime[i] = -1
	}
	for _, cr := range cfg.Crashes {
		if prev := g.crashTime[cr.Proc]; prev < 0 || cr.Time < prev {
			g.crashTime[cr.Proc] = cr.Time
		}
	}
	var f model.ProcSet
	for q, t := range g.crashTime {
		if t >= 0 && t <= g.horizon {
			f = f.Add(model.ProcID(q))
		}
	}
	g.faulty = f
}

// N implements fd.GroundTruth.
func (g *groundTruth) N() int { return g.n }

// CrashedBy implements fd.GroundTruth.
func (g *groundTruth) CrashedBy(q model.ProcID, now int) bool {
	if int(q) < 0 || int(q) >= len(g.crashTime) {
		return false
	}
	t := g.crashTime[q]
	return t >= 0 && t <= now && t <= g.horizon
}

// CrashTime implements fd.GroundTruth.
func (g *groundTruth) CrashTime(q model.ProcID) (int, bool) {
	if int(q) < 0 || int(q) >= len(g.crashTime) {
		return 0, false
	}
	t := g.crashTime[q]
	if t < 0 || t > g.horizon {
		return 0, false
	}
	return t, true
}

// Faulty implements fd.GroundTruth.
func (g *groundTruth) Faulty() model.ProcSet { return g.faulty }

// procRuntime is the per-process harness around a Protocol instance.  The
// performed-action set is an epoch-stamped slice indexed like the engine's
// action list: done[i] == engine.epoch means the action with index i has been
// performed this run, so resetting between runs is a single epoch increment.
type procRuntime struct {
	id      model.ProcID
	proto   Protocol
	crashed bool
	done    []uint32
	// ctx is the process's Context, re-pointed at the engine each run.  The
	// hot loop hands protocols &ctx, so the interface conversion carries a
	// pointer and the per-callback boxing allocation of a by-value context
	// disappears.
	ctx procContext
}

// procContext implements Context for one process at the current time.
type procContext struct {
	e *Engine
	p *procRuntime
}

// ID implements Context.
func (c *procContext) ID() model.ProcID { return c.p.id }

// N implements Context.
func (c *procContext) N() int { return c.e.cfg.N }

// Now implements Context.
func (c *procContext) Now() int { return c.e.now }

// Send implements Context.
func (c *procContext) Send(to model.ProcID, msg model.Message) {
	if c.p.crashed || int(to) < 0 || int(to) >= c.e.cfg.N || to == c.p.id {
		return
	}
	ev := c.e.record(c.p.id, model.EventSend)
	ev.Peer = to
	ev.SetMsg(&msg)
	c.e.net.send(c.e.now, c.p.id, to, &msg)
}

// Broadcast implements Context.
func (c *procContext) Broadcast(msg model.Message) {
	for q := model.ProcID(0); int(q) < c.e.cfg.N; q++ {
		if q != c.p.id {
			c.Send(q, msg)
		}
	}
}

// Do implements Context.
func (c *procContext) Do(a model.ActionID) {
	if c.p.crashed {
		return
	}
	idx := c.e.actionIndex(a)
	if idx == len(c.e.actions) {
		c.e.actions = append(c.e.actions, a)
	} else if idx < len(c.p.done) && c.p.done[idx] == c.e.epoch {
		return
	}
	for idx >= len(c.p.done) {
		c.p.done = append(c.p.done, 0)
	}
	c.p.done[idx] = c.e.epoch
	c.e.stats.DoEvents++
	c.e.record(c.p.id, model.EventDo).SetAction(a)
}

// Initiations implements Context.
func (c *procContext) Initiations() int { return len(c.e.cfg.Initiations) }

// HasDone implements Context.
func (c *procContext) HasDone(a model.ActionID) bool {
	idx := c.e.actionIndex(a)
	return idx < len(c.p.done) && c.p.done[idx] == c.e.epoch
}
