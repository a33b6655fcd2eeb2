package sim_test

import (
	"testing"

	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sim"
)

// echoProtocol is a minimal protocol used to exercise the simulator: the
// initiator of an action broadcasts one "ping" per tick; receivers respond
// with a single "pong" per distinct ping round and perform the action on first
// contact.
type echoProtocol struct {
	id     model.ProcID
	n      int
	active []model.ActionID
	seen   map[model.ActionID]bool
}

func newEchoProtocol(id model.ProcID, n int) sim.Protocol {
	return &echoProtocol{id: id, n: n, seen: make(map[model.ActionID]bool)}
}

func (p *echoProtocol) Init(sim.Context) {}
func (p *echoProtocol) OnTick(ctx sim.Context) {
	for _, a := range p.active {
		ctx.Broadcast(model.Message{Kind: msgPing, Action: a})
	}
}

func (p *echoProtocol) OnInitiate(ctx sim.Context, a model.ActionID) {
	p.active = append(p.active, a)
	ctx.Do(a)
	ctx.Broadcast(model.Message{Kind: msgPing, Action: a})
}

// The echo protocol's message kinds.
var msgPing, msgPong = model.Kind("ping"), model.Kind("pong")

func (p *echoProtocol) OnMessage(ctx sim.Context, from model.ProcID, msg model.Message) {
	switch msg.Kind {
	case msgPing:
		if !p.seen[msg.Action] {
			p.seen[msg.Action] = true
			ctx.Do(msg.Action)
		}
		ctx.Send(from, model.Message{Kind: msgPong, Action: msg.Action})
	}
}

func (p *echoProtocol) OnSuspect(sim.Context, model.SuspectReport) {}

func baseConfig() sim.Config {
	return sim.Config{
		N:        4,
		Seed:     1,
		MaxSteps: 100,
		Network:  sim.FairLossyNetwork(0.3),
		Protocol: newEchoProtocol,
		Initiations: []sim.Initiation{
			{Time: 2, Proc: 0, Action: model.Action(0, 1)},
		},
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*sim.Config)
	}{
		{"zero processes", func(c *sim.Config) { c.N = 0 }},
		{"too many processes", func(c *sim.Config) { c.N = model.MaxProcs + 1 }},
		{"no steps", func(c *sim.Config) { c.MaxSteps = 0 }},
		{"nil protocol", func(c *sim.Config) { c.Protocol = nil }},
		{"bad drop probability", func(c *sim.Config) { c.Network.DropProbability = 1.5 }},
		{"crash out of range", func(c *sim.Config) { c.Crashes = []sim.CrashEvent{{Time: 1, Proc: 9}} }},
		{"initiation out of range", func(c *sim.Config) { c.Initiations = []sim.Initiation{{Time: 1, Proc: 9, Action: model.Action(9, 1)}} }},
		{"foreign action", func(c *sim.Config) { c.Initiations = []sim.Initiation{{Time: 1, Proc: 0, Action: model.Action(1, 1)}} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig()
			tc.mutate(&cfg)
			if _, err := sim.Run(cfg); err == nil {
				t.Fatalf("expected configuration error")
			}
		})
	}
	if err := baseConfig().Validate(); err != nil {
		t.Fatalf("base config should be valid: %v", err)
	}
}

func TestSimulationRecordsWorkload(t *testing.T) {
	cfg := baseConfig()
	cfg.Crashes = []sim.CrashEvent{{Time: 30, Proc: 3}}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	r := res.Run
	if r.Horizon != cfg.MaxSteps {
		t.Fatalf("horizon = %d, want %d", r.Horizon, cfg.MaxSteps)
	}
	if it, ok := r.InitTime(model.Action(0, 1)); !ok || it != 2 {
		t.Fatalf("init time = %d,%v", it, ok)
	}
	if ct, ok := r.CrashTime(3); !ok || ct != 30 {
		t.Fatalf("crash time = %d,%v", ct, ok)
	}
	if res.Stats.CrashEvents != 1 || res.Stats.InitEvents != 1 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	if res.Stats.MessagesSent == 0 || res.Stats.MessagesDelivered == 0 {
		t.Fatalf("expected traffic, got %+v", res.Stats)
	}
	if vs := model.Validate(r, model.DefaultValidateOptions()); len(vs) != 0 {
		t.Fatalf("run conditions violated: %v", vs)
	}
	// Every live process should have performed the action (the echo protocol
	// performs on first contact and the initiator keeps pinging).
	for p := model.ProcID(0); p < 3; p++ {
		if _, ok := r.DoTime(p, model.Action(0, 1)); !ok {
			t.Errorf("process %d never performed the action", p)
		}
	}
}

func TestCrashedProcessesTakeNoSteps(t *testing.T) {
	cfg := baseConfig()
	cfg.Crashes = []sim.CrashEvent{{Time: 10, Proc: 1}}
	cfg.MaxSteps = 60
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	evs := res.Run.Events[1]
	if len(evs) == 0 || evs[len(evs)-1].Event.Kind != model.EventCrash {
		t.Fatalf("crash must be the last event of process 1")
	}
	for _, te := range evs {
		if te.Time > 10 {
			t.Fatalf("process 1 recorded an event after its crash: %+v", te)
		}
	}
	if res.Stats.MessagesToCrashed == 0 {
		t.Fatalf("expected some messages to be dropped at the crashed receiver")
	}
	// Initiations scheduled at a crashed process are skipped.
	cfg2 := baseConfig()
	cfg2.Crashes = []sim.CrashEvent{{Time: 1, Proc: 0}}
	res2, err := sim.Run(cfg2)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, ok := res2.Run.InitTime(model.Action(0, 1)); ok {
		t.Fatalf("initiation at a crashed process should not be recorded")
	}
}

func TestReliableNetworkDeliversEverything(t *testing.T) {
	cfg := baseConfig()
	cfg.Network = sim.ReliableNetwork()
	cfg.MaxSteps = 80
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Stats.MessagesDropped != 0 {
		t.Fatalf("reliable network dropped %d messages", res.Stats.MessagesDropped)
	}
}

func TestFairLossyNetworkDropsButStaysFair(t *testing.T) {
	cfg := baseConfig()
	cfg.Network = sim.FairLossyNetwork(0.6)
	cfg.MaxSteps = 200
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Stats.MessagesDropped == 0 {
		t.Fatalf("expected drops at 60%% loss")
	}
	// Fairness: the repeatedly-sent ping must reach every live process, which
	// the echo protocol converts into a do event.
	for p := model.ProcID(1); p < 4; p++ {
		if _, ok := res.Run.DoTime(p, model.Action(0, 1)); !ok {
			t.Errorf("fairness violated: process %d never received the repeated ping", p)
		}
	}
	// R5 heuristic agrees.
	if vs := model.Validate(res.Run, model.DefaultValidateOptions()); len(vs) != 0 {
		t.Fatalf("fairness condition violated: %v", vs)
	}
}

func TestOracleReportsAreRecordedAndPeriodic(t *testing.T) {
	cfg := baseConfig()
	cfg.Oracle = fd.PerfectOracle{}
	cfg.SuspectEvery = 10
	cfg.Crashes = []sim.CrashEvent{{Time: 20, Proc: 2}}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	reports := 0
	for _, te := range res.Run.Events[0] {
		if te.Event.Kind == model.EventSuspect {
			reports++
			if te.Time%10 != 0 {
				t.Fatalf("report at time %d, want multiples of 10", te.Time)
			}
			if te.Time >= 20 && !te.Event.Report().Suspects.Has(2) {
				t.Fatalf("perfect oracle missing crashed process at %d", te.Time)
			}
			if te.Time < 20 && !te.Event.Report().Suspects.IsEmpty() {
				t.Fatalf("perfect oracle suspected someone before any crash")
			}
		}
	}
	if want := cfg.MaxSteps / 10; reports != want {
		t.Fatalf("process 0 received %d reports, want %d", reports, want)
	}
	if res.Stats.SuspectEvents == 0 {
		t.Fatalf("suspect events not counted")
	}
}

func TestDoIsIdempotentAndSelfSendsIgnored(t *testing.T) {
	var captured sim.Context
	proto := &funcProtocol{
		onInit: func(ctx sim.Context) { captured = ctx },
		onTick: func(ctx sim.Context) {
			ctx.Do(model.Action(ctx.ID(), 1))
			ctx.Do(model.Action(ctx.ID(), 1))
			ctx.Send(ctx.ID(), model.Message{Kind: model.Kind("self")})
		},
	}
	cfg := sim.Config{
		N:        2,
		Seed:     3,
		MaxSteps: 10,
		Network:  sim.ReliableNetwork(),
		Protocol: func(model.ProcID, int) sim.Protocol { return proto },
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if captured == nil {
		t.Fatalf("Init was never called")
	}
	for p := model.ProcID(0); p < 2; p++ {
		does := 0
		for _, te := range res.Run.Events[p] {
			switch te.Event.Kind {
			case model.EventDo:
				does++
			case model.EventSend:
				if te.Event.Peer == p {
					t.Fatalf("self-send was recorded")
				}
			}
		}
		if does != 1 {
			t.Fatalf("process %d recorded %d do events, want 1", p, does)
		}
	}
	if captured.N() != 2 {
		t.Fatalf("context N = %d", captured.N())
	}
}

// funcProtocol adapts closures to the Protocol interface for small tests.
type funcProtocol struct {
	onInit func(sim.Context)
	onTick func(sim.Context)
}

func (f *funcProtocol) Init(ctx sim.Context) {
	if f.onInit != nil {
		f.onInit(ctx)
	}
}
func (f *funcProtocol) OnInitiate(sim.Context, model.ActionID)             {}
func (f *funcProtocol) OnMessage(sim.Context, model.ProcID, model.Message) {}
func (f *funcProtocol) OnSuspect(sim.Context, model.SuspectReport)         {}
func (f *funcProtocol) OnTick(ctx sim.Context) {
	if f.onTick != nil {
		f.onTick(ctx)
	}
}

func TestTickPeriod(t *testing.T) {
	ticks := 0
	proto := &funcProtocol{onTick: func(sim.Context) { ticks++ }}
	cfg := sim.Config{
		N:         1,
		Seed:      1,
		MaxSteps:  30,
		TickEvery: 5,
		Network:   sim.ReliableNetwork(),
		Protocol:  func(model.ProcID, int) sim.Protocol { return proto },
	}
	if _, err := sim.Run(cfg); err != nil {
		t.Fatalf("run: %v", err)
	}
	if ticks != 6 {
		t.Fatalf("ticks = %d, want 6", ticks)
	}
}

func TestNilProtocolInstanceRejected(t *testing.T) {
	cfg := baseConfig()
	cfg.Protocol = func(model.ProcID, int) sim.Protocol { return nil }
	if _, err := sim.Run(cfg); err == nil {
		t.Fatalf("expected an error for a nil protocol instance")
	}
}
