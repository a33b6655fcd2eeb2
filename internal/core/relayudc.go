package core

import (
	"repro/internal/model"
	"repro/internal/sim"
)

// relayUDC is the one algorithm behind the detector-free protocols: a process
// that initiates alpha or hears of it broadcasts an alpha-message to everyone
// and performs alpha; receivers do the same.  The two protocols differ in one
// field, set by the factory: whether the process performs first and then
// relays forever (Prop 2.3) or relays once and only then performs (Prop 2.4).
type relayUDC struct {
	active     actionSet
	nonUniform bool
}

// NewNUDC is the protocol of Proposition 2.3: it attains non-uniform
// distributed coordination with no failure detector in every context with
// fair (possibly unreliable) communication, even with no bound on the number
// of failures.  A process performs alpha as soon as it enters the nUDC(alpha)
// state and keeps re-broadcasting alpha to everyone forever.
func NewNUDC(model.ProcID, int) sim.Protocol { return &relayUDC{nonUniform: true} }

// NewReliableUDC is the protocol of Proposition 2.4: it attains UDC with no
// failure detector in every context with reliable communication, even with no
// bound on the number of failures.  Before performing alpha a process first
// tells every other process to perform it; reliability guarantees the word
// gets out even if the process then crashes.
func NewReliableUDC(model.ProcID, int) sim.Protocol { return &relayUDC{} }

// Init implements sim.Protocol.
func (p *relayUDC) Init(sim.Context) {}

// OnInitiate implements sim.Protocol.
func (p *relayUDC) OnInitiate(ctx sim.Context, a model.ActionID) { p.enter(ctx, a) }

// OnMessage implements sim.Protocol.
func (p *relayUDC) OnMessage(ctx sim.Context, _ model.ProcID, msg model.Message) {
	if msg.Kind == MsgAlpha {
		p.enter(ctx, msg.Action)
	}
}

// OnSuspect implements sim.Protocol.
func (p *relayUDC) OnSuspect(sim.Context, model.SuspectReport) {}

// OnTick implements sim.Protocol: Prop 2.3's process rebroadcasts every
// action it has entered; Prop 2.4's relies on reliable channels and is idle.
func (p *relayUDC) OnTick(ctx sim.Context) {
	if !p.nonUniform {
		return
	}
	for _, row := range p.active.list() {
		ctx.Broadcast(model.Message{Kind: MsgAlpha, Action: row.id, KnownInits: true})
	}
}

// enter moves the process into the (n)UDC(a) state.  Prop 2.4's process
// relays a before performing it, exactly the order its proof relies on.
func (p *relayUDC) enter(ctx sim.Context, a model.ActionID) {
	if !p.active.add(activeAction{id: a}, ctx.Initiations()) {
		return
	}
	msg := model.Message{Kind: MsgAlpha, Action: a, KnownInits: true}
	if p.nonUniform {
		ctx.Do(a)
		ctx.Broadcast(msg)
		return
	}
	ctx.Broadcast(msg)
	ctx.Do(a)
}
