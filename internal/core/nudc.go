package core

import (
	"repro/internal/model"
	"repro/internal/sim"
)

// NUDC is the protocol of Proposition 2.3: it attains non-uniform distributed
// coordination with no failure detector in every context with fair (possibly
// unreliable) communication, even with no bound on the number of failures.
//
// A process that initiates alpha (or hears about it) enters the nUDC(alpha)
// state, performs alpha immediately, and keeps re-broadcasting an
// alpha-message to everyone forever; receivers do the same.
type NUDC struct {
	id     model.ProcID
	n      int
	active actionSet
}

// NewNUDC is the sim.ProtocolFactory for NUDC.
func NewNUDC(id model.ProcID, n int) sim.Protocol {
	return &NUDC{id: id, n: n}
}

// Init implements sim.Protocol.
func (p *NUDC) Init(sim.Context) {}

// OnInitiate implements sim.Protocol.
func (p *NUDC) OnInitiate(ctx sim.Context, a model.ActionID) { p.enter(ctx, a) }

// OnMessage implements sim.Protocol.
func (p *NUDC) OnMessage(ctx sim.Context, _ model.ProcID, msg model.Message) {
	if msg.Kind == MsgAlpha {
		p.enter(ctx, msg.Action)
	}
}

// OnSuspect implements sim.Protocol.
func (p *NUDC) OnSuspect(sim.Context, model.SuspectReport) {}

// OnTick implements sim.Protocol.
func (p *NUDC) OnTick(ctx sim.Context) {
	for _, row := range p.active.list() {
		ctx.Broadcast(model.Message{Kind: MsgAlpha, Action: row.id, KnownInits: true})
	}
}

// enter moves the process into the nUDC(a) state: perform a and start
// re-broadcasting it.
func (p *NUDC) enter(ctx sim.Context, a model.ActionID) {
	if !p.active.add(activeAction{id: a}, ctx.Initiations()) {
		return
	}
	ctx.Do(a)
	ctx.Broadcast(model.Message{Kind: MsgAlpha, Action: a, KnownInits: true})
}

// ReliableUDC is the protocol of Proposition 2.4: it attains UDC with no
// failure detector in every context with reliable communication, even with no
// bound on the number of failures.  Before performing alpha a process first
// tells every other process to perform it; reliability guarantees the word
// gets out even if the process then crashes.
type ReliableUDC struct {
	id     model.ProcID
	n      int
	active actionSet
}

// NewReliableUDC is the sim.ProtocolFactory for ReliableUDC.
func NewReliableUDC(id model.ProcID, n int) sim.Protocol {
	return &ReliableUDC{id: id, n: n}
}

// Init implements sim.Protocol.
func (p *ReliableUDC) Init(sim.Context) {}

// OnInitiate implements sim.Protocol.
func (p *ReliableUDC) OnInitiate(ctx sim.Context, a model.ActionID) { p.enter(ctx, a) }

// OnMessage implements sim.Protocol.
func (p *ReliableUDC) OnMessage(ctx sim.Context, _ model.ProcID, msg model.Message) {
	if msg.Kind == MsgAlpha {
		p.enter(ctx, msg.Action)
	}
}

// OnSuspect implements sim.Protocol.
func (p *ReliableUDC) OnSuspect(sim.Context, model.SuspectReport) {}

// OnTick implements sim.Protocol.
func (p *ReliableUDC) OnTick(sim.Context) {}

// enter first relays alpha to everyone and only then performs it, exactly the
// order the proof of Proposition 2.4 relies on.
func (p *ReliableUDC) enter(ctx sim.Context, a model.ActionID) {
	if !p.active.add(activeAction{id: a}, ctx.Initiations()) {
		return
	}
	ctx.Broadcast(model.Message{Kind: MsgAlpha, Action: a, KnownInits: true})
	ctx.Do(a)
}

var (
	_ sim.Protocol        = (*NUDC)(nil)
	_ sim.Protocol        = (*ReliableUDC)(nil)
	_ sim.ProtocolFactory = NewNUDC
	_ sim.ProtocolFactory = NewReliableUDC
)
