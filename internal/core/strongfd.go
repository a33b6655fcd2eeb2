package core

import (
	"repro/internal/model"
	"repro/internal/sim"
)

// StrongFDUDC is the protocol of Proposition 3.1: it attains UDC in every
// context with (impermanent-)strong failure detectors and fair-lossy
// channels, even with no bound on the number of failures.
//
// A process in the UDC(alpha) state repeatedly sends alpha-messages to every
// process from which it has not yet received an acknowledgment, and performs
// alpha once every other process has either acknowledged or been (ever)
// suspected by its failure detector.  Receivers of an alpha-message
// acknowledge it and enter the UDC(alpha) state themselves.
type StrongFDUDC struct {
	id            model.ProcID
	n             int
	active        actionSet
	everSuspected model.ProcSet
}

// NewStrongFDUDC is the sim.ProtocolFactory for StrongFDUDC.
func NewStrongFDUDC(id model.ProcID, n int) sim.Protocol {
	return &StrongFDUDC{id: id, n: n}
}

// Name implements sim.Protocol.
func (p *StrongFDUDC) Name() string { return "udc-strong-fd" }

// Init implements sim.Protocol.
func (p *StrongFDUDC) Init(sim.Context) {}

// OnInitiate implements sim.Protocol.
func (p *StrongFDUDC) OnInitiate(ctx sim.Context, a model.ActionID) { p.enter(ctx, a) }

// OnMessage implements sim.Protocol.
func (p *StrongFDUDC) OnMessage(ctx sim.Context, from model.ProcID, msg model.Message) {
	switch msg.Kind {
	case MsgAlpha:
		// Acknowledge every alpha-message, then enter the UDC state.
		ctx.Send(from, model.Message{Kind: MsgAck, Action: msg.Action})
		p.enter(ctx, msg.Action)
	case MsgAck:
		if row, ok := p.active.ack(msg.Action, from); ok {
			p.maybePerform(ctx, row)
		}
	}
}

// OnSuspect implements sim.Protocol.  Suspicions accumulate: the protocol
// performs alpha if the detector "says or has said" a process is faulty, so
// impermanent detectors work equally well (Corollary 3.2 via Prop. 2.2).
func (p *StrongFDUDC) OnSuspect(ctx sim.Context, rep model.SuspectReport) {
	suspects, isStandard := rep.StandardSuspects(p.n)
	if !isStandard {
		return
	}
	p.everSuspected = p.everSuspected.Union(suspects)
	for _, row := range p.active.list() {
		p.maybePerform(ctx, row)
	}
}

// OnTick implements sim.Protocol.
func (p *StrongFDUDC) OnTick(ctx sim.Context) {
	for _, row := range p.active.list() {
		p.resend(ctx, row)
		p.maybePerform(ctx, row)
	}
}

// enter moves the process into the UDC(a) state.
func (p *StrongFDUDC) enter(ctx sim.Context, a model.ActionID) {
	row := activeAction{id: a, acked: model.Singleton(p.id)}
	if !p.active.add(row) {
		return
	}
	p.resend(ctx, row)
	p.maybePerform(ctx, row)
}

// resend sends an alpha-message to every process that has not yet
// acknowledged.  Per the proof of Proposition 3.1, this continues even after
// the action has been performed.
func (p *StrongFDUDC) resend(ctx sim.Context, row activeAction) {
	for q := model.ProcID(0); int(q) < p.n; q++ {
		if q == p.id || row.acked.Has(q) {
			continue
		}
		ctx.Send(q, model.Message{Kind: MsgAlpha, Action: row.id, KnownInits: true})
	}
}

// maybePerform performs row's action once every other process has acknowledged
// it or has ever been suspected.
func (p *StrongFDUDC) maybePerform(ctx sim.Context, row activeAction) {
	if ctx.HasDone(row.id) {
		return
	}
	for q := model.ProcID(0); int(q) < p.n; q++ {
		if q == p.id {
			continue
		}
		if !row.acked.Has(q) && !p.everSuspected.Has(q) {
			return
		}
	}
	ctx.Do(row.id)
}

var (
	_ sim.Protocol        = (*StrongFDUDC)(nil)
	_ sim.ProtocolFactory = NewStrongFDUDC
)
