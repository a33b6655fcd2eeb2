package core

import (
	"repro/internal/model"
	"repro/internal/sim"
)

// QuiescentUDC is the extension sketched in footnotes 10 and 11 of the paper:
// the basic UDC protocols never stop sending (termination requires a
// heartbeat-style mechanism the paper leaves out), but footnote 11 observes
// that with a *strongly accurate* detector a process may stop sending
// alpha-messages once it has performed the action, because every process it
// stopped short of reaching is either genuinely crashed or has already been
// reached by someone else who also satisfies the performance condition.
//
// QuiescentUDC implements that optimisation: it behaves like StrongFDUDC but
// (a) skips retransmission to processes its detector has ever reported crashed
// and (b) stops retransmitting an action entirely once it has performed it.
// With a perfect (or otherwise strongly accurate) detector it still attains
// UDC while sending a small fraction of the messages; with a detector that is
// only weakly accurate it is unsafe, which the tests demonstrate — exactly why
// the paper states the optimisation only for strongly accurate detectors.
type QuiescentUDC struct {
	id            model.ProcID
	n             int
	active        actionSet
	everSuspected model.ProcSet
}

// NewQuiescentUDC is the sim.ProtocolFactory for QuiescentUDC.
func NewQuiescentUDC(id model.ProcID, n int) sim.Protocol {
	return &QuiescentUDC{id: id, n: n}
}

// Name implements sim.Protocol.
func (p *QuiescentUDC) Name() string { return "udc-quiescent" }

// Init implements sim.Protocol.
func (p *QuiescentUDC) Init(sim.Context) {}

// OnInitiate implements sim.Protocol.
func (p *QuiescentUDC) OnInitiate(ctx sim.Context, a model.ActionID) { p.enter(ctx, a) }

// OnMessage implements sim.Protocol.
func (p *QuiescentUDC) OnMessage(ctx sim.Context, from model.ProcID, msg model.Message) {
	switch msg.Kind {
	case MsgAlpha:
		ctx.Send(from, model.Message{Kind: MsgAck, Action: msg.Action})
		p.enter(ctx, msg.Action)
	case MsgAck:
		if row, ok := p.active.ack(msg.Action, from); ok {
			p.maybePerform(ctx, row)
		}
	}
}

// OnSuspect implements sim.Protocol.
func (p *QuiescentUDC) OnSuspect(ctx sim.Context, rep model.SuspectReport) {
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
func (p *QuiescentUDC) OnTick(ctx sim.Context) {
	for _, row := range p.active.list() {
		if ctx.HasDone(row.id) {
			// Footnote 11: with a strongly accurate detector, stop sending
			// after performing.
			continue
		}
		p.resend(ctx, row)
		p.maybePerform(ctx, row)
	}
}

// enter moves the process into the UDC(a) state.
func (p *QuiescentUDC) enter(ctx sim.Context, a model.ActionID) {
	row := activeAction{id: a, acked: model.Singleton(p.id)}
	if !p.active.add(row) {
		return
	}
	p.resend(ctx, row)
	p.maybePerform(ctx, row)
}

// resend sends an alpha-message to every process that has neither acknowledged
// nor been reported crashed.
func (p *QuiescentUDC) resend(ctx sim.Context, row activeAction) {
	for q := model.ProcID(0); int(q) < p.n; q++ {
		if q == p.id || row.acked.Has(q) || p.everSuspected.Has(q) {
			continue
		}
		ctx.Send(q, model.Message{Kind: MsgAlpha, Action: row.id, KnownInits: true})
	}
}

// maybePerform performs row's action once every other process has
// acknowledged it or been suspected.
func (p *QuiescentUDC) maybePerform(ctx sim.Context, row activeAction) {
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
	_ sim.Protocol        = (*QuiescentUDC)(nil)
	_ sim.ProtocolFactory = NewQuiescentUDC
)
