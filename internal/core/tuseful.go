package core

import (
	"repro/internal/model"
	"repro/internal/sim"
)

// TUsefulUDC is the protocol of Proposition 4.1: it attains UDC in a context
// with at most t failures and a t-useful generalized failure detector.
//
// A process in the UDC(alpha) state repeatedly sends alpha-messages to every
// process that has not yet acknowledged, and performs alpha as soon as it has
// seen some generalized report (S, k) such that every process outside S has
// acknowledged and n - |S| > min(t, n-1) - k.
type TUsefulUDC struct {
	id     model.ProcID
	n      int
	t      int
	active actionSet
	// groups records, per reported group S, the best (largest) k seen so far,
	// in deterministic first-seen order.
	groups []reportedGroup
}

// reportedGroup is a generalized report (S, k) as TUsefulUDC keeps it: the
// group S with the largest k reported for it.
type reportedGroup struct {
	set model.ProcSet
	k   int
}

// NewTUsefulUDC returns a sim.ProtocolFactory for TUsefulUDC with failure
// bound t.
func NewTUsefulUDC(t int) sim.ProtocolFactory {
	return func(id model.ProcID, n int) sim.Protocol {
		return &TUsefulUDC{id: id, n: n, t: t}
	}
}

// Name implements sim.Protocol.
func (p *TUsefulUDC) Name() string { return "udc-t-useful" }

// Init implements sim.Protocol.
func (p *TUsefulUDC) Init(sim.Context) {}

// OnInitiate implements sim.Protocol.
func (p *TUsefulUDC) OnInitiate(ctx sim.Context, a model.ActionID) { p.enter(ctx, a) }

// OnMessage implements sim.Protocol.
func (p *TUsefulUDC) OnMessage(ctx sim.Context, from model.ProcID, msg model.Message) {
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
func (p *TUsefulUDC) OnSuspect(ctx sim.Context, rep model.SuspectReport) {
	if !rep.Generalized {
		// A standard (or g-standard) report with suspected set S is the
		// generalized report (S, |S|).
		suspects, _ := rep.StandardSuspects(p.n)
		rep = model.SuspectReport{Generalized: true, Group: suspects, MinFaulty: suspects.Count()}
	}
	if rep.MinFaulty > rep.Group.Count() {
		return
	}
	i := 0
	for i < len(p.groups) && p.groups[i].set != rep.Group {
		i++
	}
	if i == len(p.groups) {
		p.groups = append(p.groups, reportedGroup{set: rep.Group, k: rep.MinFaulty})
	} else if rep.MinFaulty > p.groups[i].k {
		p.groups[i].k = rep.MinFaulty
	}
	for _, row := range p.active.list() {
		p.maybePerform(ctx, row)
	}
}

// OnTick implements sim.Protocol.
func (p *TUsefulUDC) OnTick(ctx sim.Context) {
	for _, row := range p.active.list() {
		p.resend(ctx, row)
		p.maybePerform(ctx, row)
	}
}

// enter moves the process into the UDC(a) state.
func (p *TUsefulUDC) enter(ctx sim.Context, a model.ActionID) {
	row := activeAction{id: a, acked: model.Singleton(p.id)}
	if !p.active.add(row) {
		return
	}
	p.resend(ctx, row)
	p.maybePerform(ctx, row)
}

// resend sends an alpha-message to every process that has not acknowledged.
func (p *TUsefulUDC) resend(ctx sim.Context, row activeAction) {
	for q := model.ProcID(0); int(q) < p.n; q++ {
		if q == p.id || row.acked.Has(q) {
			continue
		}
		ctx.Send(q, model.Message{Kind: MsgAlpha, Action: row.id, KnownInits: true})
	}
}

// maybePerform performs row's action if the t-useful performance condition
// of Proposition 4.1 holds for some reported group.
func (p *TUsefulUDC) maybePerform(ctx sim.Context, row activeAction) {
	if ctx.HasDone(row.id) {
		return
	}
	bound := p.t
	if p.n-1 < bound {
		bound = p.n - 1
	}
	for _, g := range p.groups {
		if p.n-g.set.Count() <= bound-g.k {
			continue
		}
		// Everyone outside the group (other than this process) must have
		// acknowledged.
		need := model.FullSet(p.n).Diff(g.set).Remove(p.id)
		if row.acked.Contains(need) {
			ctx.Do(row.id)
			return
		}
	}
}

// QuorumUDC realises Corollary 4.2: when fewer than half the processes can
// fail (t < n/2), UDC is attainable with no failure detector at all.  The
// protocol is TUsefulUDC specialised to the trivial t-useful detector that
// reports (S, 0) for every |S| = t: performing alpha is allowed exactly when
// at least n - t processes (including the performer) have acknowledged.
type QuorumUDC struct {
	id     model.ProcID
	n      int
	t      int
	active actionSet
}

// NewQuorumUDC returns a sim.ProtocolFactory for QuorumUDC with failure bound
// t.
func NewQuorumUDC(t int) sim.ProtocolFactory {
	return func(id model.ProcID, n int) sim.Protocol {
		return &QuorumUDC{id: id, n: n, t: t}
	}
}

// Name implements sim.Protocol.
func (p *QuorumUDC) Name() string { return "udc-quorum" }

// Init implements sim.Protocol.
func (p *QuorumUDC) Init(sim.Context) {}

// OnInitiate implements sim.Protocol.
func (p *QuorumUDC) OnInitiate(ctx sim.Context, a model.ActionID) { p.enter(ctx, a) }

// OnMessage implements sim.Protocol.
func (p *QuorumUDC) OnMessage(ctx sim.Context, from model.ProcID, msg model.Message) {
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
func (p *QuorumUDC) OnSuspect(sim.Context, model.SuspectReport) {}

// OnTick implements sim.Protocol.
func (p *QuorumUDC) OnTick(ctx sim.Context) {
	for _, row := range p.active.list() {
		for q := model.ProcID(0); int(q) < p.n; q++ {
			if q == p.id || row.acked.Has(q) {
				continue
			}
			ctx.Send(q, model.Message{Kind: MsgAlpha, Action: row.id, KnownInits: true})
		}
		p.maybePerform(ctx, row)
	}
}

// enter moves the process into the UDC(a) state.
func (p *QuorumUDC) enter(ctx sim.Context, a model.ActionID) {
	row := activeAction{id: a, acked: model.Singleton(p.id)}
	if !p.active.add(row) {
		return
	}
	ctx.Broadcast(model.Message{Kind: MsgAlpha, Action: a, KnownInits: true})
	p.maybePerform(ctx, row)
}

// maybePerform performs row's action once n - t processes have acknowledged it.
func (p *QuorumUDC) maybePerform(ctx sim.Context, row activeAction) {
	if ctx.HasDone(row.id) {
		return
	}
	if row.acked.Count() >= p.n-p.t {
		ctx.Do(row.id)
	}
}

var (
	_ sim.Protocol = (*TUsefulUDC)(nil)
	_ sim.Protocol = (*QuorumUDC)(nil)
)
