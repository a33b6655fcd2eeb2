package core

import (
	"repro/internal/model"
	"repro/internal/sim"
)

// ackUDC is the one algorithm behind the detector-based UDC protocols: a
// process in the UDC(alpha) state resends alpha to every process that has not
// acknowledged it and performs alpha once its performRule allows; receivers
// acknowledge alpha and enter the UDC(alpha) state themselves.  The rule, held
// by value, is the protocol's detector bookkeeping and perform test, so an
// instance is no larger than the protocol's own state.
type ackUDC[R any, P performRule[R]] struct {
	id     model.ProcID
	n      int
	active actionSet
	rule   R
}

// performRule is what distinguishes one acknowledgement-driven protocol from
// another, implemented by *R.
type performRule[R any] interface {
	*R
	// observe folds a detector report into the rule and reports whether the
	// active actions are to be tested again.
	observe(rep model.SuspectReport, n int) bool
	// ready reports whether the process may perform row's action.
	ready(row activeAction, n int) bool
	// muted returns the processes resend skips besides those that have
	// acknowledged; performed says whether this process performed the action.
	muted(performed bool, n int) model.ProcSet
}

// NewStrongFDUDC is the protocol of Proposition 3.1: it attains UDC in every
// context with (impermanent-)strong failure detectors and fair-lossy
// channels, even with no bound on the number of failures.  A process performs
// alpha once every other process has either acknowledged or been (ever)
// suspected by its failure detector.
func NewStrongFDUDC(id model.ProcID, n int) sim.Protocol {
	return &ackUDC[suspectRule, *suspectRule]{id: id, n: n}
}

// NewQuiescentUDC is the extension sketched in footnotes 10 and 11 of the
// paper: the basic UDC protocols never stop sending (termination requires a
// heartbeat-style mechanism the paper leaves out), but footnote 11 observes
// that with a *strongly accurate* detector a process may stop sending
// alpha-messages once it has performed the action, because every process it
// stopped short of reaching is either genuinely crashed or has already been
// reached by someone else who also satisfies the performance condition.
//
// The protocol behaves like NewStrongFDUDC's but (a) skips retransmission to
// processes its detector has ever reported crashed and (b) stops
// retransmitting an action entirely once it has performed it.  With a perfect
// (or otherwise strongly accurate) detector it still attains UDC while sending
// a small fraction of the messages; with a detector that is only weakly
// accurate it is unsafe, which the tests demonstrate — exactly why the paper
// states the optimisation only for strongly accurate detectors.
func NewQuiescentUDC(id model.ProcID, n int) sim.Protocol {
	return &ackUDC[quiescentRule, *quiescentRule]{id: id, n: n}
}

// NewTUsefulUDC returns the protocol of Proposition 4.1, with failure bound
// t: it attains UDC in a context with at most t failures and a t-useful
// generalized failure detector.  A process performs alpha as soon as it has
// seen some generalized report (S, k) such that every process outside S has
// acknowledged and n - |S| > min(t, n-1) - k.
func NewTUsefulUDC(t int) sim.ProtocolFactory {
	return func(id model.ProcID, n int) sim.Protocol {
		return &ackUDC[tusefulRule, *tusefulRule]{id: id, n: n, rule: tusefulRule{t: t}}
	}
}

// NewQuorumUDC returns the protocol of Corollary 4.2, with failure bound t:
// when fewer than half the processes can fail (t < n/2), UDC is attainable
// with no failure detector at all.  The protocol is NewTUsefulUDC's
// specialised to the trivial t-useful detector that reports (S, 0) for every
// |S| = t: performing alpha is allowed exactly when at least n - t processes
// (including the performer) have acknowledged.
func NewQuorumUDC(t int) sim.ProtocolFactory {
	return func(id model.ProcID, n int) sim.Protocol {
		return &ackUDC[quorumRule, *quorumRule]{id: id, n: n, rule: quorumRule{t: t}}
	}
}

// Init implements sim.Protocol.
func (p *ackUDC[R, P]) Init(sim.Context) {}

// OnInitiate implements sim.Protocol.
func (p *ackUDC[R, P]) OnInitiate(ctx sim.Context, a model.ActionID) { p.enter(ctx, a) }

// OnMessage implements sim.Protocol.
func (p *ackUDC[R, P]) OnMessage(ctx sim.Context, from model.ProcID, msg model.Message) {
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

// OnSuspect implements sim.Protocol.
func (p *ackUDC[R, P]) OnSuspect(ctx sim.Context, rep model.SuspectReport) {
	if !P(&p.rule).observe(rep, p.n) {
		return
	}
	for _, row := range p.active.list() {
		p.maybePerform(ctx, row)
	}
}

// OnTick implements sim.Protocol.
func (p *ackUDC[R, P]) OnTick(ctx sim.Context) {
	for _, row := range p.active.list() {
		performed := ctx.HasDone(row.id)
		p.resend(ctx, row, performed)
		if !performed && P(&p.rule).ready(row, p.n) {
			ctx.Do(row.id)
		}
	}
}

// enter moves the process into the UDC(a) state.  The row's acked set holds
// the process itself from here on, so resend and the rules need no self
// check.  Only entered actions are performed, so a new row is unperformed.
func (p *ackUDC[R, P]) enter(ctx sim.Context, a model.ActionID) {
	row := activeAction{id: a, acked: model.Singleton(p.id)}
	if !p.active.add(row, ctx.Initiations()) {
		return
	}
	p.resend(ctx, row, false)
	p.maybePerform(ctx, row)
}

// resend sends an alpha-message to every process that has neither
// acknowledged row's action nor been muted by the rule.
func (p *ackUDC[R, P]) resend(ctx sim.Context, row activeAction, performed bool) {
	skip := row.acked.Union(P(&p.rule).muted(performed, p.n))
	for q := model.ProcID(0); int(q) < p.n; q++ {
		if !skip.Has(q) {
			ctx.Send(q, model.Message{Kind: MsgAlpha, Action: row.id, KnownInits: true})
		}
	}
}

// maybePerform performs row's action, once, when the rule allows it.
func (p *ackUDC[R, P]) maybePerform(ctx sim.Context, row activeAction) {
	if !ctx.HasDone(row.id) && P(&p.rule).ready(row, p.n) {
		ctx.Do(row.id)
	}
}

// suspectRule is Proposition 3.1's: perform once every process that has not
// acknowledged has ever been suspected.  Suspicions accumulate: the protocol
// performs alpha if the detector "says or has said" a process is faulty, so
// impermanent detectors work equally well (Corollary 3.2 via Prop. 2.2).
// Per the proof of Proposition 3.1, resending continues after performing.
type suspectRule struct{ everSuspected model.ProcSet }

func (r *suspectRule) observe(rep model.SuspectReport, n int) bool {
	suspects, isStandard := rep.StandardSuspects(n)
	if !isStandard {
		return false
	}
	r.everSuspected = r.everSuspected.Union(suspects)
	return true
}

func (r *suspectRule) ready(row activeAction, n int) bool {
	return row.acked.Union(r.everSuspected).Contains(model.FullSet(n))
}

func (*suspectRule) muted(bool, int) model.ProcSet { return 0 }

// quiescentRule is footnote 11's: Proposition 3.1's bookkeeping and test, but
// resend skips every process ever suspected and stops once the action is
// performed.
type quiescentRule struct{ suspectRule }

func (r *quiescentRule) muted(performed bool, n int) model.ProcSet {
	if performed {
		return model.FullSet(n)
	}
	return r.everSuspected
}

// tusefulRule is Proposition 4.1's.  groups records, per reported group S,
// the best (largest) k seen so far, in deterministic first-seen order.
type tusefulRule struct {
	t      int
	groups []reportedGroup
}

// reportedGroup is a generalized report (S, k) as tusefulRule keeps it: the
// group S with the largest k reported for it.
type reportedGroup struct {
	set model.ProcSet
	k   int
}

func (r *tusefulRule) observe(rep model.SuspectReport, n int) bool {
	if !rep.Generalized {
		// A standard (or g-standard) report with suspected set S is the
		// generalized report (S, |S|).
		suspects, _ := rep.StandardSuspects(n)
		rep = model.SuspectReport{Generalized: true, Group: suspects, MinFaulty: suspects.Count()}
	}
	if rep.MinFaulty > rep.Group.Count() {
		return false
	}
	i := 0
	for i < len(r.groups) && r.groups[i].set != rep.Group {
		i++
	}
	if i == len(r.groups) {
		r.groups = append(r.groups, reportedGroup{set: rep.Group, k: rep.MinFaulty})
	} else if rep.MinFaulty > r.groups[i].k {
		r.groups[i].k = rep.MinFaulty
	}
	return true
}

func (r *tusefulRule) ready(row activeAction, n int) bool {
	bound := min(r.t, n-1)
	for _, g := range r.groups {
		// Everyone outside the group must have acknowledged.
		if n-g.set.Count() > bound-g.k && row.acked.Contains(model.FullSet(n).Diff(g.set)) {
			return true
		}
	}
	return false
}

func (*tusefulRule) muted(bool, int) model.ProcSet { return 0 }

// quorumRule is Corollary 4.2's: no detector, perform once n - t processes
// have acknowledged.
type quorumRule struct{ t int }

func (*quorumRule) observe(model.SuspectReport, int) bool { return false }

func (r *quorumRule) ready(row activeAction, n int) bool {
	return row.acked.Count() >= n-r.t
}

func (*quorumRule) muted(bool, int) model.ProcSet { return 0 }
