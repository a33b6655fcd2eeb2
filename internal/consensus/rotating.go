package consensus

import (
	"repro/internal/model"
	"repro/internal/sim"
)

// Message kinds used by the consensus protocols, interned once.
var (
	// MsgEstimate is a coordinator's round estimate (Rotating) or a
	// participant's estimate sent to the coordinator (Majority, phase 1).
	MsgEstimate = model.Kind("estimate")
	// MsgProposal is the coordinator's phase-2 proposal (Majority).
	MsgProposal = model.Kind("proposal")
	// MsgAck is a positive (Value=1) or negative (Value=0) phase-3 response
	// (Majority).
	MsgAck = model.Kind("consensus-ack")
	// MsgDecide announces a decision.
	MsgDecide = model.Kind("decide")
)

// DecisionSeq marks do events that record consensus decisions.
const DecisionSeq = -1

// DecisionAction encodes a decided value as the action recorded by the
// deciding process.
func DecisionAction(p model.ProcID, value int) model.ActionID {
	return model.ActionID{Initiator: p, Seq: value}
}

// Rotating is a rotating-coordinator uniform-consensus algorithm for a strong
// failure detector (strong completeness + weak accuracy), tolerating up to
// n-1 crashes.
//
// The algorithm proceeds through rounds 1..n; the coordinator of round r is
// process r-1.  The coordinator of a round broadcasts the estimate it held on
// entering the round; every other process waits until it either receives that
// estimate (and adopts it) or suspects the coordinator (and keeps its own).
// After round n a process decides its estimate and gossips the decision.
// Weak accuracy guarantees a round whose coordinator is a never-suspected
// correct process; everyone adopts that coordinator's estimate, so all
// decisions agree (uniformly, since even processes that later crash passed
// through that round before deciding).
type Rotating struct {
	id    model.ProcID
	n     int
	value int

	round int // current round, 1-based; n+1 means ready to decide
	// coordEstimate is the estimate this process broadcast as coordinator of
	// round id+1, the one round it coordinates; it has done so once round
	// is past id+1.
	coordEstimate int
	// received holds, per round r at index r-1, the coordinator's estimate
	// if it has arrived.
	received      []roundEstimate
	everSuspected model.ProcSet
	decided       bool
	decidedValue  int
}

// roundEstimate is one round's entry in Rotating.received.
type roundEstimate struct {
	value int
	heard bool
}

// NewRotating returns a sim.ProtocolFactory for Rotating where each process
// proposes the value given by proposals (defaulting to the process id).
func NewRotating(proposals map[model.ProcID]int) sim.ProtocolFactory {
	return func(id model.ProcID, n int) sim.Protocol {
		v, ok := proposals[id]
		if !ok {
			v = int(id)
		}
		return &Rotating{id: id, n: n, value: v, round: 1, received: make([]roundEstimate, n)}
	}
}

// Init implements sim.Protocol.
func (p *Rotating) Init(ctx sim.Context) { p.advance(ctx) }

// OnInitiate implements sim.Protocol.  Consensus takes its input from the
// proposal map, so workload initiations are ignored.
func (p *Rotating) OnInitiate(sim.Context, model.ActionID) {}

// OnMessage implements sim.Protocol.
func (p *Rotating) OnMessage(ctx sim.Context, _ model.ProcID, msg model.Message) {
	switch msg.Kind {
	case MsgEstimate:
		if !p.received[msg.Round-1].heard {
			p.received[msg.Round-1] = roundEstimate{value: msg.Value, heard: true}
		}
		p.advance(ctx)
	case MsgDecide:
		p.decide(ctx, msg.Value)
	}
}

// OnSuspect implements sim.Protocol.
func (p *Rotating) OnSuspect(ctx sim.Context, rep model.SuspectReport) {
	suspects, isStandard := rep.StandardSuspects(p.n)
	if !isStandard {
		return
	}
	p.everSuspected = p.everSuspected.Union(suspects)
	p.advance(ctx)
}

// OnTick implements sim.Protocol.
func (p *Rotating) OnTick(ctx sim.Context) {
	if p.decided {
		ctx.Broadcast(model.Message{Kind: MsgDecide, Value: p.decidedValue})
		return
	}
	// Re-broadcast the estimate this process issued as a coordinator so
	// slower processes eventually hear it despite message loss.
	if own := int(p.id) + 1; p.round > own {
		ctx.Broadcast(model.Message{Kind: MsgEstimate, Round: own, Value: p.coordEstimate})
	}
	p.advance(ctx)
}

// coordinator returns the coordinator of round r.
func (p *Rotating) coordinator(r int) model.ProcID { return model.ProcID(r - 1) }

// advance moves through as many rounds as currently possible and decides after
// round n.
func (p *Rotating) advance(ctx sim.Context) {
	if p.decided {
		return
	}
	for p.round <= p.n {
		c := p.coordinator(p.round)
		switch {
		case c == p.id:
			// Rounds only advance, so this is the round's first visit.
			p.coordEstimate = p.value
			ctx.Broadcast(model.Message{Kind: MsgEstimate, Round: p.round, Value: p.value})
			p.round++
		case p.received[p.round-1].heard:
			p.value = p.received[p.round-1].value
			p.round++
		case p.everSuspected.Has(c):
			p.round++
		default:
			return
		}
	}
	p.decide(ctx, p.value)
}

// decide records the decision and starts gossiping it.
func (p *Rotating) decide(ctx sim.Context, v int) {
	if p.decided {
		return
	}
	p.decided = true
	p.decidedValue = v
	ctx.Do(DecisionAction(p.id, v))
	ctx.Broadcast(model.Message{Kind: MsgDecide, Value: v})
}

var _ sim.Protocol = (*Rotating)(nil)
