package consensus

import (
	"repro/internal/model"
	"repro/internal/sim"
)

// Majority is the Chandra-Toueg consensus algorithm for an eventually-strong
// (Diamond-S) failure detector, adapted to fair-lossy channels by
// retransmitting every phase message until it is superseded.  It is safe for
// any failure pattern and live when fewer than half the processes crash; when
// a majority of processes can be faulty it may block forever, which is exactly
// the boundary Table 1 records for the consensus rows.
//
// Rounds are numbered from 1 and rotate through coordinators.  Each round has
// the usual four phases: (1) everyone sends its timestamped estimate to the
// coordinator; (2) the coordinator gathers a majority of estimates and
// broadcasts the one with the highest timestamp; (3) each process either
// adopts the proposal and positively acknowledges it, or, if it currently
// suspects the coordinator, negatively acknowledges and moves on; (4) the
// coordinator decides once a majority positively acknowledged, and the
// decision is gossiped.
type Majority struct {
	id model.ProcID
	n  int

	estimate  int
	timestamp int
	round     int

	// estimateAt records the estimate this process sent for each round it has
	// entered, for retransmission over lossy channels.
	estimateAt map[int]estimateMsg
	// respondedAt records this process's phase-3 response per round:
	// 1 = positive acknowledgment, 0 = negative.
	respondedAt map[int]int

	// suspects is the most recent detector report.  Diamond-S suspicions are
	// transient, so they are not accumulated.
	suspects model.ProcSet

	coord map[int]*coordinatorRound

	decided      bool
	decidedValue int
}

// coordinatorRound is the bookkeeping a process keeps for a round it
// coordinates.
type coordinatorRound struct {
	estimates map[model.ProcID]estimateMsg
	order     []model.ProcID
	proposed  bool
	proposal  int
	positive  model.ProcSet
	negative  model.ProcSet
}

type estimateMsg struct {
	value     int
	timestamp int
}

// NewMajority returns a sim.ProtocolFactory for Majority where each process
// proposes the value given by proposals (defaulting to the process id).
func NewMajority(proposals map[model.ProcID]int) sim.ProtocolFactory {
	return func(id model.ProcID, n int) sim.Protocol {
		v, ok := proposals[id]
		if !ok {
			v = int(id)
		}
		return &Majority{
			id:          id,
			n:           n,
			estimate:    v,
			round:       1,
			estimateAt:  make(map[int]estimateMsg),
			respondedAt: make(map[int]int),
			coord:       make(map[int]*coordinatorRound),
		}
	}
}

// majority returns the quorum size, a strict majority of n.
func (p *Majority) majority() int { return p.n/2 + 1 }

// coordinator returns the coordinator of round r.
func (p *Majority) coordinator(r int) model.ProcID { return model.ProcID((r - 1) % p.n) }

// Init implements sim.Protocol.
func (p *Majority) Init(ctx sim.Context) { p.enterRound(ctx, p.round) }

// OnInitiate implements sim.Protocol.  Consensus takes its input from the
// proposal map, so workload initiations are ignored.
func (p *Majority) OnInitiate(sim.Context, model.ActionID) {}

// OnMessage implements sim.Protocol.
func (p *Majority) OnMessage(ctx sim.Context, from model.ProcID, msg model.Message) {
	switch msg.Kind {
	case MsgEstimate:
		p.onEstimate(ctx, from, msg)
	case MsgProposal:
		p.onProposal(ctx, from, msg)
	case MsgAck:
		p.onAck(ctx, from, msg)
	case MsgDecide:
		p.decide(ctx, msg.Value)
	}
}

// OnSuspect implements sim.Protocol.
func (p *Majority) OnSuspect(ctx sim.Context, rep model.SuspectReport) {
	suspects, isStandard := rep.StandardSuspects(p.n)
	if !isStandard {
		return
	}
	p.suspects = suspects
	p.maybeSkipRound(ctx)
}

// OnTick implements sim.Protocol.
func (p *Majority) OnTick(ctx sim.Context) {
	if p.decided {
		ctx.Broadcast(model.Message{Kind: MsgDecide, Value: p.decidedValue})
		return
	}
	// Retransmit every estimate this process has issued; lost copies of old
	// rounds matter because a lagging coordinator may still need them.
	for r := 1; r <= p.round; r++ {
		if e, ok := p.estimateAt[r]; ok {
			p.sendEstimate(ctx, r, e)
		}
	}
	p.maybeSkipRound(ctx)
	// Coordinator duties for every round this process coordinates and knows
	// about.
	for r := 1; r <= p.round; r++ {
		if p.coordinator(r) != p.id {
			continue
		}
		if st, ok := p.coord[r]; ok {
			p.coordinatorStep(ctx, r, st, true)
		}
	}
}

// enterRound records and sends this process's phase-1 estimate for round r.
func (p *Majority) enterRound(ctx sim.Context, r int) {
	if _, ok := p.estimateAt[r]; ok {
		return
	}
	e := estimateMsg{value: p.estimate, timestamp: p.timestamp}
	p.estimateAt[r] = e
	p.sendEstimate(ctx, r, e)
}

// sendEstimate delivers a phase-1 estimate to the coordinator of round r,
// short-circuiting the network when this process coordinates r itself.
func (p *Majority) sendEstimate(ctx sim.Context, r int, e estimateMsg) {
	c := p.coordinator(r)
	if c == p.id {
		p.recordEstimate(p.id, r, e)
		p.coordinatorStep(ctx, r, p.coordState(r), false)
		return
	}
	ctx.Send(c, model.Message{Kind: MsgEstimate, Round: r, Value: e.value, Aux: e.timestamp})
}

// maybeSkipRound lets a participant abandon a round whose coordinator it
// currently suspects, recording a negative response.
func (p *Majority) maybeSkipRound(ctx sim.Context) {
	if p.decided {
		return
	}
	r := p.round
	c := p.coordinator(r)
	if _, responded := p.respondedAt[r]; responded {
		return
	}
	if c == p.id || !p.suspects.Has(c) {
		return
	}
	p.respondedAt[r] = 0
	ctx.Send(c, model.Message{Kind: MsgAck, Round: r, Value: 0})
	p.advance(ctx)
}

// onEstimate handles a phase-1 message addressed to this process as
// coordinator of msg.Round.
func (p *Majority) onEstimate(ctx sim.Context, from model.ProcID, msg model.Message) {
	if p.coordinator(msg.Round) != p.id {
		return
	}
	p.recordEstimate(from, msg.Round, estimateMsg{value: msg.Value, timestamp: msg.Aux})
	p.coordinatorStep(ctx, msg.Round, p.coordState(msg.Round), false)
}

// onProposal handles the coordinator's phase-2 proposal for any round.
func (p *Majority) onProposal(ctx sim.Context, from model.ProcID, msg model.Message) {
	if p.decided {
		return
	}
	r := msg.Round
	if prev, ok := p.respondedAt[r]; ok {
		// A retransmitted proposal means our response may have been lost;
		// repeat it so the coordinator can make progress.
		ctx.Send(from, model.Message{Kind: MsgAck, Round: r, Value: prev})
		return
	}
	if r != p.round {
		// Proposals for future rounds will be retransmitted once we get
		// there; proposals for earlier rounds were answered above.
		return
	}
	p.estimate = msg.Value
	p.timestamp = r
	p.respondedAt[r] = 1
	ctx.Send(from, model.Message{Kind: MsgAck, Round: r, Value: 1})
	p.advance(ctx)
}

// onAck handles a phase-3 response addressed to this process as coordinator.
func (p *Majority) onAck(ctx sim.Context, from model.ProcID, msg model.Message) {
	if p.coordinator(msg.Round) != p.id {
		return
	}
	st := p.coordState(msg.Round)
	if msg.Value == 1 {
		st.positive = st.positive.Add(from)
	} else {
		st.negative = st.negative.Add(from)
	}
	p.coordinatorStep(ctx, msg.Round, st, false)
}

// advance moves the participant to the next round.
func (p *Majority) advance(ctx sim.Context) {
	p.round++
	p.enterRound(ctx, p.round)
}

// coordState returns (creating if needed) the coordinator bookkeeping for
// round r.
func (p *Majority) coordState(r int) *coordinatorRound {
	st, ok := p.coord[r]
	if !ok {
		st = &coordinatorRound{estimates: make(map[model.ProcID]estimateMsg)}
		p.coord[r] = st
	}
	return st
}

// recordEstimate stores a phase-1 estimate, keeping arrival order for
// deterministic tie-breaking.
func (p *Majority) recordEstimate(from model.ProcID, r int, e estimateMsg) {
	st := p.coordState(r)
	if _, seen := st.estimates[from]; !seen {
		st.estimates[from] = e
		st.order = append(st.order, from)
	}
}

// coordinatorStep advances the coordinator's phases for round r as far as the
// collected messages allow.  The proposal is (re)broadcast only when it is
// first formed or when rebroadcast is set (the periodic tick path); reacting
// to every acknowledgment with another broadcast would let a retransmitted
// proposal and its re-sent acknowledgment chase each other and flood the
// network.
func (p *Majority) coordinatorStep(ctx sim.Context, r int, st *coordinatorRound, rebroadcast bool) {
	if !st.proposed && len(st.order) >= p.majority() {
		best := st.estimates[st.order[0]]
		for _, from := range st.order[1:] {
			if e := st.estimates[from]; e.timestamp > best.timestamp {
				best = e
			}
		}
		st.proposed = true
		st.proposal = best.value
		rebroadcast = true
	}
	if !st.proposed {
		return
	}
	if rebroadcast {
		ctx.Broadcast(model.Message{Kind: MsgProposal, Round: r, Value: st.proposal})
	}
	// The coordinator is also a participant: adopt the proposal if round r is
	// still its current round and it has not yet responded.
	if !p.decided && p.round == r {
		if _, responded := p.respondedAt[r]; !responded {
			p.estimate = st.proposal
			p.timestamp = r
			p.respondedAt[r] = 1
			st.positive = st.positive.Add(p.id)
			p.advance(ctx)
		}
	}
	if st.positive.Count() >= p.majority() {
		p.decide(ctx, st.proposal)
	}
}

// decide records the decision and starts gossiping it.
func (p *Majority) decide(ctx sim.Context, v int) {
	if p.decided {
		return
	}
	p.decided = true
	p.decidedValue = v
	ctx.Do(DecisionAction(p.id, v))
	ctx.Broadcast(model.Message{Kind: MsgDecide, Value: v})
}

var _ sim.Protocol = (*Majority)(nil)
