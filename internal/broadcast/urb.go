// Package broadcast implements Uniform Reliable Broadcast (URB) on top of the
// UDC core, following the observation in Section 5 (footnote 9) of the paper
// that URB and UDC are isomorphic problems: broadcast corresponds to init and
// deliver corresponds to do.
//
// Schiper & Sandoz implement Uniform Reliable Multicast over a virtual
// synchrony layer that simulates perfect failure detection; the paper's
// Theorem 3.6 explains why: attaining the uniform guarantee over unreliable
// channels with unbounded failures is tantamount to having a perfect detector.
// This package exposes the correspondence as a small API plus URB-specific
// property checkers.
package broadcast

import (
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sim"
)

// MessageID identifies a broadcast message by its sender and a per-sender
// sequence number.
type MessageID struct {
	Sender model.ProcID
	Seq    int
}

// ActionFor maps a broadcast message onto the coordination action that
// represents it (broadcast == init, deliver == do).
func ActionFor(id MessageID) model.ActionID {
	return model.ActionID{Initiator: id.Sender, Seq: id.Seq}
}

// IDFor is the inverse of ActionFor.
func IDFor(a model.ActionID) MessageID {
	return MessageID{Sender: a.Initiator, Seq: a.Seq}
}

// Broadcast schedules a URB-broadcast of message (Sender, Seq) at a global
// time.
type Broadcast struct {
	Time   int
	Sender model.ProcID
	Seq    int
}

// Initiations converts a broadcast schedule into the simulator's initiation
// schedule.
func Initiations(broadcasts []Broadcast) []sim.Initiation {
	out := make([]sim.Initiation, 0, len(broadcasts))
	for _, b := range broadcasts {
		out = append(out, sim.Initiation{
			Time:   b.Time,
			Proc:   b.Sender,
			Action: ActionFor(MessageID{Sender: b.Sender, Seq: b.Seq}),
		})
	}
	return out
}

// Deliveries returns the messages delivered by process p, in delivery order.
func Deliveries(r *model.Run, p model.ProcID) []MessageID {
	var out []MessageID
	evs := r.Events[p]
	for i := range evs {
		if e := &evs[i].Event; e.Kind == model.EventDo {
			out = append(out, IDFor(e.Action()))
		}
	}
	return out
}

// Check verifies the URB properties on a run:
//
//   - Validity: if a correct process broadcasts m, it eventually delivers m.
//   - Uniform agreement: if any process delivers m, every correct process
//     eventually delivers m.
//   - Integrity: a process delivers m at most once, and only if m was
//     broadcast.
//
// Validity and uniform agreement follow from DC1 and DC2; integrity extends
// DC3 with the at-most-once requirement.
func Check(r *model.Run) []model.Violation {
	out := core.CheckUDC(r)

	// At-most-once delivery.
	for p := model.ProcID(0); int(p) < r.N; p++ {
		seen := make(map[model.ActionID]int)
		evs := r.Events[p]
		for i := range evs {
			if e := &evs[i].Event; e.Kind == model.EventDo {
				seen[e.Action()]++
			}
		}
		for a, c := range seen {
			if c > 1 {
				out = append(out, model.Violationf("urb-integrity",
					"process %d delivered %v %d times", p, IDFor(a), c))
			}
		}
	}
	return out
}

// SenderDelivered reports whether the broadcaster of m delivered its own
// message (the URB validity obligation for correct senders).
func SenderDelivered(r *model.Run, m MessageID) bool {
	_, ok := r.DoTime(m.Sender, ActionFor(m))
	return ok
}
