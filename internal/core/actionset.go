package core

import "repro/internal/model"

// actionSet is a protocol's table of active actions, in insertion order, each
// with the processes known to have acknowledged it.  Protocols iterate over
// their active actions on every tick, so the order must be deterministic (it
// decides the simulator's RNG consumption).  A run has a handful of actions,
// so lookups scan the table, as sim.Engine's action list does, and a protocol
// instance holds the table by value: entering an action costs no map.
type actionSet struct {
	entries []activeAction
}

// activeAction is one row of an actionSet.
type activeAction struct {
	id    model.ActionID
	acked model.ProcSet
}

// index returns a's position in the table, or the table's length if a is not
// in it.
func (s *actionSet) index(a model.ActionID) int {
	i := 0
	for i < len(s.entries) && s.entries[i].id != a {
		i++
	}
	return i
}

// add appends row and reports whether its action was newly added; adding an
// action already in the table changes nothing.  The first row sizes the table
// for actions rows, the run's initiation count (sim.Context.Initiations),
// so the table is allocated once rather than grown row by row.
func (s *actionSet) add(row activeAction, actions int) bool {
	if s.index(row.id) < len(s.entries) {
		return false
	}
	if s.entries == nil {
		s.entries = make([]activeAction, 0, max(actions, 1))
	}
	s.entries = append(s.entries, row)
	return true
}

// ack records q's acknowledgement of a and returns a's row; ok is false, and
// nothing is recorded, if a is not in the table.
func (s *actionSet) ack(a model.ActionID, q model.ProcID) (row activeAction, ok bool) {
	i := s.index(a)
	if i == len(s.entries) {
		return activeAction{}, false
	}
	s.entries[i].acked = s.entries[i].acked.Add(q)
	return s.entries[i], true
}

// list returns the rows in insertion order.  The returned slice must not be
// modified.
func (s *actionSet) list() []activeAction { return s.entries }
