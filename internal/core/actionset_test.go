package core

import (
	"testing"
	"testing/quick"

	"repro/internal/model"
)

// actionOp is one step of a random actionSet workout: Op picks add, ack or a
// membership query, and the action and the process come from small ranges so
// that repeated adds and acks of absent actions are common.
type actionOp struct {
	Op, Initiator, Seq, Proc uint8
}

// TestQuickActionSetMatchesMapModel runs random add/ack/has sequences against
// an actionSet and against the map-plus-order-slice pair it replaced.  After
// every step they must agree on membership, on whether an add was new and on
// a row's acknowledgements; at the end, on the insertion order and every
// acked set.
func TestQuickActionSetMatchesMapModel(t *testing.T) {
	prop := func(ops []actionOp) bool {
		var s actionSet
		acked := map[model.ActionID]model.ProcSet{}
		var order []model.ActionID
		for _, op := range ops {
			a := model.Action(model.ProcID(op.Initiator%4), int(op.Seq%4))
			q := model.ProcID(op.Proc % 8)
			_, present := acked[a]
			switch op.Op % 3 {
			case 0:
				// A hint below the 16 possible actions: the table must
				// still grow past its first sizing.
				if s.add(activeAction{id: a, acked: model.Singleton(q)}, 2) == present {
					return false
				}
				if !present {
					acked[a] = model.Singleton(q)
					order = append(order, a)
				}
			case 1:
				row, ok := s.ack(a, q)
				if ok != present {
					return false
				}
				if present {
					acked[a] = acked[a].Add(q)
					if row != (activeAction{id: a, acked: acked[a]}) {
						return false
					}
				}
			case 2:
				if (s.index(a) < len(s.list())) != present {
					return false
				}
			}
		}
		rows := s.list()
		if len(rows) != len(order) {
			return false
		}
		for i, row := range rows {
			if row.id != order[i] || row.acked != acked[order[i]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
