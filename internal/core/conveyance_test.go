package core_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/workload"
)

// TestAlphaConveyance checks, on every catalog UDC and nUDC scenario, that
// no process sends a message naming alpha (an alpha-message or an ack)
// before it initiated alpha or received a message naming it.  A process can
// only pass on what it has learned, so both protocol bodies, relay and
// acknowledge, must order their sends after what tells them of alpha.
func TestAlphaConveyance(t *testing.T) {
	checked := 0
	for _, sc := range registry.Scenarios() {
		if sc.Check != "udc" && sc.Check != "nudc" {
			continue
		}
		checked++
		for _, seed := range []int64{1, 77, 4242} {
			res, err := workload.Execute(sc.Spec, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", sc.Name, seed, err)
			}
			if err := checkConveyance(res.Run); err != nil {
				t.Errorf("%s seed %d: %v", sc.Name, seed, err)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no catalog scenario checks udc or nudc")
	}
}

// checkConveyance returns an error naming the first send in r of a message
// about an action its sender had neither initiated nor received word of.
func checkConveyance(r *model.Run) error {
	for p, hist := range r.Events {
		var known []model.ActionID
		for i := range hist {
			ev := &hist[i].Event
			if ev.Kind == model.EventInit {
				known = append(known, ev.Action())
				continue
			}
			if kind := ev.MsgKind(); kind != core.MsgAlpha && kind != core.MsgAck {
				continue
			}
			a := ev.Msg().Action
			switch {
			case ev.Kind == model.EventRecv:
				known = append(known, a)
			case !slices.Contains(known, a):
				return fmt.Errorf("process %d sent %s for %v at time %d before it knew of the action",
					p, ev.MsgKind(), a, hist[i].Time)
			}
		}
	}
	return nil
}
