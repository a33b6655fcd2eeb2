package broadcast_test

import (
	"testing"

	"repro/internal/broadcast"
	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/sim"
)

func TestActionMessageRoundTrip(t *testing.T) {
	id := broadcast.MessageID{Sender: 3, Seq: 9}
	if got := broadcast.IDFor(broadcast.ActionFor(id)); got != id {
		t.Fatalf("round trip = %v, want %v", got, id)
	}
}

func TestInitiations(t *testing.T) {
	ins := broadcast.Initiations([]broadcast.Broadcast{
		{Time: 5, Sender: 1, Seq: 0},
		{Time: 9, Sender: 2, Seq: 1},
	})
	if len(ins) != 2 {
		t.Fatalf("expected 2 initiations")
	}
	if ins[0].Proc != 1 || ins[0].Time != 5 || ins[0].Action != model.Action(1, 0) {
		t.Fatalf("initiation 0 wrong: %+v", ins[0])
	}
}

// TestURBOverUDC runs uniform reliable broadcast on top of the strong-detector
// UDC protocol over lossy channels with crashes and checks the URB properties.
func TestURBOverUDC(t *testing.T) {
	broadcasts := []broadcast.Broadcast{
		{Time: 3, Sender: 0, Seq: 0},
		{Time: 10, Sender: 1, Seq: 0},
		{Time: 40, Sender: 2, Seq: 0},
		{Time: 80, Sender: 0, Seq: 1},
	}
	cfg := sim.Config{
		N:            5,
		Seed:         99,
		MaxSteps:     400,
		TickEvery:    2,
		SuspectEvery: 3,
		Network:      sim.FairLossyNetwork(0.3),
		Crashes:      []sim.CrashEvent{{Time: 20, Proc: 3}, {Time: 60, Proc: 1}},
		Initiations:  broadcast.Initiations(broadcasts),
		Protocol:     core.NewStrongFDUDC,
		Oracle:       fd.StrongOracle{FalseSuspicionRate: 0.1, Seed: 4},
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if vs := broadcast.Check(res.Run); len(vs) != 0 {
		t.Fatalf("URB violated: %v", vs[0])
	}
	// Every correct process delivered every message that anyone delivered.
	correct := res.Run.Correct().Members()
	reference := broadcast.Deliveries(res.Run, correct[0])
	if len(reference) == 0 {
		t.Fatalf("no deliveries at all")
	}
	delivered := make(map[broadcast.MessageID]bool, len(reference))
	for _, m := range reference {
		delivered[m] = true
	}
	for _, p := range correct[1:] {
		for _, m := range broadcast.Deliveries(res.Run, p) {
			if !delivered[m] {
				t.Fatalf("correct process %d delivered %v which %d did not", p, m, correct[0])
			}
		}
		if len(broadcast.Deliveries(res.Run, p)) != len(reference) {
			t.Fatalf("correct processes delivered different message sets")
		}
	}
	// Correct senders delivered their own broadcasts (URB validity).
	for _, b := range broadcasts {
		m := broadcast.MessageID{Sender: b.Sender, Seq: b.Seq}
		if res.Run.Correct().Has(b.Sender) && !broadcast.SenderDelivered(res.Run, m) {
			t.Fatalf("correct sender %d did not deliver its own message %v", b.Sender, m)
		}
	}
}

func TestCheckFlagsDuplicateDelivery(t *testing.T) {
	r := model.NewRun(2)
	a := broadcast.ActionFor(broadcast.MessageID{Sender: 0, Seq: 1})
	must := func(p model.ProcID, at int, e model.Event) {
		t.Helper()
		if err := r.Append(p, at, e); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	must(0, 1, model.InitEvent(a))
	must(0, 2, model.DoEvent(a))
	must(1, 3, model.DoEvent(a))
	must(1, 4, model.DoEvent(a))
	r.SetHorizon(6)
	vs := broadcast.Check(r)
	found := false
	for _, v := range vs {
		if v.Rule == "urb-integrity" {
			found = true
		}
	}
	if !found {
		t.Fatalf("duplicate delivery not flagged: %v", vs)
	}
}
