package service_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/service"
	"repro/internal/sim"
)

func requests() []service.Request {
	return []service.Request{
		{Replica: 0, Seq: 0, Units: 3, Client: "alice"},
		{Replica: 1, Seq: 1, Units: 2, Client: "bob"},
		{Replica: 2, Seq: 2, Units: 4, Client: "carol"},
		{Replica: 0, Seq: 3, Units: 1, Client: "dave"},
	}
}

func initiationsFor(reqs []service.Request, times []int) []sim.Initiation {
	out := make([]sim.Initiation, len(reqs))
	for i, req := range reqs {
		out[i] = sim.Initiation{Time: times[i], Proc: req.Replica, Action: service.ActionFor(req)}
	}
	return out
}

// TestReplicatedAllocatorConverges runs the introduction's motivating service
// on top of the strong-detector UDC protocol: despite crashes (including the
// crash of a replica that accepted a request) every correct replica ends with
// the same allocation state and no accepted allocation is repudiated.
func TestReplicatedAllocatorConverges(t *testing.T) {
	reqs := requests()
	cfg := sim.Config{
		N:            5,
		Seed:         7,
		MaxSteps:     400,
		TickEvery:    2,
		SuspectEvery: 3,
		Network:      sim.FairLossyNetwork(0.3),
		Crashes:      []sim.CrashEvent{{Time: 50, Proc: 2}, {Time: 90, Proc: 4}},
		Initiations:  initiationsFor(reqs, []int{5, 15, 30, 70}),
		Protocol:     core.NewStrongFDUDC,
		Oracle:       fd.StrongOracle{FalseSuspicionRate: 0.1, Seed: 2},
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if vs := service.CheckConvergence(res.Run, reqs, 20); len(vs) != 0 {
		t.Fatalf("service diverged: %v", vs[0])
	}
	// The replica that accepted carol's request crashed at 50; the request was
	// initiated at 30, so if it committed anywhere it must be in every correct
	// replica's state.
	correct := res.Run.Correct().Members()
	st := service.BuildState(res.Run, correct[0], reqs, 20)
	if st.Allocated == 0 {
		t.Fatalf("no allocations committed at all")
	}
	if st.Remaining != 20-st.Allocated {
		t.Fatalf("remaining = %d, want %d", st.Remaining, 20-st.Allocated)
	}
}

func TestBuildStateCanonicalOrder(t *testing.T) {
	reqs := requests()
	r := model.NewRun(2)
	must := func(p model.ProcID, at int, e model.Event) {
		t.Helper()
		if err := r.Append(p, at, e); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	// Replica 0 applies in one order, replica 1 in another; their states must
	// nevertheless agree.
	must(0, 1, model.InitEvent(service.ActionFor(reqs[0])))
	must(1, 1, model.InitEvent(service.ActionFor(reqs[1])))
	must(0, 2, model.DoEvent(service.ActionFor(reqs[0])))
	must(0, 3, model.DoEvent(service.ActionFor(reqs[1])))
	must(1, 2, model.DoEvent(service.ActionFor(reqs[1])))
	must(1, 3, model.DoEvent(service.ActionFor(reqs[0])))
	r.SetHorizon(5)

	s0 := service.BuildState(r, 0, reqs, 10)
	s1 := service.BuildState(r, 1, reqs, 10)
	if s0.Fingerprint() != s1.Fingerprint() {
		t.Fatalf("states differ despite identical applied sets: %q vs %q", s0.Fingerprint(), s1.Fingerprint())
	}
	if s0.Allocated != 5 || s0.Remaining != 5 {
		t.Fatalf("allocation arithmetic wrong: %+v", s0)
	}
	if len(s0.Applied) != 2 {
		t.Fatalf("applied = %d requests, want 2", len(s0.Applied))
	}
	if vs := service.CheckConvergence(r, reqs, 10); len(vs) != 0 {
		t.Fatalf("unexpected violations: %v", vs)
	}
}

func TestCheckConvergenceFlagsDivergenceAndRepudiation(t *testing.T) {
	reqs := requests()
	r := model.NewRun(3)
	must := func(p model.ProcID, at int, e model.Event) {
		t.Helper()
		if err := r.Append(p, at, e); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	must(0, 1, model.InitEvent(service.ActionFor(reqs[0])))
	// Replica 2 applies the request and then crashes; the correct replicas 0
	// and 1 never apply it: that is exactly the repudiation UDC forbids.
	must(2, 2, model.DoEvent(service.ActionFor(reqs[0])))
	must(2, 3, model.Event{Kind: model.EventCrash})
	r.SetHorizon(6)
	vs := service.CheckConvergence(r, reqs, 10)
	foundRepudiation := false
	for _, v := range vs {
		if v.Rule == "service-repudiation" {
			foundRepudiation = true
		}
	}
	if !foundRepudiation {
		t.Fatalf("repudiation not flagged: %v", vs)
	}

	// Divergence between correct replicas.
	r2 := model.NewRun(2)
	must2 := func(p model.ProcID, at int, e model.Event) {
		t.Helper()
		if err := r2.Append(p, at, e); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	must2(0, 1, model.InitEvent(service.ActionFor(reqs[0])))
	must2(0, 2, model.DoEvent(service.ActionFor(reqs[0])))
	r2.SetHorizon(5)
	vs2 := service.CheckConvergence(r2, reqs, 10)
	foundDivergence := false
	for _, v := range vs2 {
		if v.Rule == "service-convergence" {
			foundDivergence = true
		}
	}
	if !foundDivergence {
		t.Fatalf("divergence not flagged: %v", vs2)
	}

	// Applying a request nobody submitted is flagged too.
	r3 := model.NewRun(1)
	must3 := func(at int, e model.Event) {
		t.Helper()
		if err := r3.Append(0, at, e); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	must3(2, model.DoEvent(model.Action(0, 99)))
	r3.SetHorizon(5)
	vs3 := service.CheckConvergence(r3, reqs, 10)
	foundUnknown := false
	for _, v := range vs3 {
		if v.Rule == "service-unknown-request" {
			foundUnknown = true
		}
	}
	if !foundUnknown {
		t.Fatalf("unknown request not flagged: %v", vs3)
	}
}

func TestCheckConvergenceAllFaultyIsVacuous(t *testing.T) {
	r := model.NewRun(1)
	if err := r.Append(0, 1, model.Event{Kind: model.EventCrash}); err != nil {
		t.Fatalf("append: %v", err)
	}
	r.SetHorizon(3)
	if vs := service.CheckConvergence(r, requests(), 10); len(vs) != 0 {
		t.Fatalf("no correct replicas means nothing to check, got %v", vs)
	}
}
