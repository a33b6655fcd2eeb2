package trace_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func sampleRun(t *testing.T) *model.Run {
	t.Helper()
	spec := workload.Spec{
		Name:        "trace-sample",
		N:           4,
		MaxSteps:    120,
		TickEvery:   2,
		Network:     sim.FairLossyNetwork(0.2),
		Protocol:    core.NewNUDC,
		Actions:     3,
		MaxFailures: 1,
	}
	res, err := workload.Execute(spec, 5)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	return res.Run
}

func TestJSONRoundTrip(t *testing.T) {
	r := sampleRun(t)
	var buf bytes.Buffer
	if err := trace.EncodeJSON(&buf, r); err != nil {
		t.Fatalf("encode: %v", err)
	}
	decoded, err := trace.DecodeJSON(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if decoded.N != r.N || decoded.Horizon != r.Horizon || decoded.EventCount() != r.EventCount() {
		t.Fatalf("round trip changed shape: %d/%d/%d vs %d/%d/%d",
			decoded.N, decoded.Horizon, decoded.EventCount(), r.N, r.Horizon, r.EventCount())
	}
	for p := model.ProcID(0); int(p) < r.N; p++ {
		if decoded.FinalHistory(p).Key() != r.FinalHistory(p).Key() {
			t.Fatalf("history of process %d changed under JSON round trip", p)
		}
	}
}

func TestDecodeJSONRejectsGarbage(t *testing.T) {
	cases := []struct {
		name, input string
	}{
		{"syntax", "{not json"},
		{"histories", `{"n": 3, "horizon": 1, "events": []}`},
		{"negative horizon", `{"n": 1, "horizon": -2, "events": [[]]}`},
		{"negative time", `{"n": 1, "horizon": 5, "events": [[{"time": -1, "event": {"kind": 3}}]]}`},
		{"non-monotone times", `{"n": 1, "horizon": 5, "events": [[{"time": 4, "event": {"kind": 3}}, {"time": 2, "event": {"kind": 4}}]]}`},
		{"time beyond horizon", `{"n": 1, "horizon": 5, "events": [[{"time": 9, "event": {"kind": 3}}]]}`},
		// Events no run can contain.
		{"send to peer 70", `{"n": 3, "horizon": 5, "events": [[{"time": 1, "event": {"kind": 1, "peer": 70, "msg": {"kind": "alpha"}}}], [], []]}`},
		{"event of kind 99", `{"n": 3, "horizon": 5, "events": [[{"time": 1, "event": {"kind": 99}}], [], []]}`},
		{"action initiated by -4", `{"n": 3, "horizon": 5, "events": [[{"time": 1, "event": {"kind": 3, "action": {"initiator": -4, "seq": 1}}}], [], []]}`},
		{"recv carrying an action", `{"n": 3, "horizon": 5, "events": [[{"time": 1, "event": {"kind": 2, "peer": 1, "msg": {"kind": "alpha"}, "action": {"initiator": 0, "seq": 1}}}], [], []]}`},
		{"recv carrying a report", `{"n": 3, "horizon": 5, "events": [[{"time": 1, "event": {"kind": 2, "peer": 1, "report": {"suspects": 4}}}], [], []]}`},
	}
	for _, tc := range cases {
		if _, err := trace.DecodeJSON(strings.NewReader(tc.input)); err == nil {
			t.Errorf("%s: expected a decode error", tc.name)
		}
	}
	// Equal successive times (several events in one step) stay legal.
	ok := `{"n": 1, "horizon": 5, "events": [[{"time": 2, "event": {"kind": 3}}, {"time": 2, "event": {"kind": 4}}]]}`
	if _, err := trace.DecodeJSON(strings.NewReader(ok)); err != nil {
		t.Fatalf("equal-time events should decode: %v", err)
	}
}

func TestCountsMatchRun(t *testing.T) {
	r := sampleRun(t)
	c := trace.Count(r)
	if c.Total() != r.EventCount() {
		t.Fatalf("total = %d, want %d", c.Total(), r.EventCount())
	}
	if c.Send != r.CountKind(model.EventSend) || c.Recv != r.CountKind(model.EventRecv) ||
		c.Init != r.CountKind(model.EventInit) || c.Do != r.CountKind(model.EventDo) ||
		c.Crash != r.CountKind(model.EventCrash) || c.Suspect != r.CountKind(model.EventSuspect) {
		t.Fatalf("per-kind counts disagree with the run: %+v", c)
	}
	perProc := trace.CountByProcess(r)
	sum := 0
	for _, pc := range perProc {
		sum += pc.Total()
	}
	if sum != c.Total() {
		t.Fatalf("per-process counts sum to %d, want %d", sum, c.Total())
	}
}

func TestSummaryAndTimeline(t *testing.T) {
	r := sampleRun(t)
	s := trace.Summary(r)
	if !strings.Contains(s, "run: n=4") || !strings.Contains(s, "actions:") {
		t.Fatalf("summary missing sections:\n%s", s)
	}
	for _, a := range r.InitiatedActions() {
		if !strings.Contains(s, a.String()) {
			t.Fatalf("summary missing action %v", a)
		}
	}
	tl := trace.Timeline(r, 0)
	if len(tl) == 0 || !strings.Contains(tl, "init(") {
		t.Fatalf("timeline for the initiator should mention its init event:\n%s", tl)
	}
}
