package main

import (
	"errors"
	"fmt"

	"repro/internal/pool"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/workload"
)

// References.  Every byte the program under test delivers is compared with
// what the repository's serial reference implementations produce for the same
// input: workload.Sweep (one engine, seed order) for sweeps, and
// Runner{Workers: 1}.Extract for extractions, rendered through the same
// single producers the daemon uses (store.EncodeSweepRecord for the bin wire,
// server.MarshalBody(SweepResponseOf(...)) for JSON).  Several references may
// run side by side on their own goroutines; each one is still serial.

// parallelDo runs fn(i) for i in [0, n) on up to c goroutines and returns the
// errors joined.
func parallelDo(c, n int, fn func(i int) error) error {
	errs := make([]error, n)
	pool.Each(c, n, func(i int) { errs[i] = fn(i) })
	return errors.Join(errs...)
}

// sweepBody renders the response body a daemon must serve for a window with
// the given serial outcomes.
func sweepBody(sc registry.Scenario, seedBase int64, outcomes []workload.RunOutcome, wire string) []byte {
	rec := &store.SweepRecord{Scenario: sc.Name, Check: sc.Check, SeedBase: seedBase, Outcomes: outcomes}
	if wire == wireJSON {
		return server.MarshalBody(server.SweepResponseOf(rec))
	}
	return store.EncodeSweepRecord(rec)
}

// serialWindow is the reference for one window: a serial sweep of exactly
// its seeds.
func serialWindow(sc registry.Scenario, pos, count int) ([]workload.RunOutcome, error) {
	res, err := workload.Sweep(sc.Spec, workload.Seeds(seedAt(pos), count), sc.Eval)
	if err != nil {
		return nil, fmt.Errorf("reference sweep %s pos %d: %w", sc.Name, pos, err)
	}
	return res.Outcomes, nil
}

// corpusReference holds the serial outcomes of positions [0, positions) of
// each corpus scenario.  Per-seed outcomes are functions of (spec, seed)
// alone, so the slice [pos, pos+count) of one long serial sweep is the serial
// sweep of that window.
type corpusReference struct {
	scenarios []registry.Scenario
	outcomes  [][]workload.RunOutcome
}

func newCorpusReference(c, positions int) (*corpusReference, error) {
	ref := &corpusReference{outcomes: make([][]workload.RunOutcome, corpusScenarios)}
	for _, name := range serveScenarios[:corpusScenarios] {
		ref.scenarios = append(ref.scenarios, registry.MustScenario(name))
	}
	// Scenario costs differ severalfold; splitting each into chunks keeps the
	// c goroutines evenly loaded.
	const chunk = windowSize
	type job struct{ sc, pos int }
	var jobs []job
	for sc := range ref.scenarios {
		ref.outcomes[sc] = make([]workload.RunOutcome, positions)
		for pos := 0; pos < positions; pos += chunk {
			jobs = append(jobs, job{sc, pos})
		}
	}
	err := parallelDo(c, len(jobs), func(i int) error {
		j := jobs[i]
		outs, err := serialWindow(ref.scenarios[j.sc], j.pos, min(chunk, positions-j.pos))
		copy(ref.outcomes[j.sc][j.pos:], outs)
		return err
	})
	return ref, err
}

// want fills in op's reference CRC.
func (ref *corpusReference) want(op *sweepOp) {
	body := sweepBody(ref.scenarios[op.scenario], seedAt(op.pos), ref.outcomes[op.scenario][op.pos:op.pos+op.count], op.wire)
	op.want = crcOf(body)
}

// sampleReference fills in the reference CRC of every op marked verify, each
// from its own serial sweep.
func sampleReference(c int, ops []sweepOp) error {
	var idx []int
	for i := range ops {
		if ops[i].verify {
			idx = append(idx, i)
		}
	}
	return parallelDo(c, len(idx), func(k int) error {
		op := &ops[idx[k]]
		sc := registry.MustScenario(serveScenarios[op.scenario])
		outs, err := serialWindow(sc, op.pos, op.count)
		if err != nil {
			return err
		}
		op.want = crcOf(sweepBody(sc, seedAt(op.pos), outs, op.wire))
		return nil
	})
}
