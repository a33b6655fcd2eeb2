package main

import (
	"fmt"
	"time"

	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/workload"
)

// The offline workloads call workload.Runner directly, one op at a time (the
// callers are CLI sweeps: `udcsim -sweep`, `table1`, `fdextract`), with the
// parallelism inside the runner's pool.  An op's delivered bytes are its
// result rendered as a store record — the same rendering the daemon serves —
// so offline and serving ops share one byte check.

// offlineEnv is a reusable environment: the op list with its references.
type offlineEnv struct {
	ops []offlineOp
	// call executes one op on `workers` workers and returns the encoded
	// result and the seeds it delivered.  The encode happens off the op's
	// latency clock.
	call func(op offlineOp, workers int) (encode func() []byte, seeds int, err error)
	c    int
}

func (e *offlineEnv) runOps(ops []offlineOp) []opResult {
	results := make([]opResult, len(ops))
	for i, op := range ops {
		start := time.Now()
		encode, seeds, err := e.call(op, e.c)
		r := opResult{start: start, latency: time.Since(start), seeds: seeds, class: classOffline}
		if err != nil {
			r.failed = true
		} else {
			r.crc = crcOf(encode())
		}
		results[i] = r
	}
	return results
}

func (e *offlineEnv) warmup() error {
	for _, r := range e.runOps(e.ops[:warmupCount(len(e.ops))]) {
		if r.failed {
			return fmt.Errorf("warm-up op failed")
		}
	}
	return nil
}

func (e *offlineEnv) prepare(bool) {}

func (e *offlineEnv) round(bool) []opResult { return e.runOps(e.ops) }

func (e *offlineEnv) check(r roundResult, _ *layerCounts) []string {
	for i := range r.ops {
		if e.ops[i].verify && r.ops[i].crc != e.ops[i].want {
			r.ops[i].failed = true
		}
	}
	return nil
}

func (e *offlineEnv) close() {}

// reference fills in the sampled ops' CRCs from serial calls (one worker),
// several of them side by side.
func (e *offlineEnv) reference() error {
	var idx []int
	for i := range e.ops {
		if e.ops[i].verify {
			idx = append(idx, i)
		}
	}
	return parallelDo(e.c, len(idx), func(k int) error {
		op := &e.ops[idx[k]]
		encode, _, err := e.call(*op, 1)
		if err != nil {
			return err
		}
		op.want = crcOf(encode())
		return nil
	})
}

func setupSweepOffline(cfg runConfig) (env, error) {
	scenarios := make([]registry.Scenario, len(sweepScenarios))
	for i, name := range sweepScenarios {
		scenarios[i] = registry.MustScenario(name)
	}
	e := &offlineEnv{
		ops: offlineOps(cfg.seed, wlSweepOffline, cfg.sz.SweepRounds, len(scenarios), cfg.sz.VerifyEvery),
		c:   cfg.c,
	}
	e.call = func(op offlineOp, workers int) (func() []byte, int, error) {
		sc := scenarios[op.kind]
		seeds := workload.Seeds(op.baseSeed, windowSize)
		var res workload.SweepResult
		var err error
		if workers == 1 {
			res, err = workload.Sweep(sc.Spec, seeds, sc.Eval)
		} else {
			res, err = workload.Runner{Workers: workers}.Sweep(sc.Spec, seeds, sc.Eval)
		}
		return func() []byte {
			return store.EncodeSweepRecord(store.NewSweepRecord(sc.Name, sc.Check, "", op.baseSeed, res))
		}, len(seeds), err
	}
	return e, e.reference()
}

func setupExtractOffline(cfg runConfig) (env, error) {
	kinds := make([]registry.ExtractionScenario, len(extractKinds))
	for i, name := range extractKinds {
		kinds[i] = registry.MustExtraction(name)
	}
	e := &offlineEnv{
		ops: offlineOps(cfg.seed, wlExtractOffline, cfg.sz.ExtractPerKind, len(kinds), cfg.sz.VerifyEvery),
		c:   cfg.c,
	}
	e.call = func(op offlineOp, workers int) (func() []byte, int, error) {
		kx := kinds[op.kind]
		ex := kx.Extraction
		ex.BaseSeed, ex.Runs = op.baseSeed, cfg.sz.ExtractRuns
		res, err := workload.Runner{Workers: workers}.Extract(ex)
		return func() []byte {
			return store.EncodeExtractionRecord(store.NewExtractionRecord("", kx.Stress, res))
		}, ex.Runs, err
	}
	return e, e.reference()
}
