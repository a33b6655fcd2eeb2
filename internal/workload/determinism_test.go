package workload_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// runDigest hashes the full recorded event log of a run.
func runDigest(t *testing.T, r *model.Run) string {
	t.Helper()
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal run: %v", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// outcomesJSON renders sweep outcomes to bytes for byte-identity comparison.
func outcomesJSON(t *testing.T, s workload.SweepResult) string {
	t.Helper()
	raw, err := json.Marshal(s.Outcomes)
	if err != nil {
		t.Fatalf("marshal outcomes: %v", err)
	}
	return string(raw)
}

// determinismScenarios are the catalog shapes the regression locks down: a
// lossy UDC workload with a randomised detector, a generalized-detector
// workload, a consensus workload, and one scenario per adversary rng
// signature (shaper drop draws, duplication draws, extra-delay scheduling,
// cascade crash planning, and a deterministic no-draw schedule checked with
// an fd property evaluator).
var determinismScenarios = []string{
	"prop3.1-strong-udc",
	"prop4.1-tuseful-udc",
	"consensus-majority",
	"adv-burst-loss-strong-udc",
	"adv-duplicate-storm-nudc",
	"adv-skewed-delays-strong-udc",
	"adv-healing-partition-quorum-udc",
	"adv-cascade-strong-udc",
	"adv-targeted-final-fd",
}

// TestSerialAndParallelSweepsAreByteIdentical locks the tentpole contract:
// the parallel runner's aggregated SweepResult must be byte-identical to the
// serial sweep's for the same (spec, seeds), for every worker count.
func TestSerialAndParallelSweepsAreByteIdentical(t *testing.T) {
	seeds := workload.Seeds(424242, 8)
	for _, name := range determinismScenarios {
		sc := registry.MustScenario(name)
		serial, err := workload.Sweep(sc.Spec, seeds, sc.Eval)
		if err != nil {
			t.Fatalf("%s: serial sweep: %v", name, err)
		}
		want := outcomesJSON(t, serial)
		for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
			parallel, err := workload.Runner{Workers: workers}.Sweep(sc.Spec, seeds, sc.Eval)
			if err != nil {
				t.Fatalf("%s: parallel sweep (%d workers): %v", name, workers, err)
			}
			if got := outcomesJSON(t, parallel); got != want {
				t.Errorf("%s: %d-worker sweep outcomes differ from serial sweep", name, workers)
			}
		}
	}
}

// TestRunAllMatchesSweepAll pins that the run-retaining path (owned runs)
// scores exactly like the outcome-only path (borrowed runs), for a scored task
// and for Task's documented simulate-only form, a nil evaluator (ScoreRun
// answers it with the seed and the counters on both paths).
func TestRunAllMatchesSweepAll(t *testing.T) {
	sc := registry.MustScenario("adv-targeted-final-fd")
	seeds := workload.Seeds(99, 6)
	runner := workload.Runner{Workers: 4}
	var digests [][]string
	for _, row := range []struct {
		name string
		eval workload.Evaluator
	}{
		{"scored", sc.Eval},
		{"nil evaluator", nil},
	} {
		tasks := []workload.Task{{Spec: sc.Spec, Seeds: seeds, Eval: row.eval}}
		swept, err := runner.SweepAll(tasks)
		if err != nil {
			t.Fatalf("%s: SweepAll: %v", row.name, err)
		}
		ran, err := runner.RunAll(tasks)
		if err != nil {
			t.Fatalf("%s: RunAll: %v", row.name, err)
		}
		outcomes := make([]workload.RunOutcome, len(ran[0]))
		rowDigests := make([]string, len(ran[0]))
		for i, sr := range ran[0] {
			if sr.Run == nil {
				t.Fatalf("%s: seed %d: no run retained", row.name, seeds[i])
			}
			outcomes[i], rowDigests[i] = sr.Outcome, runDigest(t, sr.Run)
			if row.eval == nil && (sr.Outcome.Violations != nil || sr.Outcome.LatencyActions != 0) {
				t.Fatalf("unscored seed %d carries outcome fields: %+v", seeds[i], sr.Outcome)
			}
			if sr.Outcome.Seed != seeds[i] || sr.Outcome.Stats.Steps == 0 {
				t.Fatalf("%s: seed %d: outcome lacks its seed or counters: %+v", row.name, seeds[i], sr.Outcome)
			}
		}
		if got, want := outcomesJSON(t, workload.SweepResult{Outcomes: outcomes}), outcomesJSON(t, swept[0]); got != want {
			t.Fatalf("%s: RunAll outcomes differ from SweepAll outcomes", row.name)
		}
		digests = append(digests, rowDigests)
	}
	for i := range seeds {
		if digests[0][i] != digests[1][i] {
			t.Fatalf("unscored run %d differs from scored run of the same seed", i)
		}
	}
}

// TestQuickBorrowedOwnedAndSerialSweepsAgree is the borrowed run's
// differential property: for a random catalogued scenario, seed set and worker
// count in {1, 2, 4}, SweepAll (each run scored where its engine recorded it,
// then overwritten by that worker's next seed), RunAll (owned runs) and the
// serial Sweep reference deliver the same outcomes — compared as the bytes of
// the sweep record the serving layer stores.  Run it under -race: a worker
// reading a run another seed is being recorded into would show here.
func TestQuickBorrowedOwnedAndSerialSweepsAgree(t *testing.T) {
	catalog := registry.Scenarios()
	record := func(outcomes []workload.RunOutcome) string {
		return string(store.EncodeSweepRecord(&store.SweepRecord{Outcomes: outcomes}))
	}
	property := func(scenario, count, workers uint8, baseSeed uint32) bool {
		sc := catalog[int(scenario)%len(catalog)]
		seeds := workload.Seeds(int64(baseSeed), 1+int(count%9))
		tasks := []workload.Task{{Spec: sc.Spec, Seeds: seeds, Eval: sc.Eval}}
		runner := workload.Runner{Workers: 1 << (workers % 3)}
		serial, errSerial := workload.Sweep(sc.Spec, seeds, sc.Eval)
		swept, errSwept := runner.SweepAll(tasks)
		ran, errRan := runner.RunAll(tasks)
		if errSerial != nil || errSwept != nil || errRan != nil {
			t.Logf("%s: serial %v, SweepAll %v, RunAll %v", sc.Name, errSerial, errSwept, errRan)
			return false
		}
		owned := make([]workload.RunOutcome, len(seeds))
		for i, sr := range ran[0] {
			owned[i] = sr.Outcome
		}
		want := record(serial.Outcomes)
		return record(swept[0].Outcomes) == want && record(owned) == want
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 24}); err != nil {
		t.Fatal(err)
	}
}

// TestExtendExtractionMatchesExtract locks the index-state contract the
// serving layer relies on: a state grown over the first k seeds and extended
// to the whole window yields the end-to-end pipeline's result byte for byte,
// at every split from the empty state to the full window.
func TestExtendExtractionMatchesExtract(t *testing.T) {
	sc := registry.MustExtraction("kx-perfect")
	ext := sc.Extraction
	ext.Runs = 8
	runner := workload.Runner{Workers: 4}
	direct, err := runner.Extract(ext)
	if err != nil {
		t.Fatal(err)
	}
	dj, _ := json.Marshal(direct.Verdicts)
	directRuns := transformed(direct)

	var st *workload.ExtractionState
	for _, k := range []int{0, 1, ext.Runs / 2, ext.Runs - 1, ext.Runs} {
		st = &workload.ExtractionState{}
		if k > 0 {
			prefix := ext
			prefix.Runs = k
			if _, err := runner.ExtendExtraction(prefix, st); err != nil {
				t.Fatalf("k=%d: prefix: %v", k, err)
			}
		}
		grown, err := runner.ExtendExtraction(ext, st)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if gj, _ := json.Marshal(grown.Verdicts); string(gj) != string(dj) {
			t.Fatalf("k=%d: verdicts differ from Extract's", k)
		}
		ge, _ := json.Marshal(grown.ExcludedSeeds)
		de, _ := json.Marshal(direct.ExcludedSeeds)
		if grown.Kept != direct.Kept || grown.Excluded != direct.Excluded || grown.Stats != direct.Stats || string(ge) != string(de) {
			t.Fatalf("k=%d: pipeline aggregates differ: %+v vs %+v", k, grown, direct)
		}
		for i, run := range transformed(grown) {
			if runDigest(t, run) != runDigest(t, directRuns[i]) {
				t.Fatalf("k=%d: transformed run %d differs", k, i)
			}
		}
	}

	short := ext
	short.Runs = 3
	if _, err := runner.ExtendExtraction(short, st); err == nil {
		t.Fatalf("a state covering more seeds than the window did not fail")
	}
}

// TestRecordedRunsIdenticalAcrossEnginesAndSchedules hashes every recorded
// event log: a fresh engine per run, one serially reused engine, and a pool of
// racing workers (each with its own engine, pulling jobs in whatever order the
// scheduler produces) must all record the same runs for the same (spec, seed)
// pairs.
func TestRecordedRunsIdenticalAcrossEnginesAndSchedules(t *testing.T) {
	type job struct {
		scenario int
		seed     int64
	}
	var jobs []job
	for si := range determinismScenarios {
		for _, seed := range workload.Seeds(7, 4) {
			jobs = append(jobs, job{scenario: si, seed: seed})
		}
	}
	specs := make([]workload.Spec, len(determinismScenarios))
	for i, name := range determinismScenarios {
		specs[i] = registry.MustScenario(name).Spec
	}

	// Reference digests: a fresh engine for every run.
	want := make([]string, len(jobs))
	for i, j := range jobs {
		res, err := workload.Execute(specs[j.scenario], j.seed)
		if err != nil {
			t.Fatalf("fresh execute: %v", err)
		}
		want[i] = runDigest(t, res.Run)
	}

	// One engine reused across all runs, in order.
	eng := sim.NewEngine()
	for i, j := range jobs {
		res, err := workload.ExecuteWith(eng, specs[j.scenario], j.seed)
		if err != nil {
			t.Fatalf("reused execute: %v", err)
		}
		if got := runDigest(t, res.Run); got != want[i] {
			t.Errorf("reused engine diverged on scenario %s seed %d",
				determinismScenarios[j.scenario], j.seed)
		}
	}

	// A racing worker pool, as the parallel sweep runner schedules it.
	got := make([]string, len(jobs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			weng := sim.NewEngine()
			for i := range next {
				j := jobs[i]
				res, err := workload.ExecuteWith(weng, specs[j.scenario], j.seed)
				if err != nil {
					t.Errorf("parallel execute: %v", err)
					continue
				}
				got[i] = runDigest(t, res.Run)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, j := range jobs {
		if got[i] != want[i] {
			t.Errorf("parallel worker diverged on scenario %s seed %d",
				determinismScenarios[j.scenario], j.seed)
		}
	}
}

// TestSweepAllMatchesPerTaskSweeps checks that batching tasks into one pool
// does not change any task's aggregate.
func TestSweepAllMatchesPerTaskSweeps(t *testing.T) {
	seeds := workload.Seeds(99, 5)
	var tasks []workload.Task
	for _, name := range determinismScenarios {
		sc := registry.MustScenario(name)
		tasks = append(tasks, workload.Task{Spec: sc.Spec, Seeds: seeds, Eval: sc.Eval})
	}
	batched, err := workload.Runner{Workers: 3}.SweepAll(tasks)
	if err != nil {
		t.Fatalf("batched sweep: %v", err)
	}
	for i, task := range tasks {
		solo, err := workload.Sweep(task.Spec, task.Seeds, task.Eval)
		if err != nil {
			t.Fatalf("solo sweep: %v", err)
		}
		if outcomesJSON(t, batched[i]) != outcomesJSON(t, solo) {
			t.Errorf("task %d (%s): batched aggregate differs from solo sweep", i, task.Spec.Name)
		}
	}
}

// TestPooledEnginesRecordIdenticalRuns is the engine free list's row of the
// contract: Runner passes borrow their engines from one package-level pool, so
// a pass inherits engines that last ran whatever the previous pass ran.  A
// scenario recorded right after the pooled engines ran a different spec with a
// different N must hash exactly as on a fresh engine — in both directions, and
// for every worker count (one worker runs inline, more race for the pool).
// Two sequences of passes run at once, so passes also borrow and return
// engines concurrently.
func TestPooledEnginesRecordIdenticalRuns(t *testing.T) {
	a, b := registry.MustScenario("consensus-majority").Spec, registry.MustScenario("prop4.1-tuseful-udc").Spec
	if a.N == b.N {
		t.Fatalf("the two scenarios must differ in N (both %d): pick another pair", a.N)
	}
	seeds := workload.Seeds(31, 5)
	fresh := func(spec workload.Spec) []string {
		digests := make([]string, len(seeds))
		for i, seed := range seeds {
			res, err := workload.Execute(spec, seed)
			if err != nil {
				t.Fatalf("fresh execute: %v", err)
			}
			digests[i] = runDigest(t, res.Run)
		}
		return digests
	}
	want := map[string][]string{a.Name: fresh(a), b.Name: fresh(b)}
	for _, workers := range []int{1, 2, 4} {
		runner := workload.Runner{Workers: workers}
		orders := [][]workload.Spec{{a, b, a, b}, {b, a, b, a}}
		got := make([][][]workload.SeedRun, len(orders))
		var wg sync.WaitGroup
		for o, order := range orders {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, spec := range order {
					runs, err := runner.RunAll([]workload.Task{{Spec: spec, Seeds: seeds}})
					if err != nil {
						t.Errorf("%s (%d workers): %v", spec.Name, workers, err)
						return
					}
					got[o] = append(got[o], runs[0])
				}
			}()
		}
		wg.Wait()
		for o, order := range orders {
			for p, runs := range got[o] {
				for i := range runs {
					if runDigest(t, runs[i].Run) != want[order[p].Name][i] {
						t.Errorf("%s seed %d (%d workers): run on a pooled engine differs from a fresh engine's", order[p].Name, seeds[i], workers)
					}
				}
			}
		}
	}
}
