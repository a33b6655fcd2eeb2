package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// opListDigest hashes what a workload's generator emits for a seed at full
// size: every field that reaches the program under test.
func opListDigest(workload string, seed int64) string {
	h := fnv.New64a()
	sweeps := func(ops []sweepOp) {
		for _, op := range ops {
			fmt.Fprintf(h, "%d/%d/%d/%s/%d/%v;", op.scenario, op.pos, op.count, op.wire, op.class, op.verify)
		}
	}
	offline := func(ops []offlineOp) {
		for _, op := range ops {
			fmt.Fprintf(h, "%d/%d/%v;", op.kind, op.baseSeed, op.verify)
		}
	}
	sz := fullSizes
	switch workload {
	case wlSweepOffline:
		offline(offlineOps(seed, workload, sz.SweepRounds, len(sweepScenarios), sz.VerifyEvery))
	case wlExtractOffline:
		offline(offlineOps(seed, workload, sz.ExtractPerKind, len(extractKinds), sz.VerifyEvery))
	case wlServeWarm:
		g := newCorpusGen(seed, workload, sz)
		sweeps(g.hot)
		sweeps(g.warmRound())
		sweeps(g.warmRound())
	case wlServeDisk:
		g := newCorpusGen(seed, workload, sz)
		sweeps(g.diskRound())
		sweeps(g.diskRound())
	default:
		sweeps(coldOps(sz, 0, seed))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestOpListsArePureFunctionsOfSeed pins every generator: the same seed
// replays the same list (golden digest for seed 1), another seed draws
// another.
func TestOpListsArePureFunctionsOfSeed(t *testing.T) {
	golden := map[string]string{
		wlSweepOffline:   "3e60a26caf0bd1d2",
		wlExtractOffline: "0dca7d88f6c8d795",
		wlServeWarm:      "9e6e3015c06f708d",
		wlServeDisk:      "db1a03c11e3361b8",
		wlServeCold:      "e4de0bee2f855f02",
		wlFleet3:         "e4de0bee2f855f02",
	}
	for _, w := range workloads {
		got := opListDigest(w.name, 1)
		if got != opListDigest(w.name, 1) {
			t.Errorf("%s: two generations from seed 1 differ", w.name)
		}
		if got != golden[w.name] {
			t.Errorf("%s: op-list digest for seed 1 = %s, golden %s (a changed generator invalidates recorded baselines)", w.name, got, golden[w.name])
		}
		if got == opListDigest(w.name, 2) {
			t.Errorf("%s: seeds 1 and 2 generate the same list", w.name)
		}
	}
	if opListDigest(wlServeCold, 1) != opListDigest(wlFleet3, 1) {
		t.Error("fleet-3 must replay serve-cold's op list")
	}
}

// TestNovelWindows: novel windows are pairwise distinct across rounds, never
// alias a 64-seed window, and lie fully inside the primed range.
func TestNovelWindows(t *testing.T) {
	for _, workload := range []string{wlServeWarm, wlServeDisk} {
		g := newCorpusGen(7, workload, fullSizes)
		seen := make(map[windowKey]bool)
		novel := 0
		for round := 0; round < 6; round++ {
			ops := g.diskRound()
			if workload == wlServeWarm {
				ops = g.warmRound()
			}
			for i, op := range ops {
				if op.pos < 0 || op.pos+op.count > fullSizes.CorpusPositions || op.scenario >= corpusScenarios {
					t.Fatalf("%s op %d (%s) leaves the primed range", workload, i, op)
				}
				if op.class != classHitAssembled {
					if op.count != windowSize {
						t.Fatalf("%s op %d: repeat of a %d-seed window", workload, i, op.count)
					}
					continue
				}
				novel++
				k := windowKey{op.scenario, op.pos, op.count}
				if seen[k] {
					t.Fatalf("%s: novel window %v issued twice", workload, k)
				}
				seen[k] = true
				if op.count == windowSize || op.count < 33 || op.count > 95 {
					t.Fatalf("%s: novel window of %d seeds", workload, op.count)
				}
			}
			if workload == wlServeWarm && novel*10 != (round+1)*fullSizes.WarmOps {
				t.Fatalf("serve-warm: %d novel ops after %d rounds, want exactly a tenth", novel, round+1)
			}
		}
	}
}

// TestColdOpsRaceInPairs: ops 2k and 2k+1 are adjacent windows of one
// scenario, and every position is covered by the list exactly as a sliding
// window covers it.
func TestColdOpsRaceInPairs(t *testing.T) {
	ops := coldOps(fullSizes, 0, 1)
	if len(ops) != opsPerRound(wlServeCold, fullSizes) {
		t.Fatalf("%d cold ops, want %d", len(ops), opsPerRound(wlServeCold, fullSizes))
	}
	verified := 0
	for k := 0; k+1 < len(ops); k += 2 {
		a, b := ops[k], ops[k+1]
		if a.scenario != b.scenario || b.pos != a.pos+windowSize/2 {
			t.Fatalf("ops %d,%d are not adjacent windows of one scenario: %s | %s", k, k+1, a, b)
		}
	}
	for _, op := range ops {
		if op.verify {
			verified++
		}
	}
	if want := (len(ops) + fullSizes.VerifyEvery - 1) / fullSizes.VerifyEvery; verified != want {
		t.Fatalf("%d verified ops, want %d (1 in %d)", verified, want, fullSizes.VerifyEvery)
	}
}

// TestTailPercentileRule: every workload's frozen percentile leaves ten
// samples beyond it in the fewest ops a run can pool.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		samples int
		pct     float64
		want    float64
	}{{40, 75, 10}, {39, 75, 9.75}, {100, 90, 10}, {1000, 99, 10}, {10000, 99.9, 10}, {1200, 99, 12}} {
		if got := samplesBeyond(c.samples, c.pct); got != c.want {
			t.Errorf("samplesBeyond(%d, p%v) = %v, want %v", c.samples, c.pct, got, c.want)
		}
	}
	// 48 ops a round cannot carry a p90: three rounds are pooled.
	if got := roundsForTail(workloadSpec{name: wlSweepOffline, tailPct: 90}, fullSizes); got != 3 {
		t.Errorf("sweep-offline needs %d rounds for p90, want 3", got)
	}
	for _, w := range workloads {
		pooled := roundsForTail(w, fullSizes) * opsPerRound(w.name, fullSizes)
		if beyond := samplesBeyond(pooled, w.tailPct); beyond < 10 {
			t.Errorf("%s: p%v of %d pooled ops leaves %.1f samples beyond it, want >= 10", w.name, w.tailPct, pooled, beyond)
		}
	}
}

func TestPercentilesAndQuartiles(t *testing.T) {
	vs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(vs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %v, %v, want 1, 3", q1, q3)
	}
	if got := median(vs); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := percentile(vs, 90); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := percentile(vs, 50); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
}

func TestParseServerTiming(t *testing.T) {
	s := parseServerTiming(`resolve;dur=0.012, claim;dur=0.100, compute;dur=2.000, remote;dur=1.000, assemble;dur=0.030, persist;dur=0.500, total;dur=4.000, cache;desc="miss"`)
	if s.resolve != 12 || s.claim != 100 || s.compute != 2000 || s.assemble != 30 || s.persist != 500 || s.total != 4000 {
		t.Fatalf("stages = %+v", s)
	}
	if math.Abs(s.staged-3642) > 1e-9 {
		t.Fatalf("staged = %v, want 3642 (every stage but total)", s.staged)
	}
}

// TestSelfTimes: a parent's self time is its duration minus the union of its
// children, so overlapping children are not subtracted twice.
func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "bench.round", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "server.sweep", Start: 10, End: 60},
		{ID: 3, Parent: 1, Name: "server.sweep", Start: 40, End: 90},
		{ID: 4, Parent: 2, Name: "store.GetMulti", Start: 20, End: 30},
	}
	self := tr.selfTimes()
	if self["bench"] != 20 || self["server"] != 90 || self["store"] != 10 {
		t.Fatalf("self times = %v, want bench 20, server 90, store 10", self)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{name: "op_p50_ms", better: "lower", bound: 0.10}
	higher := metricSpec{name: "seeds_per_s", better: "higher", bound: 0.10}
	steady := []float64{100, 101, 99}
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want verdict
	}{
		{"same", lower, steady, []float64{100, 102, 99}, verdictWithin},
		{"slower latency", lower, steady, []float64{120, 121, 119}, verdictWorse},
		{"faster latency", lower, steady, []float64{80, 81, 79}, verdictBetter},
		{"lower throughput", higher, steady, []float64{80, 81, 79}, verdictWorse},
		{"higher throughput", higher, steady, []float64{120, 121, 119}, verdictBetter},
		{"noisy, overlapping", lower, []float64{80, 100, 130}, []float64{90, 105, 125}, verdictUnresolved},
		{"noisy, but every run better", lower, []float64{100, 130, 160}, []float64{50, 60, 90}, verdictBetter},
	} {
		if got := judge(c.m, c.a, c.b).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareFiles: one row per workload, a worse cell or differing exact
// outputs fail the comparison, identical sets pass.
func TestCompareFiles(t *testing.T) {
	set := func(p50 float64, digest string) *benchmarkFile {
		f := &benchmarkFile{Seed: 1, Sizes: fullSizes}
		for _, w := range workloads {
			for i := 0; i < 3; i++ {
				m := map[string]float64{}
				for _, e := range endToEnd {
					m[e.name] = 100 + float64(i)
				}
				m["op_p50_ms"] = p50 + float64(i)
				f.Runs = append(f.Runs, runRecord{Workload: w.name, Correct: true, Attempted: 10, Digest: digest, Metrics: m})
			}
		}
		return f
	}
	var out bytes.Buffer
	if code := compareSets(set(100, "d"), set(100, "d"), &out); code != 0 {
		t.Fatalf("identical sets: exit %d\n%s", code, out.String())
	}
	for _, w := range workloads {
		if n := strings.Count(out.String(), "\n"+w.name+" "); n != 1+len(endToEnd) {
			t.Errorf("%s: %d lines, want one summary row and %d detail lines", w.name, n, len(endToEnd))
		}
	}
	out.Reset()
	if code := compareSets(set(100, "d"), set(150, "d"), &out); code != 1 || !strings.Contains(out.String(), "worse +49.5%") {
		t.Fatalf("50%% slower p50: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareSets(set(100, "d"), set(100, "e"), &out); code != 1 || !strings.Contains(out.String(), "DIFFER") {
		t.Fatalf("differing digests: exit %d\n%s", code, out.String())
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSONMatchesSpec keeps BENCHMARK.json and spec.go in step.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, want %s: %s", i, b.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if got := b.EndToEnd[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end_to_end %d = %+v, want %+v", i, got, m)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, want %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := b.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per_layer %d = %+v, want %+v", i, got, m)
		}
	}
	if len(perLayer) != 77 {
		t.Errorf("%d per-layer metrics, ISSUE 11 names 77", len(perLayer))
	}
}

// TestSamplePairs: the ladder's input sample holds distinct (spec, seed)
// pairs of the workload's own op list, from more than one scenario.
func TestSamplePairs(t *testing.T) {
	for _, w := range workloads {
		pairs := samplePairs(runConfig{workload: w.name, seed: 1, sz: fullSizes}, ladderPairs)
		if len(pairs) != ladderPairs {
			t.Errorf("%s: %d pairs, want %d", w.name, len(pairs), ladderPairs)
		}
		seen := make(map[string]bool)
		scenarios := make(map[string]bool)
		for _, p := range pairs {
			k := fmt.Sprintf("%s/%d", p.sc.Name, p.seed)
			if seen[k] {
				t.Errorf("%s: pair %s sampled twice", w.name, k)
			}
			seen[k] = true
			scenarios[p.sc.Name] = true
		}
		if len(scenarios) < 3 {
			t.Errorf("%s: sample spans %d scenarios, want the list's mix", w.name, len(scenarios))
		}
	}
}

// smokeRun runs workload at smoke size.  afterSetup, when set, is handed each
// environment the run sets up before any op is issued.
func smokeRun(t *testing.T, workload string, ladder bool, afterSetup func(env)) *runReport {
	t.Helper()
	cfg := smokeConfig(runConfig{workload: workload, seed: 1, c: 2, outDir: t.TempDir(), ladder: ladder})
	spec, _ := lookupWorkload(workload)
	impl := workloadImpls[workload]
	if setup := impl.setup; afterSetup != nil {
		impl.setup = func(cfg runConfig) (env, error) {
			e, err := setup(cfg)
			if err == nil {
				afterSetup(e)
			}
			return e, err
		}
	}
	rep, err := runImpl(cfg, spec, impl)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if len(tempDirs.dirs) != 0 {
		t.Errorf("%s left temp-dir stores behind: %v", workload, tempDirs.dirs)
	}
	return rep
}

// TestSmoke runs all six workloads at smoke size with every correctness gate
// on, and checks the predictions ISSUE 11 records.
func TestSmoke(t *testing.T) {
	start := time.Now()
	reports := make(map[string]*runReport)
	for _, w := range workloads {
		// The ladder's probes are the same on every workload but for their
		// sampled inputs (TestSamplePairs); two workloads exercise them.
		rep := smokeRun(t, w.name, w.name == wlExtractOffline || w.name == wlServeWarm, nil)
		reports[w.name] = rep
		t.Logf("%s: %.2fs", w.name, rep.elapsed.Seconds())
		if !rep.correct() {
			t.Errorf("%s: %d of %d ops failed, breaches %v", w.name, rep.failed, rep.attempted, rep.breaches)
		}
		if rep.attempted != opsPerRound(w.name, smokeSizes) {
			t.Errorf("%s: %d ops attempted, want %d", w.name, rep.attempted, opsPerRound(w.name, smokeSizes))
		}
		if _, err := metricsObject(perLayer, rep.values); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		if rep.values["store.corrupt_entries"] != 0 {
			t.Errorf("%s: store.corrupt_entries = %v", w.name, rep.values["store.corrupt_entries"])
		}
	}
	v := func(workload, metric string) float64 { return reports[workload].values[metric] }
	for _, w := range []string{wlSweepOffline, wlExtractOffline, wlServeWarm, wlServeDisk} {
		if got := v(w, "server.seeds_computed"); got != 0 {
			t.Errorf("%s: server.seeds_computed = %v, want 0 (sim idle)", w, got)
		}
	}
	if got := v(wlServeWarm, "store.mem_hit_ratio"); got != 1 {
		t.Errorf("serve-warm: store.mem_hit_ratio = %v, want 1", got)
	}
	if v(wlServeWarm, "server.hit_window_us") <= 0 || v(wlServeWarm, "server.hit_assembled_us") <= v(wlServeWarm, "server.hit_window_us") {
		t.Errorf("serve-warm: window hit %v us, assembled hit %v us: want 0 < window < assembled",
			v(wlServeWarm, "server.hit_window_us"), v(wlServeWarm, "server.hit_assembled_us"))
	}
	if got := v(wlServeCold, "server.compute_waste_ratio"); got != 0 {
		t.Errorf("serve-cold: server.compute_waste_ratio = %v, want 0", got)
	}
	if got := v(wlFleet3, "fleet.remote_seed_ratio"); got < 0.45 || got > 0.85 {
		t.Errorf("fleet-3: fleet.remote_seed_ratio = %v, want about 2/3", got)
	}
	if v(wlFleet3, "fleet.claim_failures") == 0 || v(wlFleet3, "fleet.fallback_seeds") == 0 {
		t.Errorf("fleet-3: the kill left no trace: %v claim failures, %v fallback seeds",
			v(wlFleet3, "fleet.claim_failures"), v(wlFleet3, "fleet.fallback_seeds"))
	}
	// Same ops, same bytes: a fleet with a dead peer serves what one cold
	// daemon serves.
	if reports[wlFleet3].digest != reports[wlServeCold].digest {
		t.Errorf("fleet-3 digest %016x differs from serve-cold's %016x", reports[wlFleet3].digest, reports[wlServeCold].digest)
	}
	t.Logf("smoke: %.1fs", time.Since(start).Seconds())
}

// TestCorruptReferenceFailsRun: one reference that differs from the delivered
// bytes fails that op, the run and the exit code — offline and serving.
func TestCorruptReferenceFailsRun(t *testing.T) {
	// corruptOne flips a bit in the reference checksum of the first verified op.
	corruptOne := func(e env) {
		switch e := e.(type) {
		case *offlineEnv:
			for i := range e.ops {
				if e.ops[i].verify {
					e.ops[i].want ^= 1
					return
				}
			}
		case *serveEnv:
			for i := range e.ops {
				if e.ops[i].verify {
					e.ops[i].want ^= 1
					return
				}
			}
		}
	}
	for _, workload := range []string{wlSweepOffline, wlServeCold} {
		rep := smokeRun(t, workload, false, corruptOne)
		if rep.failed != 1 || rep.correct() {
			t.Errorf("%s: %d ops failed, correct = %v; want the op with the corrupted reference to fail the run", workload, rep.failed, rep.correct())
		}
		var out bytes.Buffer
		if code := emit(&out, rep, true); code == 0 {
			t.Errorf("%s: exit code 0 on a correctness breach", workload)
		}
		if !strings.Contains(out.String(), `"correct":false`) {
			t.Errorf("%s: result line does not say correct:false", workload)
		}
	}
}
