package workload_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/workload"
)

// extractionScenarios are the pipelines the determinism regression locks
// down: one per construction, each with its own source protocol, detector and
// knowledge-query signature (KnownCrashed for P1-P3, MaxKnownCrashedIn for
// P3'), sampled small enough to keep the test fast.
var extractionScenarios = []string{"kx-perfect", "kx-tuseful"}

// smallExtraction shrinks a catalogued pipeline's sample for testing.
func smallExtraction(t *testing.T, name string) workload.Extraction {
	t.Helper()
	ext := registry.MustExtraction(name).Extraction
	ext.Runs = 6
	return ext
}

// transformed rebuilds an extraction's checked runs f(r) from its index, as
// fdextract -o does: the pipeline checks each f(r) and keeps none.
func transformed(res *workload.ExtractionResult) model.System {
	if res.Extraction.Mode == workload.ExtractPerfect {
		return core.SimulatePerfectDetector(res.System)
	}
	return core.SimulateTUsefulDetector(res.System)
}

// extractionDigest hashes the full pipeline output: every transformed run's
// event log and every per-run property verdict.
func extractionDigest(t *testing.T, res *workload.ExtractionResult) string {
	t.Helper()
	raw, err := json.Marshal(struct {
		Kept, Excluded int
		Excl           []int64
		Simulated      any
		Verdicts       []workload.ExtractionVerdict
	}{res.Kept, res.Excluded, res.ExcludedSeeds, transformed(res), res.Verdicts})
	if err != nil {
		t.Fatalf("marshal extraction result: %v", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// TestExtractionByteIdenticalAcrossWorkerCounts locks the pipeline's
// determinism contract: the transformed runs and fd property verdicts must be
// byte-identical to the single-worker execution for every worker count, and
// for a reused runner.
func TestExtractionByteIdenticalAcrossWorkerCounts(t *testing.T) {
	for _, name := range extractionScenarios {
		ext := smallExtraction(t, name)
		serial, err := workload.Runner{Workers: 1}.Extract(ext)
		if err != nil {
			t.Fatalf("%s: serial extraction: %v", name, err)
		}
		want := extractionDigest(t, serial)
		for _, workers := range []int{1, 2, 8} {
			runner := workload.Runner{Workers: workers}
			res, err := runner.Extract(ext)
			if err != nil {
				t.Fatalf("%s: extraction (%d workers): %v", name, workers, err)
			}
			if got := extractionDigest(t, res); got != want {
				t.Errorf("%s: %d-worker extraction differs from serial", name, workers)
			}
			// Extract must be a pure function of the pipeline: invoking the
			// same runner value again yields the same bytes.
			again, err := runner.Extract(ext)
			if err != nil {
				t.Fatalf("%s: repeated extraction (%d workers): %v", name, workers, err)
			}
			if got := extractionDigest(t, again); got != want {
				t.Errorf("%s: repeated %d-worker extraction differs from serial", name, workers)
			}
		}
	}
}

// TestExtractionVerdictsAlignWithSimulatedRuns checks the result's shape
// invariants: one verdict per transformed run, seeds strictly increasing in
// sample order, and kept+excluded accounting consistent.
func TestExtractionVerdictsAlignWithSimulatedRuns(t *testing.T) {
	ext := smallExtraction(t, "kx-perfect")
	res, err := workload.Runner{Workers: 4}.Extract(ext)
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	simulated := transformed(res)
	if len(res.Verdicts) != len(simulated) {
		t.Fatalf("%d verdicts for %d simulated runs", len(res.Verdicts), len(simulated))
	}
	if res.Kept != len(simulated) || res.Kept+res.Excluded != ext.Runs {
		t.Fatalf("accounting wrong: kept=%d excluded=%d simulated=%d runs=%d",
			res.Kept, res.Excluded, len(simulated), ext.Runs)
	}
	for i := 1; i < len(res.Verdicts); i++ {
		if res.Verdicts[i].Seed <= res.Verdicts[i-1].Seed {
			t.Fatalf("verdict seeds out of order at %d: %d after %d", i, res.Verdicts[i].Seed, res.Verdicts[i-1].Seed)
		}
	}
	if res.System == nil || res.System.Size() != res.Kept {
		t.Fatalf("result system missing or mis-sized")
	}
	if res.Stats.Runs != res.Kept || res.Stats.Classes == 0 || res.Stats.Points == 0 {
		t.Fatalf("index stats implausible: %+v", res.Stats)
	}
}

// TestExtractionRejectsBadSpecs covers the error paths.
func TestExtractionRejectsBadSpecs(t *testing.T) {
	ext := smallExtraction(t, "kx-perfect")
	ext.Runs = 0
	if _, err := (workload.Runner{}).Extract(ext); err == nil {
		t.Fatalf("expected an error for zero runs")
	}
	ext = smallExtraction(t, "kx-perfect")
	ext.Mode = workload.ExtractionMode("nonsense")
	if _, err := (workload.Runner{}).Extract(ext); err == nil {
		t.Fatalf("expected an error for an unknown mode")
	}
}

// TestQuickExtractMatchesSerialAcrossWorkerCounts is ROADMAP item 4's
// differential property for the pipeline, whose every stage now fans out:
// for a random catalogued pipeline, base seed, sample size and worker count,
// Runner{Workers: w}.Extract delivers the bytes Runner{Workers: 1}.Extract
// does — the extraction record the serving layer stores, and the transformed
// runs the record leaves out.  Run it under -race.
func TestQuickExtractMatchesSerialAcrossWorkerCounts(t *testing.T) {
	scenarios := []string{"kx-perfect", "kx-tuseful", "kx-perfect-cascade"}
	bytesOf := func(res *workload.ExtractionResult) (record, simulated [32]byte) {
		return sha256.Sum256(store.EncodeExtractionRecord(store.NewExtractionRecord("", false, res))),
			sha256.Sum256(store.EncodeSystem(transformed(res)))
	}
	property := func(scenario, runs, workers uint8, baseSeed uint32) bool {
		ext := registry.MustExtraction(scenarios[int(scenario)%len(scenarios)]).Extraction
		ext.Runs, ext.BaseSeed = 2+int(runs%6), int64(baseSeed)
		serial, errSerial := workload.Runner{Workers: 1}.Extract(ext)
		parallel, errParallel := workload.Runner{Workers: 2 + int(workers%7)}.Extract(ext)
		if errSerial != nil || errParallel != nil {
			// A sample with no UDC-satisfying run fails the same way on both.
			return errSerial != nil && errParallel != nil && errSerial.Error() == errParallel.Error()
		}
		wantRecord, wantSimulated := bytesOf(serial)
		gotRecord, gotSimulated := bytesOf(parallel)
		return gotRecord == wantRecord && gotSimulated == wantSimulated
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// extractAllocPerSeed returns the bytes a two-worker Extract of ext allocates
// per sampled seed.
func extractAllocPerSeed(t *testing.T, ext workload.Extraction) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := (workload.Runner{Workers: 2}).Extract(ext); err != nil {
		t.Fatalf("extract: %v", err)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(ext.Runs)
}

// TestExtractAllocPerSeed pins what a warmed extraction allocates per seed.
// The transform and the property check are one stage: each f(r) is recorded
// into its worker's arena, checked there and dropped, and the arenas outlive
// the pass on a free list.  While every f(r) was built into a fresh slab and
// kept until the pass ended, this 64-seed kx-perfect pass allocated about
// 3206 KiB a seed; fused, about 1575 (1594–1630 re-measured), most of it the
// source runs at 176 bytes an event and the epistemic index.  With 80-byte
// events it allocates about 830 (827–837).  The bar sits between the last
// two, so a return to 176-byte events fails it.  The best of a few tries is
// taken, so a stray allocation elsewhere in the process does not decide it.
func TestExtractAllocPerSeed(t *testing.T) {
	const before, bound = 1594 << 10, 1200 << 10 // bytes per seed
	ext := registry.MustExtraction("kx-perfect").Extraction
	ext.Runs = 64
	extractAllocPerSeed(t, ext) // warm-up
	best := extractAllocPerSeed(t, ext)
	for try := 1; try < 4 && best > bound; try++ {
		best = min(best, extractAllocPerSeed(t, ext))
	}
	t.Logf("warmed Runner.Extract: %.1f KiB per seed (%d with 176-byte events; bar %d)", float64(best)/1024, before>>10, bound>>10)
	if best > bound {
		t.Fatalf("a warmed %d-seed Runner.Extract allocates %d bytes per seed, want <= %d: the events grew, or the pass is keeping its transformed runs or not reusing its arenas", ext.Runs, best, bound)
	}
}
