package epistemic_test

import (
	"testing"

	"repro/internal/epistemic"
	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/workload"
)

// kxSourceRuns records count seeds of the kx-perfect extraction's source,
// the standing n=7 sample every kx-* pipeline indexes.
func kxSourceRuns(b *testing.B, count int) model.System {
	b.Helper()
	ext := registry.MustExtraction("kx-perfect").Extraction
	runs := make(model.System, 0, count)
	for _, seed := range workload.Seeds(ext.BaseSeed, count) {
		res, err := workload.Execute(ext.Source, seed)
		if err != nil {
			b.Fatalf("execute seed %d: %v", seed, err)
		}
		runs = append(runs, res.Run)
	}
	return runs
}

// BenchmarkExtraction times the interned class index the extraction
// pipelines build: serially, then one process per worker (the pair shows the
// fan-out Runner.Extract gets), and a window grown from 64 to 128 runs either
// rebuilt from scratch or extended by feeding only the delta to System.Add —
// the server's extraction-source reuse path when a cached window grows.
func BenchmarkExtraction(b *testing.B) {
	const runs = 64
	grown := kxSourceRuns(b, 2*runs)
	window := grown[:runs]

	b.Run("index/n=7/runs=64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys := epistemic.NewSystem(window)
			if sys.Size() != len(window) {
				b.Fatalf("index dropped runs")
			}
		}
	})
	b.Run("index-parallel/n=7/runs=64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sys := &epistemic.System{}
			sys.AddParallel(0, window)
			if sys.Size() != len(window) {
				b.Fatalf("index dropped runs")
			}
		}
	})
	b.Run("index-rebuild/n=7/runs=128", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sys := epistemic.NewSystem(grown)
			if sys.Size() != len(grown) {
				b.Fatalf("index dropped runs")
			}
		}
	})
	b.Run("index-extend/n=7/runs=64to128", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			sys := epistemic.NewSystem(window)
			b.StartTimer()
			sys.Add(grown[runs:])
			if sys.Size() != len(grown) {
				b.Fatalf("index dropped runs")
			}
		}
	})
}
