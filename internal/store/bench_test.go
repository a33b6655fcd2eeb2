package store_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// BenchmarkCodec compares the binary run container against the JSON trace
// encoding on the same corpus (the throughput scenario, 16 seeds), reporting
// bytes per run for both so the size ratio sits next to the speed ratio.
func BenchmarkCodec(b *testing.B) {
	spec := registry.MustScenario("throughput").Spec
	runs := make(model.System, 0, 16)
	for _, seed := range workload.Seeds(1, 16) {
		res, err := workload.Execute(spec, seed)
		if err != nil {
			b.Fatalf("simulate corpus: %v", err)
		}
		runs = append(runs, res.Run)
	}

	var binBytes, jsonBytes int
	encoded := make([][]byte, len(runs))
	jsonDocs := make([][]byte, len(runs))
	for i, run := range runs {
		encoded[i] = store.EncodeRun(run)
		binBytes += len(encoded[i])
		var buf bytes.Buffer
		if err := trace.EncodeJSON(&buf, run); err != nil {
			b.Fatal(err)
		}
		jsonDocs[i] = buf.Bytes()
		jsonBytes += buf.Len()
	}

	b.Run(fmt.Sprintf("encode-bin/runs=%d", len(runs)), func(b *testing.B) {
		b.ReportMetric(float64(binBytes)/float64(len(runs)), "bytes/run")
		for i := 0; i < b.N; i++ {
			for _, run := range runs {
				if out := store.EncodeRun(run); len(out) == 0 {
					b.Fatal("empty encoding")
				}
			}
		}
	})
	b.Run(fmt.Sprintf("encode-json/runs=%d", len(runs)), func(b *testing.B) {
		b.ReportMetric(float64(jsonBytes)/float64(len(runs)), "bytes/run")
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			for _, run := range runs {
				buf.Reset()
				if err := trace.EncodeJSON(&buf, run); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	// decode-bin measures the serving path: one decoder draining the batch
	// through its reusable buffers, as the server's window assembly does
	// with a pooled one.  decode-bin-owned measures store.DecodeRun, which
	// adds a compact owning copy per run.
	b.Run(fmt.Sprintf("decode-bin/runs=%d", len(runs)), func(b *testing.B) {
		b.ReportAllocs()
		dec := store.NewRunDecoder()
		for i := 0; i < b.N; i++ {
			for _, data := range encoded {
				if _, err := dec.DecodeRun(data); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run(fmt.Sprintf("decode-bin-owned/runs=%d", len(runs)), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, data := range encoded {
				if _, err := store.DecodeRun(data); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run(fmt.Sprintf("decode-json/runs=%d", len(runs)), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, doc := range jsonDocs {
				if _, err := trace.DecodeJSON(bytes.NewReader(doc)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
