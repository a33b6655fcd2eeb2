package repro_test

// Serving-layer benchmarks (PR 4): the binary run codec against the JSON
// trace path, cold-versus-warm daemon sweep latency, and scheduler
// throughput under concurrent duplicate requests.  BenchmarkCodec,
// BenchmarkServerSweep and BenchmarkSchedulerDuplicates feed BENCH_<n>.json
// via `make bench` alongside the simulation benchmarks.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// codecCorpus simulates a fixed corpus of recorded runs for the codec
// benchmarks: the throughput scenario's shape, 16 seeds.
func codecCorpus(b *testing.B) model.System {
	b.Helper()
	spec := registry.MustScenario("throughput").Spec
	runs := make(model.System, 0, 16)
	for _, seed := range workload.Seeds(1, 16) {
		res, err := workload.Execute(spec, seed)
		if err != nil {
			b.Fatalf("simulate corpus: %v", err)
		}
		runs = append(runs, res.Run)
	}
	return runs
}

// BenchmarkCodec compares the binary run container against the JSON trace
// encoding on the same corpus, reporting bytes per run for both so the size
// ratio lands in the benchmark snapshot next to the speed ratio.
func BenchmarkCodec(b *testing.B) {
	runs := codecCorpus(b)

	var binBytes, jsonBytes int
	encoded := make([][]byte, len(runs))
	var jsonBuf bytes.Buffer
	for i, run := range runs {
		encoded[i] = store.EncodeRun(run)
		binBytes += len(encoded[i])
		jsonBuf.Reset()
		if err := trace.EncodeJSON(&jsonBuf, run); err != nil {
			b.Fatal(err)
		}
		jsonBytes += jsonBuf.Len()
	}
	jsonDocs := make([][]byte, len(runs))
	for i, run := range runs {
		var buf bytes.Buffer
		if err := trace.EncodeJSON(&buf, run); err != nil {
			b.Fatal(err)
		}
		jsonDocs[i] = buf.Bytes()
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
		for i := 0; i < b.N; i++ {
			for _, run := range runs {
				jsonBuf.Reset()
				if err := trace.EncodeJSON(&jsonBuf, run); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	// decode-bin measures the serving path: a pooled decoder draining the
	// batch through its reusable buffers, as GetMulti and the scheduler's
	// partial-hit assembly do.  decode-bin-owned measures store.DecodeRun,
	// which adds a compact owning copy per run — the historical measurement.
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

// newBenchServer assembles a memory-backed daemon for the serving
// benchmarks.
func newBenchServer(b *testing.B) (*server.Server, *httptest.Server) {
	b.Helper()
	st, err := store.Open("", store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := server.New(server.Config{Store: st})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

func benchGet(b *testing.B, url string) {
	b.Helper()
	resp, err := http.Get(url)
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("HTTP %d", resp.StatusCode)
	}
}

// BenchmarkServerSweep measures /v1/sweep latency cold (every request a
// fresh seed base, so the fleet simulates), warm (one hot entry served from
// the store), and assembled (windows nobody asked for before, fully covered by
// a primed corpus, so every response assembles from per-seed records with
// zero recompute and none is an exact repeat served from a window record —
// the acceptance target is ≥5× over overlap-cold, whose window is the
// assembled windows' mean size).
func BenchmarkServerSweep(b *testing.B) {
	const scenario, seeds = "prop2.3-nudc", 8
	b.Run(fmt.Sprintf("cold/%s/seeds=%d", scenario, seeds), func(b *testing.B) {
		_, ts := newBenchServer(b)
		for i := 0; i < b.N; i++ {
			benchGet(b, fmt.Sprintf("%s/v1/sweep?scenario=%s&seeds=%d&seedBase=%d", ts.URL, scenario, seeds, 1+i*100000))
		}
	})
	b.Run(fmt.Sprintf("warm/%s/seeds=%d", scenario, seeds), func(b *testing.B) {
		_, ts := newBenchServer(b)
		url := fmt.Sprintf("%s/v1/sweep?scenario=%s&seeds=%d", ts.URL, scenario, seeds)
		benchGet(b, url) // prime the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchGet(b, url)
		}
	})

	const (
		window = 64
		primed = 512 // corpus positions primed before the assembled loop
	)
	seedStride := workload.Seeds(1, 2)[1] - workload.Seeds(1, 2)[0]
	b.Run(fmt.Sprintf("overlap-cold/%s/seeds=%d", scenario, window), func(b *testing.B) {
		_, ts := newBenchServer(b)
		for i := 0; i < b.N; i++ {
			benchGet(b, fmt.Sprintf("%s/v1/sweep?scenario=%s&seeds=%d&seedBase=%d", ts.URL, scenario, window, 1+i*100000000))
		}
	})

	// A pure assembly persists its window record, so a window asked for twice
	// is an exact repeat the second time and measures the fast path instead.
	// Every window below is therefore issued once: sizes alternate around the
	// primed window size (33, 95, 34, 94, ... — never 64 itself, mean 64 over
	// any even number of requests), and each pass over the sizes moves the
	// offset by a stride coprime to the offset count.  Once all of them are
	// spent the daemon is replaced by a freshly primed one, off the clock.
	const (
		minCount, maxCount = 33, 95
		sizes              = maxCount - minCount   // 62: 33..95 without 64
		offsets            = primed - maxCount + 1 // 418 = 2·11·19
		offsetStride       = 97
	)
	b.Run(fmt.Sprintf("assembled/%s/seeds=%d..%d", scenario, minCount, maxCount), func(b *testing.B) {
		var srv *server.Server
		var ts *httptest.Server
		var asked uint64 // seeds requested of the current daemon since priming
		retire := func() {
			ss := srv.SchedulerStats()
			if ss.SeedsComputed != primed {
				b.Fatalf("assembled loop recomputed seeds: %d computed for %d primed", ss.SeedsComputed, primed)
			}
			// A window-record hit resolves no per-seed record, so this is what
			// says that no request took the fast path.
			if ss.SeedsCached != asked {
				b.Fatalf("assembled loop: %d of %d seeds came from per-seed records", ss.SeedsCached, asked)
			}
			ts.Close()
			srv.Close()
		}
		for i := 0; i < b.N; i++ {
			n := i % (sizes * offsets)
			if n == 0 {
				b.StopTimer()
				if srv != nil {
					retire()
				}
				// Sized to hold every window record the loop adds, so none of
				// the primed per-seed records is ever evicted.
				st, err := store.Open("", store.Options{MaxMemEntries: primed + window + sizes*offsets, MaxMemBytes: 1 << 30})
				if err != nil {
					b.Fatal(err)
				}
				if srv, err = server.New(server.Config{Store: st}); err != nil {
					b.Fatal(err)
				}
				ts = httptest.NewServer(srv.Handler())
				// Prime corpus positions 0..primed-1 in a few large windows.
				for base := 0; base < primed; base += window {
					benchGet(b, fmt.Sprintf("%s/v1/sweep?scenario=%s&seeds=%d&seedBase=%d", ts.URL, scenario, window, 1+int64(base)*seedStride))
				}
				asked = 0
				b.StartTimer()
			}
			k := n % sizes
			count := minCount + k/2
			if k%2 == 1 {
				count = maxCount - k/2
			}
			asked += uint64(count)
			offset := int64(n / sizes * offsetStride % offsets)
			benchGet(b, fmt.Sprintf("%s/v1/sweep?scenario=%s&seeds=%d&seedBase=%d", ts.URL, scenario, count, 1+offset*seedStride))
		}
		b.StopTimer()
		retire()
	})
}

// BenchmarkStoreMultiGet measures the batched corpus read path on
// seed-record-sized entries: the memory layer under one lock acquisition,
// and the sharded disk layer with the memory layer disabled.
func BenchmarkStoreMultiGet(b *testing.B) {
	runs := codecCorpus(b)
	const entries, batch = 1024, 256
	keys := make([]store.Key, entries)
	payloads := make([][]byte, entries)
	for i := range keys {
		keys[i] = store.SeedKeySpec("scenario:bench", "", int64(i)).Key()
		payloads[i] = store.EncodeRun(runs[i%len(runs)])
	}
	batchKeys := make([]store.Key, batch)
	for i := range batchKeys {
		batchKeys[i] = keys[(i*7)%entries]
	}

	run := func(b *testing.B, s *store.Store) {
		if failed, err := s.PutMulti(keys, payloads); failed != 0 {
			b.Fatalf("PutMulti: %d failed: %v", failed, err)
		}
		// Return retained heap to the OS and fault the batch back in before
		// timing: earlier benchmarks' multi-GB churn otherwise keeps the
		// process large enough that the container evicts these files from
		// the page cache, and the timed loop measures eviction, not reads.
		debug.FreeOSMemory()
		s.GetMulti(batchKeys)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got := s.GetMulti(batchKeys)
			for j := range got {
				if got[j] == nil {
					b.Fatalf("batch key %d missed", j)
				}
			}
		}
	}
	b.Run(fmt.Sprintf("mem/batch=%d", batch), func(b *testing.B) {
		s, err := store.Open("", store.Options{MaxMemEntries: 2 * entries, MaxMemBytes: 1 << 30})
		if err != nil {
			b.Fatal(err)
		}
		run(b, s)
	})
	b.Run(fmt.Sprintf("disk/batch=%d", batch), func(b *testing.B) {
		s, err := store.Open(b.TempDir(), store.Options{MaxMemEntries: -1})
		if err != nil {
			b.Fatal(err)
		}
		run(b, s)
	})
}

// BenchmarkSchedulerDuplicates measures the scheduler under 64 concurrent
// duplicate requests per operation: cold (each round a fresh key, so
// singleflight coalesces 64 requests onto one fleet computation) and warm
// (all 64 served from the store).
func BenchmarkSchedulerDuplicates(b *testing.B) {
	const dups = 64
	fire := func(b *testing.B, url string) {
		var wg sync.WaitGroup
		errs := make([]error, dups)
		for d := 0; d < dups; d++ {
			wg.Add(1)
			go func(d int) {
				defer wg.Done()
				resp, err := http.Get(url)
				if err != nil {
					errs[d] = err
					return
				}
				defer resp.Body.Close()
				io.Copy(io.Discard, resp.Body)
				if resp.StatusCode != http.StatusOK {
					errs[d] = fmt.Errorf("HTTP %d", resp.StatusCode)
				}
			}(d)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run(fmt.Sprintf("cold/dups=%d", dups), func(b *testing.B) {
		srv, ts := newBenchServer(b)
		for i := 0; i < b.N; i++ {
			fire(b, fmt.Sprintf("%s/v1/sweep?scenario=prop2.3-nudc&seeds=8&seedBase=%d", ts.URL, 1+i*100000))
		}
		b.StopTimer()
		ss := srv.SchedulerStats()
		if ss.Computed != uint64(b.N) {
			b.Fatalf("computed %d results for %d cold rounds (singleflight must compute once per round)", ss.Computed, b.N)
		}
		b.ReportMetric(float64(ss.Coalesced+ss.FullHits)/float64(b.N), "coalesced/op")
	})
	b.Run(fmt.Sprintf("warm/dups=%d", dups), func(b *testing.B) {
		_, ts := newBenchServer(b)
		url := ts.URL + "/v1/sweep?scenario=prop2.3-nudc&seeds=8"
		benchGet(b, url) // prime the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fire(b, url)
		}
	})
}

// benchGetWire is benchGet with an Accept header, returning the response
// body's size on the wire.
func benchGetWire(b *testing.B, url, accept string) int64 {
	b.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		b.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("HTTP %d", resp.StatusCode)
	}
	return n
}

// BenchmarkServerWire compares the negotiated response formats on /v1/sweep,
// reporting the body size on the wire alongside the latency.  The warm pair
// at a wide window is the tentpole measurement: warm-bin replays the stored
// container byte-for-byte (no decode, no re-encode), so both its latency and
// its wire size are the floor the JSON path is measured against.
func BenchmarkServerWire(b *testing.B) {
	const scenario = "prop2.3-nudc"
	formats := []struct{ name, accept string }{
		{"json", ""},
		{"bin", "application/x-udc-bin"},
		{"ndjson", "application/x-ndjson"},
		{"bin-stream", "application/x-udc-bin-stream"},
	}

	const coldSeeds = 8
	for _, f := range formats {
		b.Run(fmt.Sprintf("cold-%s/%s/seeds=%d", f.name, scenario, coldSeeds), func(b *testing.B) {
			_, ts := newBenchServer(b)
			var wire int64
			for i := 0; i < b.N; i++ {
				wire += benchGetWire(b, fmt.Sprintf("%s/v1/sweep?scenario=%s&seeds=%d&seedBase=%d",
					ts.URL, scenario, coldSeeds, 1+i*100000), f.accept)
			}
			b.ReportMetric(float64(wire)/float64(b.N), "wirebytes/op")
		})
	}

	const window = 512
	for _, f := range formats {
		b.Run(fmt.Sprintf("warm-%s/%s/seeds=%d", f.name, scenario, window), func(b *testing.B) {
			_, ts := newBenchServer(b)
			url := fmt.Sprintf("%s/v1/sweep?scenario=%s&seeds=%d", ts.URL, scenario, window)
			benchGet(b, url) // prime the window record
			b.ResetTimer()
			var wire int64
			for i := 0; i < b.N; i++ {
				wire += benchGetWire(b, url, f.accept)
			}
			b.ReportMetric(float64(wire)/float64(b.N), "wirebytes/op")
		})
	}
}
