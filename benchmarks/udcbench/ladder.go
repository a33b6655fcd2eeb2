package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/epistemic"
	"repro/internal/fd"
	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// The layer ladder: *bench-timed* probes.  Each one times a public call into
// one layer, single goroutine, on inputs sampled from the workload's own op
// list — the first ladderPairs distinct (spec, seed) pairs among the leading
// seeds of its ops, and the first ladderRecords seed records — or, for the
// extraction layers, on the standing kx-perfect sample; the server and fleet
// probes fetch one fixed window.  Every call runs inside a span.

const (
	ladderPairs   = 256
	ladderRecords = 64
	// pairsPerOp is how many leading seeds of one op enter the sample.
	pairsPerOp = 16
	// probeScenario and probeSeed fix the one warm window the server and
	// fleet probes fetch, on every workload and seed.
	probeScenario = "prop3.1-strong-udc"
	probeSeed     = 1
	// ladderReps is how often a sub-millisecond probe repeats; its median is
	// reported.
	ladderReps = 5
)

// pair is one (spec, seed) simulation input.
type pair struct {
	sc   registry.Scenario
	seed int64
}

// samplePairs returns the first n distinct (spec, seed) pairs of the workload's op
// list.
func samplePairs(cfg runConfig, n int) []pair {
	var pairs []pair
	type pairKey struct {
		scenario string
		seed     int64
	}
	seen := make(map[pairKey]bool)
	// The leading seeds of each op, distinct pairs only: the sample then
	// spans the list's scenarios instead of sitting in its first window, and
	// a hot window counts once.
	window := func(sc registry.Scenario, base int64, count int) {
		for _, seed := range workload.Seeds(base, min(count, pairsPerOp)) {
			if k := (pairKey{sc.Name, seed}); len(pairs) < n && !seen[k] {
				seen[k] = true
				pairs = append(pairs, pair{sc, seed})
			}
		}
	}
	var ops []sweepOp
	switch cfg.workload {
	case wlSweepOffline:
		for _, op := range offlineOps(cfg.seed, wlSweepOffline, cfg.sz.SweepRounds, len(sweepScenarios), cfg.sz.VerifyEvery) {
			window(registry.MustScenario(sweepScenarios[op.kind]), op.baseSeed, windowSize)
		}
	case wlExtractOffline:
		for _, op := range offlineOps(cfg.seed, wlExtractOffline, cfg.sz.ExtractPerKind, len(extractKinds), cfg.sz.VerifyEvery) {
			// An extraction source has no catalogued check; the pipeline's
			// own filter is the UDC check.
			source := registry.MustExtraction(extractKinds[op.kind]).Extraction.Source
			window(registry.Scenario{Name: source.Name, Check: "udc", Spec: source, Eval: workload.UDCEvaluator}, op.baseSeed, cfg.sz.ExtractRuns)
		}
	case wlServeWarm:
		ops = newCorpusGen(cfg.seed, wlServeWarm, cfg.sz).warmRound()
	case wlServeDisk:
		ops = newCorpusGen(cfg.seed, wlServeDisk, cfg.sz).diskRound()
	default:
		ops = coldOps(cfg.sz, 0, cfg.seed)
	}
	for _, op := range ops {
		window(registry.MustScenario(serveScenarios[op.scenario]), seedAt(op.pos), op.count)
	}
	return pairs
}

// ladder carries the probes' shared state.
type ladder struct {
	cfg  runConfig
	tr   *tracer
	root int
	v    map[string]float64
	// reps is how often a sub-millisecond probe repeats (ladderReps, fewer
	// under -smoke).
	reps int
}

// probe opens a probe span; calls inside it are timed by l.call.
func (l *ladder) probe(name string, fn func(parent int) error) error {
	id := l.tr.begin("bench.probe."+name, l.root)
	defer l.tr.end(id)
	return fn(id)
}

// call times one call into a layer inside a span.
func (l *ladder) call(name string, parent int, fn func()) time.Duration {
	return l.tr.timed(name, parent, fn)
}

// repeat times fn l.reps times and returns the median.
func (l *ladder) repeat(name string, parent int, fn func()) time.Duration {
	ds := make([]float64, l.reps)
	for i := range ds {
		ds[i] = float64(l.call(name, parent, fn))
	}
	return time.Duration(median(ds))
}

// runLadder runs every probe and writes the bench-timed metrics into values.
func runLadder(cfg runConfig, tr *tracer, values map[string]float64) error {
	l := &ladder{cfg: cfg, tr: tr, v: values, reps: ladderReps}
	l.root = tr.begin("bench.ladder", noSpan)
	defer tr.end(l.root)

	n := ladderPairs
	if cfg.smoke {
		n, l.reps = 16, 1
	}
	pairs := samplePairs(cfg, n)
	if len(pairs) == 0 {
		return fmt.Errorf("workload %s yields no (spec, seed) pairs", cfg.workload)
	}
	runs, err := l.simAndWorkload(pairs)
	if err != nil {
		return err
	}
	if err := l.simScaling(); err != nil {
		return err
	}
	if err := l.extraction(); err != nil {
		return err
	}
	if err := l.store(pairs, runs); err != nil {
		return err
	}
	return l.serverAndFleet()
}

// simAndWorkload probes the simulator on one reused engine, then the sweep
// pool, the scorer and the extraction's simulate share.  It returns the
// first ladderRecords seed runs for the store probes.
func (l *ladder) simAndWorkload(pairs []pair) ([]workload.SeedRun, error) {
	var seedRuns []workload.SeedRun
	var simTime, scoreTime time.Duration
	var events, msgs int
	var mallocs uint64
	err := l.probe("sim", func(parent int) error {
		eng := sim.NewEngine()
		results := make([]*sim.Result, len(pairs))
		// One untimed pass grows the engine's buffers to this workload's
		// high-water mark; the timed pass then sees the steady state sweeps
		// run in.
		for _, p := range pairs {
			if _, err := workload.ExecuteWith(eng, p.sc.Spec, p.seed); err != nil {
				return err
			}
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		for i, p := range pairs {
			var err error
			simTime += l.call("sim.ExecuteWith", parent, func() {
				results[i], err = workload.ExecuteWith(eng, p.sc.Spec, p.seed)
			})
			if err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&ms)
		mallocs = ms.Mallocs - before
		for i, res := range results {
			events += res.Run.EventCount()
			msgs += res.Stats.MessagesSent
			var out workload.RunOutcome
			scoreTime += l.call("workload.ScoreRun", parent, func() {
				out = workload.ScoreRun(res, pairs[i].seed, pairs[i].sc.Eval)
			})
			if i < ladderRecords {
				seedRuns = append(seedRuns, workload.SeedRun{Outcome: out, Run: res.Run})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	n := float64(len(pairs))
	l.v["sim.runs"] = n
	l.v["sim.events_per_run"] = float64(events) / n
	l.v["sim.msgs_per_run"] = float64(msgs) / n
	l.v["sim.ns_per_run"] = float64(simTime) / n
	l.v["sim.ns_per_event"] = float64(simTime) / float64(events)
	l.v["sim.allocs_per_run"] = float64(mallocs) / n
	l.v["workload.score_ns_per_run"] = float64(scoreTime) / n

	return seedRuns, l.probe("workload", func(parent int) error {
		// The same pairs through the pool, grouped into one task per run of
		// equal scenarios, as a sweep would submit them.
		var tasks []workload.Task
		for _, p := range pairs {
			if k := len(tasks) - 1; k >= 0 && tasks[k].Spec.Name == p.sc.Name {
				tasks[k].Seeds = append(tasks[k].Seeds, p.seed)
				continue
			}
			tasks = append(tasks, workload.Task{Spec: p.sc.Spec, Seeds: []int64{p.seed}, Eval: p.sc.Eval})
		}
		var err error
		wall := l.call("workload.SweepAll", parent, func() {
			_, err = workload.Runner{Workers: l.cfg.c}.SweepAll(tasks)
		})
		if err != nil {
			return err
		}
		l.v["workload.sweep_us_per_seed"] = micros(wall) / n
		// Serial simulate+score time over what the pool's C workers had
		// available: below 1 with flat sim.* means the pool, not the engine.
		l.v["workload.parallel_efficiency"] = float64(simTime+scoreTime) / (float64(wall) * float64(l.cfg.c))

		// How much of one kx-perfect extraction is its simulate stage.
		ex := registry.MustExtraction("kx-perfect").Extraction
		ex.Runs = l.cfg.sz.ExtractRuns
		runner := workload.Runner{Workers: l.cfg.c}
		simulate := l.call("workload.RunAll", parent, func() {
			_, err = runner.RunAll([]workload.Task{{Spec: ex.Source, Seeds: workload.Seeds(ex.BaseSeed, ex.Runs)}})
		})
		if err != nil {
			return err
		}
		whole := l.call("workload.Extract", parent, func() { _, err = runner.Extract(ex) })
		l.v["workload.extract_simulate_share"] = float64(simulate) / float64(whole)
		return err
	})
}

// simScaling is the n-scaling family: the prop3.1 shape with actions = n and
// n/2 crashes.  sim.Config rejects N > 64, and one n = 64 run needs over
// 3 GB, so the family stops at 32.
func (l *ladder) simScaling() error {
	return l.probe("sim.scaling", func(parent int) error {
		for _, shape := range []struct{ n, runs int }{{8, 16}, {16, 4}, {32, 1}} {
			if l.cfg.smoke && shape.n > 8 {
				continue // the larger shapes cost seconds
			}
			spec := registry.MustScenario("prop3.1-strong-udc").Spec
			spec.N, spec.Actions, spec.MaxFailures = shape.n, shape.n, shape.n/2
			eng := sim.NewEngine()
			var total time.Duration
			events := 0
			for _, seed := range workload.Seeds(1, shape.runs) {
				var res *sim.Result
				var err error
				total += l.call(fmt.Sprintf("sim.ExecuteWith.n%d", shape.n), parent, func() {
					res, err = workload.ExecuteWith(eng, spec, seed)
				})
				if err != nil {
					return err
				}
				events += res.Run.EventCount()
			}
			l.v[fmt.Sprintf("sim.ns_per_event.n%d", shape.n)] = float64(total) / float64(events)
		}
		return nil
	})
}

// extraction probes the epistemic index, the run transforms and the detector
// checks on the UDC-kept source runs of the standing kx-perfect sample (the
// t-useful transform runs over the same index: P3' needs only the system).
func (l *ladder) extraction() error {
	return l.probe("extraction", func(parent int) error {
		ex := registry.MustExtraction("kx-perfect").Extraction
		runs := l.cfg.sz.ExtractRuns
		seedRuns, err := workload.Runner{Workers: l.cfg.c}.RunAll([]workload.Task{{Spec: ex.Source, Seeds: workload.Seeds(ex.BaseSeed, 2*runs)}})
		if err != nil {
			return err
		}
		var kept model.System
		filter := l.call("core.CheckUDC", parent, func() {
			for _, sr := range seedRuns[0][:runs] {
				if len(core.CheckUDC(sr.Run)) == 0 {
					kept = append(kept, sr.Run)
				}
			}
		})
		var more model.System
		for _, sr := range seedRuns[0][runs:] {
			if len(core.CheckUDC(sr.Run)) == 0 {
				more = append(more, sr.Run)
			}
		}
		if len(kept) == 0 {
			return fmt.Errorf("kx-perfect sample keeps no run")
		}
		l.v["core.filter_ms"] = millis(filter)

		var sys *epistemic.System
		index := l.call("epistemic.NewSystem", parent, func() { sys = epistemic.NewSystem(kept) })
		stats := sys.Stats()
		l.v["epistemic.index_ms"] = millis(index)
		l.v["epistemic.points"] = float64(stats.Points)
		l.v["epistemic.classes"] = float64(stats.Classes)
		l.v["epistemic.index_ns_per_point"] = float64(index) / float64(stats.Points)

		// One span around the whole query loop: a single query is tens of
		// nanoseconds, below what a span can resolve.
		queries := 0
		var sink model.ProcSet
		query := l.call("epistemic.KnownCrashed", parent, func() {
			for ri := 0; ri < sys.Size(); ri++ {
				for p := 0; p < sys.N(); p++ {
					for m := 0; m <= sys.RunAt(ri).Horizon; m += 7 {
						sink |= sys.KnownCrashed(model.ProcID(p), epistemic.Point{Run: ri, Time: m})
						queries++
					}
				}
			}
		})
		_ = sink
		l.v["epistemic.query_ns"] = float64(query) / float64(queries)

		transformer := core.Transformer{Workers: l.cfg.c}
		var perfect model.System
		l.v["core.transform_perfect_ms"] = millis(l.call("core.SimulatePerfectDetector", parent, func() {
			perfect = transformer.SimulatePerfectDetector(sys)
		}))
		l.v["core.transform_tuseful_ms"] = millis(l.call("core.SimulateTUsefulDetector", parent, func() {
			transformer.SimulateTUsefulDetector(sys)
		}))
		violations := 0
		l.v["fd.check_ms"] = millis(l.call("fd.CheckPerfect", parent, func() {
			for _, r := range perfect {
				violations += len(fd.CheckPerfect(r))
			}
		}))
		if violations != 0 {
			return fmt.Errorf("extracted detector is not perfect: %d violations", violations)
		}
		// Extend last: Add grows sys in place.
		l.v["epistemic.extend_ms"] = millis(l.call("epistemic.Add", parent, func() { sys.Add(more) }))
		return nil
	})
}

// store probes the codec and the store's batch paths on the first
// ladderRecords seed records of the workload.
func (l *ladder) store(pairs []pair, seedRuns []workload.SeedRun) error {
	return l.probe("store", func(parent int) error {
		n := float64(len(seedRuns))
		records := make([]*store.SeedRecord, len(seedRuns))
		keys := make([]store.Key, len(seedRuns))
		for i, sr := range seedRuns {
			records[i] = store.NewSeedRecord(sr, true)
			keys[i] = server.SweepSeedKey(pairs[i].sc.Name, "", pairs[i].seed)
		}
		payloads := make([][]byte, len(records))
		encode := l.repeat("store.EncodeSeedRecord", parent, func() {
			for i, rec := range records {
				payloads[i] = store.EncodeSeedRecord(rec)
			}
		})
		bytesTotal := 0
		for _, p := range payloads {
			bytesTotal += len(p)
		}
		l.v["store.seed_record_bytes"] = float64(bytesTotal) / n
		l.v["store.encode_seed_us"] = micros(encode) / n

		var derr error
		decode := l.repeat("store.DecodeSeedRecord", parent, func() {
			dec := store.Decoders.Get()
			defer store.Decoders.Put(dec)
			for _, p := range payloads {
				if _, err := dec.DecodeSeedRecord(p); err != nil {
					derr = err
				}
			}
		})
		if derr != nil {
			return derr
		}
		l.v["store.decode_seed_us"] = micros(decode) / n

		dir, err := newTempDir(l.cfg.outDir, "ladder")
		if err != nil {
			return err
		}
		defer removeTempDir(dir)
		disk, err := store.Open(dir, store.Options{})
		if err != nil {
			return err
		}
		put := l.call("store.PutMulti", parent, func() { _, err = disk.PutMulti(keys, payloads) })
		if err != nil {
			return err
		}
		l.v["store.putmulti_disk_us_per_key"] = micros(put) / n
		// PutMulti admitted everything to the memory layer.
		mem := l.repeat("store.GetMulti.mem", parent, func() { disk.GetMulti(keys) })
		l.v["store.getmulti_mem_us_per_key"] = micros(mem) / n
		// A store reopened on the directory starts with an empty memory
		// layer, so every key goes to disk (to the OS page cache, on this
		// box: the reads are syscalls and checksums, not device time).
		cold := make([]float64, l.reps)
		for i := range cold {
			reopened, err := store.Open(dir, store.Options{})
			if err != nil {
				return err
			}
			missing := 0
			cold[i] = float64(l.call("store.GetMulti.disk", parent, func() {
				for _, p := range reopened.GetMulti(keys) {
					if p == nil {
						missing++
					}
				}
			}))
			if missing != 0 {
				return fmt.Errorf("store probe: %d of %d records unreadable from disk", missing, len(keys))
			}
		}
		l.v["store.getmulti_disk_us_per_key"] = median(cold) / float64(time.Microsecond) / n
		return nil
	})
}

// serverAndFleet probes one memory-only daemon holding one warm 64-seed
// window: the handler without a socket, each wire format over loopback, and
// a claim hop for seeds the owner already holds.
func (l *ladder) serverAndFleet() error {
	return l.probe("server", func(parent int) error {
		st, err := store.Open("", store.Options{})
		if err != nil {
			return err
		}
		nodes, err := startNodes([]*store.Store{st})
		if err != nil {
			return err
		}
		n := nodes[0]
		defer n.stop()
		cl := newClient()
		defer cl.close()

		path := fmt.Sprintf("/v1/sweep?scenario=%s&seeds=%d&seedBase=%d", probeScenario, windowSize, probeSeed)
		wires := []string{wireJSON, wireBin, "ndjson", "bin-stream"}
		fetch := func(wire string) (time.Duration, int, error) {
			status, _, latency, _, err := cl.get(n.url+path, acceptOf[wire])
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("wire probe %s: HTTP %d", wire, status)
			}
			return latency, cl.buf.Len(), err
		}
		if _, _, err := fetch(wireBin); err != nil { // fills the window
			return err
		}
		reps := 10*l.reps + 1
		for _, wire := range wires {
			lat := make([]float64, reps)
			size := 0
			for i := range lat {
				var d time.Duration
				var err error
				l.call("server.wire."+wire, parent, func() { d, size, err = fetch(wire) })
				if err != nil {
					return err
				}
				lat[i] = micros(d)
			}
			l.v["server.wire."+wire+"_us"] = median(lat)
			if wire == wireJSON || wire == wireBin {
				l.v["server.wire."+wire+"_bytes_per_seed"] = float64(size) / windowSize
			}
		}

		handler := n.srv.Handler()
		lat := make([]float64, reps)
		for i := range lat {
			req := httptest.NewRequest(http.MethodGet, path, nil)
			req.Header.Set("Accept", acceptOf[wireBin])
			rec := httptest.NewRecorder()
			lat[i] = micros(l.call("server.ServeHTTP", parent, func() { handler.ServeHTTP(rec, req) }))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("handler probe: HTTP %d", rec.Code)
			}
		}
		l.v["server.handler_only_us"] = median(lat)

		// The claim a 3-peer coordinator sends one owner: a third of a window.
		claim := server.MarshalBody(server.ClaimRequest{Scenario: probeScenario, Seeds: workload.Seeds(probeSeed, windowSize/3)})
		for i := range lat {
			var err error
			var status int
			lat[i] = micros(l.call("fleet.claim", parent, func() {
				var resp *http.Response
				if resp, err = cl.hc.Post(n.url+"/v1/claim", "application/json", bytes.NewReader(claim)); err == nil {
					cl.buf.Reset()
					_, err = cl.buf.ReadFrom(resp.Body)
					resp.Body.Close()
					status = resp.StatusCode
				}
			}))
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("claim probe: HTTP %d: %v", status, err)
			}
		}
		l.v["fleet.claim_hop_us"] = median(lat)
		return nil
	})
}
