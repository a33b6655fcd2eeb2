package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	// seconds is how long the timed phase lasts at least: whole rounds are
	// run until this much timed work has passed.
	seconds float64
	traced  bool
	sz      sizes
	// c is the client count and GOMAXPROCS: min(nproc, 4).
	c int
	// outDir receives temp-dir stores and trace files.
	outDir string
	// smoke is one set-up and one traced round, and a short ladder.
	smoke bool
	// ladder runs the bench-timed layer probes in a traced run.
	ladder bool
}

// env is a set-up workload: daemons booted, corpus primed, references
// computed.
type env interface {
	// warmup runs the untimed warm-up ops.
	warmup() error
	// prepare readies the next round off the clock: its op list, reference
	// checksums, counter baselines.
	prepare(traced bool)
	// round runs one pass over the op list.
	round(traced bool) []opResult
	// check marks ops whose delivered bytes differ from the reference as
	// failed, asserts the round's accounting identities (returning the
	// breaches), and folds a traced round's counters into counts.
	check(r roundResult, counts *layerCounts) []string
	close()
}

// runReport is everything one run measured.
type runReport struct {
	spec      workloadSpec
	attempted int
	failed    int
	breaches  []string
	// digest folds the delivered-bytes checksum of every op of the first
	// round, in op order: it must repeat exactly across runs of one commit and
	// seed.
	digest uint64
	// rounds keeps every round's own numbers, printed with the report.
	rounds  []roundResult
	values  map[string]float64
	selfMs  map[string]float64
	elapsed time.Duration
}

func (r *runReport) correct() bool { return r.failed == 0 && len(r.breaches) == 0 }

// runWorkload runs one workload once: set-up (three times, for its median),
// warm-up, then whole rounds of the frozen op list until cfg.seconds of timed
// work have passed — and never fewer than the tail percentile needs.  A
// traced run alternates untraced and traced rounds and adds the layer ladder.
func runWorkload(cfg runConfig) (*runReport, error) {
	spec, ok := lookupWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	return runImpl(cfg, spec, workloadImpls[cfg.workload])
}

// runImpl is runWorkload with the workload's implementation passed in.
func runImpl(cfg runConfig, spec workloadSpec, impl workloadImpl) (*runReport, error) {
	started := time.Now()
	rep := &runReport{spec: spec}

	// Single-use environments are set up once per round, so three rounds give
	// the set-up median its three samples; a traced run needs a round of each
	// kind.
	setUps, minRounds := 3, roundsForTail(spec, cfg.sz)
	if !impl.reusable {
		minRounds = max(minRounds, setUps)
	}
	if cfg.traced {
		minRounds = max(minRounds, 2)
	}
	if cfg.smoke {
		setUps, minRounds = 1, 1
	}

	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	var setups []time.Duration
	var e env
	defer func() {
		if e != nil {
			e.close()
		}
	}()
	setUp := func() error {
		if e != nil {
			e.close()
			e = nil
		}
		start := time.Now()
		fresh, err := impl.setup(cfg)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start))
		e = fresh
		return nil
	}
	if impl.reusable {
		for i := 0; i < setUps; i++ {
			if err := setUp(); err != nil {
				return nil, err
			}
		}
		if err := e.warmup(); err != nil {
			return nil, err
		}
	}

	var untraced, traced []roundResult
	var counts layerCounts
	var verifyTime, timed time.Duration
	for n := 0; n < minRounds || timed.Seconds() < cfg.seconds; n++ {
		if !impl.reusable {
			if err := setUp(); err != nil {
				return nil, err
			}
			if err := e.warmup(); err != nil {
				return nil, err
			}
		}
		// Traced runs alternate, untraced first, so both kinds see the same
		// mix of early and late rounds (-smoke traces its only round).
		roundTracer := tr
		if n%2 == 0 && !cfg.smoke {
			roundTracer = nil
		}
		e.prepare(roundTracer != nil)
		runtime.GC()
		parent := roundTracer.begin("bench.round", noSpan)
		before := snapshot()
		r := finishRound(before, e.round(roundTracer != nil), roundTracer != nil)
		roundTracer.end(parent)
		roundTracer.addOps(impl.opSpan, parent, r.ops)
		timed += r.wall

		verifyStart := time.Now()
		rep.breaches = append(rep.breaches, e.check(r, &counts)...)
		verifyTime += time.Since(verifyStart)
		for _, op := range r.ops {
			rep.attempted++
			if op.failed {
				rep.failed++
			}
			if n == 0 {
				// Later rounds exist or not depending on the clock; the first
				// one is a function of the seed alone.
				rep.digest = rep.digest*31 + op.crc
			}
		}
		rep.rounds = append(rep.rounds, r)
		if r.traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}

	if !cfg.traced {
		rep.values = endToEndOf(spec, setups, untraced)
		rep.elapsed = time.Since(started)
		return rep, nil
	}
	rep.values = layerValues(cfg, untraced, traced, counts, verifyTime)
	if cfg.ladder {
		if err := runLadder(cfg, tr, rep.values); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
	}
	rep.values["proc.peak_rss_mb"] = peakRSSMiB()
	rep.selfMs = make(map[string]float64)
	for layer, d := range tr.selfTimes() {
		rep.selfMs[layer] = millis(d)
	}
	if err := tr.flush(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".jsonl")); err != nil {
		return nil, fmt.Errorf("flush trace: %w", err)
	}
	rep.elapsed = time.Since(started)
	return rep, nil
}

// print writes the report for a reader: every round's own numbers, every
// metric by name with its unit, then the breaches.
func (r *runReport) print(w io.Writer, specs []metricSpec) {
	fmt.Fprintf(w, "workload %s: %d rounds, %d ops attempted, %d failed, digest %016x, %.1fs\n",
		r.spec.name, len(r.rounds), r.attempted, r.failed, r.digest, r.elapsed.Seconds())
	for i, rr := range r.rounds {
		kind := "untraced"
		if rr.traced {
			kind = "traced"
		}
		lat := make([]float64, len(rr.ops))
		for j, op := range rr.ops {
			lat[j] = millis(op.latency)
		}
		sort.Float64s(lat)
		fmt.Fprintf(w, "  round %d (%s): %d ops, %.3fs, %.1f seeds/s, %.1f cpu us/seed, %.2f alloc KiB/seed, %d GCs, p50 %.4f ms, p%v %.4f ms\n",
			i+1, kind, len(rr.ops), rr.wall.Seconds(), rr.seedsPerSec(), rr.cpuPerSeed(), rr.allocPerSeed(), rr.gcs,
			percentile(lat, 50), r.spec.tailPct, percentile(lat, r.spec.tailPct))
	}
	for _, m := range specs {
		fmt.Fprintf(w, "  %-36s %16.4f %s\n", m.name, r.values[m.name], m.unit)
	}
	fmt.Fprintf(w, "  %-36s %16.4f %s\n", "fail_ratio", float64(r.failed)/float64(max(r.attempted, 1)), "ratio")
	if len(r.selfMs) > 0 {
		layers := make([]string, 0, len(r.selfMs))
		for layer := range r.selfMs {
			layers = append(layers, layer)
		}
		sort.Strings(layers)
		fmt.Fprintf(w, "  self time per layer (span minus children):\n")
		for _, layer := range layers {
			fmt.Fprintf(w, "    %-34s %16.3f ms\n", layer, r.selfMs[layer])
		}
	}
	for _, b := range r.breaches {
		fmt.Fprintf(w, "  BREACH: %s\n", b)
	}
}
