package main

import (
	"sort"
	"time"

	"repro/internal/obs"
)

// Per-layer metrics that come from the timed phase itself (the bench-timed
// ladder is in ladder.go).  Everything in this file is either a client-side
// timing or *program-reported*: read from the daemon's existing outputs
// (Server-Timing, SchedulerStats, Store.Stats, /v1/fleet, /metrics).

// layerCounts sums the daemons' counter deltas over a run's traced rounds.
type layerCounts struct {
	ops, seeds int

	// Store traffic, all nodes.
	memHits, diskHits, bytesRead, evictions, corrupt uint64
	// Scheduler traffic on the coordinator.
	cached, computed, coalesced, remote, batches, batchedTasks uint64
	// computedAll sums every node's simulated seeds over its lifetime, and
	// distinct the seeds they had to cover.
	computedAll uint64
	distinct    int

	// Fleet, from the coordinator's /v1/fleet rows and the kill bookkeeping.
	claims, claimFailures, retries, hedges, fallbackSeeds uint64
	remoteBeforeKill, resolvedBeforeKill                  uint64
	preKillSeeds, postKillSeeds                           int
	preKillTime, postKillTime                             time.Duration
	failoverMax                                           time.Duration

	// Histogram agreement and scrape cost, from /metrics after the round.
	scrapes                  int
	scrapeTime               time.Duration
	scrapeBytes              int
	p50Agreements, p50Checks int
}

// add folds one traced round's deltas in.
func (c *layerCounts) add(e *serveEnv, r roundResult, now serveCounters) {
	c.ops += len(r.ops)
	c.seeds += r.seeds
	for i := range e.nodes {
		was, is := e.base.store[i], now.store[i]
		c.memHits += is.MemHits - was.MemHits
		c.diskHits += is.DiskHits - was.DiskHits
		c.bytesRead += is.BytesRead - was.BytesRead
		c.evictions += is.Evictions - was.Evictions
		c.corrupt += is.CorruptEntries
		c.computedAll += now.sched[i].SeedsComputed
	}
	c.distinct += e.distinct
	was, is := e.base.sched[0], now.sched[0]
	c.cached += is.SeedsCached - was.SeedsCached
	c.computed += is.SeedsComputed - was.SeedsComputed
	c.coalesced += is.SeedsCoalesced - was.SeedsCoalesced
	c.remote += is.SeedsRemote - was.SeedsRemote
	c.batches += is.Batches - was.Batches
	c.batchedTasks += is.BatchedTasks - was.BatchedTasks

	c.scrape(e, r)
	if e.killAt < 0 || e.killed.at.IsZero() {
		return
	}
	k := e.killed.stats
	c.remoteBeforeKill += k.SeedsRemote - was.SeedsRemote
	c.resolvedBeforeKill += k.SeedsRemote - was.SeedsRemote + k.SeedsComputed - was.SeedsComputed
	roundStart, roundEnd := r.ops[0].start, r.ops[0].start
	for i, op := range r.ops {
		if op.start.Before(roundStart) {
			roundStart = op.start
		}
		end := op.start.Add(op.latency)
		if end.After(roundEnd) {
			roundEnd = end
		}
		if end.Before(e.killed.at) {
			c.preKillSeeds += op.seeds
		} else if i >= e.killAt {
			c.postKillSeeds += op.seeds
		}
		// The worst op among the tenth of the list issued right after the
		// kill is what a caller saw of the failure.
		if i >= e.killAt && i < e.killAt+max(len(r.ops)/10, 1) && op.latency > c.failoverMax {
			c.failoverMax = op.latency
		}
	}
	c.preKillTime += e.killed.at.Sub(roundStart)
	c.postKillTime += roundEnd.Sub(e.killed.at)
	if info, err := fleetInfo(e.clients[0], e.coordinator()); err == nil {
		for _, p := range info.Peers {
			c.claims += p.Requests
			c.claimFailures += p.Failures
			c.retries += p.Retries
			c.hedges += p.Hedges
			c.fallbackSeeds += p.FallbackSeeds
		}
	}
}

// scrape reads /metrics after a traced round: what a scrape costs, and
// whether the daemon's own latency histogram puts the round's median in the
// bucket where the client saw it (the histogram is cumulative, so the
// round's observations are its growth since the scrape before the round).
func (c *layerCounts) scrape(e *serveEnv, r roundResult) {
	buckets, latency, size := e.scrapeSweepBuckets()
	if size == 0 {
		return
	}
	c.scrapes++
	c.scrapeTime += latency
	c.scrapeBytes += size
	if len(buckets) == 0 || len(buckets) != len(e.baseBuckets) {
		return
	}
	for i := range buckets {
		buckets[i].CumulativeCount -= e.baseBuckets[i].CumulativeCount
	}
	lat := make([]float64, len(r.ops))
	for i, op := range r.ops {
		lat[i] = op.latency.Seconds()
	}
	sort.Float64s(lat)
	c.p50Checks++
	if bucketOf(buckets, percentile(lat, 50)) == bucketOf(buckets, obs.Quantile(0.5, buckets)) {
		c.p50Agreements++
	}
}

// bucketOf is the index of the first bucket whose upper bound holds v.
func bucketOf(buckets []obs.Bucket, v float64) int {
	for i, b := range buckets {
		if v <= b.UpperBound {
			return i
		}
	}
	return len(buckets) - 1
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layerValues starts a traced run's per-layer metric set: every name in
// perLayer gets a value (0 where the workload never enters the layer), and
// the phase-derived ones are filled from the traced rounds.  The ladder then
// overwrites the bench-timed names.
func layerValues(cfg runConfig, untraced, traced []roundResult, c layerCounts, verifyTime time.Duration) map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		v[m.name] = 0
	}

	// Client-side medians by cost class, and the program-reported stage
	// medians over every traced response.
	byClass := map[string][]float64{}
	var resolve, claim, compute, assemble, persist, total, unattributed, overhead []float64
	for _, r := range traced {
		for _, op := range r.ops {
			if op.failed {
				continue
			}
			us := micros(op.latency)
			switch {
			case op.class == classHitWindow:
				byClass["server.hit_window_us"] = append(byClass["server.hit_window_us"], us)
			case op.class == classHitAssembled:
				byClass["server.hit_assembled_us"] = append(byClass["server.hit_assembled_us"], us)
			case op.class == classCold && op.cache == "partial":
				byClass["server.partial_us"] = append(byClass["server.partial_us"], us)
			case op.class == classCold && op.cache == "miss":
				byClass["server.miss_us"] = append(byClass["server.miss_us"], us)
			}
			if st := op.stages; st.total > 0 {
				resolve = append(resolve, st.resolve)
				claim = append(claim, st.claim)
				compute = append(compute, st.compute)
				assemble = append(assemble, st.assemble)
				persist = append(persist, st.persist)
				total = append(total, st.total)
				unattributed = append(unattributed, 1-st.staged/st.total)
				overhead = append(overhead, us-st.total)
			}
		}
	}
	for name, vs := range byClass {
		v[name] = median(vs)
	}
	v["server.stage.resolve_us"] = median(resolve)
	v["server.stage.claim_us"] = median(claim)
	v["server.stage.compute_us"] = median(compute)
	v["server.stage.assemble_us"] = median(assemble)
	v["server.stage.persist_us"] = median(persist)
	v["server.stage.total_us"] = median(total)
	v["server.unattributed_ratio"] = median(unattributed)
	v["server.http_overhead_us"] = median(overhead)

	v["server.seeds_cached"] = float64(c.cached)
	v["server.seeds_computed"] = float64(c.computed)
	v["server.seeds_coalesced"] = float64(c.coalesced)
	v["server.seeds_remote"] = float64(c.remote)
	v["server.tasks_per_batch"] = ratio(float64(c.batchedTasks), float64(c.batches))

	v["store.mem_hit_ratio"] = ratio(float64(c.memHits), float64(c.memHits+c.diskHits))
	v["store.disk_read_kb_per_seed"] = ratio(float64(c.bytesRead)/1024, float64(c.seeds))
	v["store.evictions_per_op"] = ratio(float64(c.evictions), float64(c.ops))
	v["store.corrupt_entries"] = float64(c.corrupt)

	if c.distinct > 0 {
		waste := float64(c.computedAll)/float64(c.distinct) - 1
		if cfg.workload == wlFleet3 {
			v["fleet.duplicate_compute_ratio"] = waste
		} else {
			v["server.compute_waste_ratio"] = waste
		}
	}
	v["fleet.remote_seed_ratio"] = ratio(float64(c.remoteBeforeKill), float64(c.resolvedBeforeKill))
	v["fleet.claims"] = float64(c.claims)
	v["fleet.claim_failures"] = float64(c.claimFailures)
	v["fleet.retries"] = float64(c.retries)
	v["fleet.hedges"] = float64(c.hedges)
	v["fleet.fallback_seeds"] = float64(c.fallbackSeeds)
	v["fleet.pre_kill_seeds_per_s"] = ratio(float64(c.preKillSeeds), c.preKillTime.Seconds())
	v["fleet.post_kill_seeds_per_s"] = ratio(float64(c.postKillSeeds), c.postKillTime.Seconds())
	v["fleet.failover_max_ms"] = millis(c.failoverMax)

	v["obs.scrape_us"] = ratio(micros(c.scrapeTime), float64(c.scrapes))
	v["obs.scrape_bytes"] = ratio(float64(c.scrapeBytes), float64(c.scrapes))
	v["obs.histogram_p50_agreement"] = ratio(float64(c.p50Agreements), float64(c.p50Checks))

	// Tracing overhead is judged pair by pair — traced round k against the
	// untraced round just before it — so the box drifting between rounds
	// cancels instead of posing as overhead.
	var traceCost []float64
	var gcs uint32
	var gcPause time.Duration
	for k, r := range traced {
		if k < len(untraced) {
			traceCost = append(traceCost, r.seedsPerSec()/untraced[k].seedsPerSec())
		}
		gcs += r.gcs
		gcPause += r.gcPause
	}
	v["bench.trace_overhead_ratio"] = median(traceCost)
	v["bench.verify_s"] = verifyTime.Seconds()
	v["proc.gc_cycles"] = float64(gcs)
	v["proc.gc_pause_ms"] = millis(gcPause)
	return v
}
