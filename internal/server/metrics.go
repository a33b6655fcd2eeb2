package server

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// serverMetrics is the daemon's /metrics surface.  Two kinds of instruments
// live here: live ones mutated on the request path (the per-route HTTP
// counters and latency histograms), and mirrors of the stats structs the
// scheduler and store already maintain.  The mirrors are Set() by one collect
// hook that snapshots everything at the start of each scrape, so
// SchedulerStats/store.Stats stay the single source of truth and every family
// on one exposition page reflects one consistent instant.
//
// The /metrics route itself is deliberately not instrumented and the page
// carries udc_start_time_seconds (a constant) rather than an uptime gauge, so
// two scrapes of an idle daemon are byte-identical — the property the
// scrape-determinism tests pin.
type serverMetrics struct {
	reg *obs.Registry

	// httpRequests counts finished requests by route and status code;
	// httpDuration times them by route and cache grade ("hit" | "partial" |
	// "miss" for served sweeps/extracts, "none" for routes without a corpus,
	// "error" for failures).
	httpRequests *obs.CounterVec
	httpDuration *obs.HistogramVec

	// Wire accounting for the corpus-backed routes: finished response bodies
	// and their on-the-wire bytes, by route and negotiated format
	// (json | bin | ndjson | bin-stream).
	wireResponses *obs.CounterVec
	wireBytes     *obs.CounterVec

	// rateLimited counts requests shed by the per-client admission rate
	// limiter before reaching the scheduler (they also appear as 429s in
	// httpRequests, but never in the scheduler's own counters).
	rateLimited *obs.Counter

	// stageDuration aggregates the Server-Timing stage breakdown across
	// requests: one observation per stage per finished sweep/extract request,
	// labeled by stage name (resolve, claim, compute, assemble, persist).
	stageDuration *obs.HistogramVec
}

func newServerMetrics(sched *scheduler, st *store.Store, traces *obs.TraceLog, fc *fleetCoordinator, start time.Time) *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{reg: reg}

	// Live request-path instruments.
	m.httpRequests = reg.CounterVec("udc_http_requests_total",
		"HTTP requests served, by route and status code.", "route", "code")
	m.httpDuration = reg.HistogramVec("udc_http_request_duration_seconds",
		"HTTP request latency in seconds, by route and cache grade.",
		obs.DefBuckets, "route", "cache")
	m.wireResponses = reg.CounterVec("udc_wire_responses_total",
		"Response bodies served on the corpus-backed routes, by route and negotiated format.",
		"route", "format")
	m.wireBytes = reg.CounterVec("udc_wire_bytes_total",
		"Response body bytes put on the wire by the corpus-backed routes, by route and negotiated format.",
		"route", "format")
	m.rateLimited = reg.Counter("udc_admission_rate_limited_total",
		"Requests shed by the per-client admission rate limiter (answered 429 before reaching the scheduler).")
	m.stageDuration = reg.HistogramVec("udc_stage_duration_seconds",
		"Scheduler stage latency in seconds, by stage — the per-request Server-Timing breakdown, aggregated.",
		obs.DefBuckets, "stage")

	// Scheduler mirrors.
	requests := reg.Counter("udc_scheduler_requests_total",
		"Sweep/extract requests that reached the scheduler.")
	served := reg.CounterVec("udc_scheduler_requests_served_total",
		"Served requests by how much of the response came from the run corpus.", "grade")
	servedHit, servedPartial, servedMiss := served.With("hit"), served.With("partial"), served.With("miss")
	errorsC := reg.Counter("udc_scheduler_request_errors_total",
		"Requests that failed (unknown names, compute errors).")
	shed := reg.Counter("udc_scheduler_shed_total",
		"Requests shed by the compute-queue admission gate (a subset of request errors; answered 429 + Retry-After).")
	coalesced := reg.Counter("udc_scheduler_requests_coalesced_total",
		"Requests that computed nothing themselves because concurrent requests were already computing everything they needed.")
	seedsRequested := reg.Counter("udc_scheduler_seeds_requested_total",
		"Seeds resolved across all requests.")
	seedsCached := reg.Counter("udc_scheduler_seeds_cached_total",
		"Seeds served from per-seed corpus records.")
	seedsComputed := reg.Counter("udc_scheduler_seeds_computed_total",
		"Seeds this server actually simulated.")
	seedsCoalesced := reg.Counter("udc_scheduler_seeds_coalesced_total",
		"Seeds joined from concurrent requests' in-flight computations.")
	jobs := reg.Counter("udc_scheduler_fleet_jobs_total",
		"Jobs executed on the worker fleet, one pass each (a sweep's or claim's missing-seed simulation, or an extraction miss's whole pipeline).")
	putErrors := reg.Counter("udc_scheduler_put_errors_total",
		"Computed payloads that could not be persisted (results still served; a degraded store, not failing requests).")
	indexReuses := reg.Counter("udc_scheduler_index_reuses_total",
		"Extraction requests whose epistemic index was extended from a cached state instead of rebuilt.")
	indexedRunsReused := reg.Counter("udc_scheduler_indexed_runs_reused_total",
		"Already-indexed source runs that index reuses skipped re-filtering and re-indexing.")
	queueDepth := reg.Gauge("udc_scheduler_queue_depth",
		"Fleet jobs waiting for the pass token or running under it.")
	seedClaims := reg.Gauge("udc_scheduler_inflight_seed_claims",
		"Seeds currently claimed in the seed-level flight table.")

	// Store mirrors.
	storeHits := reg.CounterVec("udc_store_hits_total",
		"Store gets served, by layer.", "layer")
	memHits, diskHits := storeHits.With("mem"), storeHits.With("disk")
	storeMisses := reg.Counter("udc_store_misses_total",
		"Store gets that found no (valid) entry.")
	storePuts := reg.Counter("udc_store_puts_total",
		"Successful store writes.")
	storeCorrupt := reg.Counter("udc_store_corrupt_entries_total",
		"On-disk entries rejected by the container check (bad magic, checksum, truncation).")
	storeEvictions := reg.Counter("udc_store_evictions_total",
		"Entries dropped from the memory layer to respect its bounds.")
	bytesWritten := reg.Counter("udc_store_disk_bytes_written_total",
		"Cumulative payload bytes persisted to the disk layer.")
	bytesRead := reg.Counter("udc_store_disk_bytes_read_total",
		"Cumulative payload bytes loaded from the disk layer.")
	memEntries := reg.Gauge("udc_store_mem_entries",
		"Entries currently held by the memory layer.")
	memBytes := reg.Gauge("udc_store_mem_bytes",
		"Payload bytes currently held by the memory layer.")

	// Trace-log mirrors.
	tracesRecorded := reg.Counter("udc_traces_recorded_total",
		"Request traces recorded into the trace log.")
	traceEntries := reg.GaugeVec("udc_trace_log_entries",
		"Traces currently held by the log, by retention class (normal = tail-sampled, retained = slow or errored).",
		"class")
	traceNormal, traceRetained := traceEntries.With("normal"), traceEntries.With("retained")

	// Fleet occupancy mirrors (sampled from the process-wide workload gauges).
	fleetInflight := reg.Gauge("udc_fleet_inflight_seeds",
		"Simulation jobs admitted to an active fleet pass and not yet finished.")
	fleetBusy := reg.Gauge("udc_fleet_busy_workers",
		"Workers currently executing a simulation.")
	fleetPasses := reg.Gauge("udc_fleet_active_passes",
		"Simulation fan-outs in progress (a sweep's or claim's missing seeds, or an extraction miss's source runs).")

	// Fleet-mode (multi-peer) mirrors.  The families exist whatever the
	// configuration — an exposition page's shape should not depend on flags —
	// but per-peer children only appear when fleet mode is on, so single-node
	// daemons keep their exact pre-fleet page (and idle-scrape determinism).
	fleetPeers := reg.Gauge("udc_fleet_peers",
		"Fleet membership size (1 when fleet mode is off).")
	fleetSuspected := reg.Gauge("udc_fleet_suspected_peers",
		"Peers currently suspected by the failure detector.")
	remoteSeeds := reg.Counter("udc_fleet_remote_seeds_total",
		"Seeds resolved by fleet peers' claim RPCs.")
	peerRequests := reg.CounterVec("udc_fleet_peer_requests_total",
		"Claim RPCs issued to each fleet peer (retries included).", "peer")
	peerFailures := reg.CounterVec("udc_fleet_peer_failures_total",
		"Claim RPCs against each fleet peer that failed.", "peer")
	peerRetries := reg.CounterVec("udc_fleet_peer_retries_total",
		"Claim RPC retry attempts against each fleet peer.", "peer")
	peerHedges := reg.CounterVec("udc_fleet_peer_hedges_total",
		"Hedged local recomputes fired while each fleet peer's claim was still outstanding.", "peer")
	peerFallback := reg.CounterVec("udc_fleet_peer_fallback_seeds_total",
		"Seeds recomputed locally because their owning peer's claim failed.", "peer")
	peerSuspected := reg.GaugeVec("udc_fleet_peer_suspected",
		"1 while the failure detector suspects the peer, else 0.", "peer")

	// Process identity.  Start time is a constant so idle scrapes stay
	// byte-identical; scrapers derive uptime as now() - start.
	startSeconds := float64(start.UnixNano()) / 1e9
	reg.GaugeFunc("udc_start_time_seconds",
		"Unix time the daemon started, in seconds.", func() float64 { return startSeconds })
	info := reg.GaugeVec("udc_info",
		"Constant 1, labeled with the engine and codec versions that participate in cache keys.",
		"engine_version", "codec_version")
	info.With(strconv.Itoa(sim.EngineVersion), strconv.Itoa(store.CodecVersion)).Set(1)

	reg.OnCollect(func() {
		ss := sched.Stats()
		requests.Set(ss.Requests)
		servedHit.Set(ss.FullHits)
		servedPartial.Set(ss.PartialHits)
		servedMiss.Set(ss.Misses)
		errorsC.Set(ss.Errors)
		shed.Set(ss.Shed)
		coalesced.Set(ss.Coalesced)
		seedsRequested.Set(ss.SeedsRequested)
		seedsCached.Set(ss.SeedsCached)
		seedsComputed.Set(ss.SeedsComputed)
		seedsCoalesced.Set(ss.SeedsCoalesced)
		jobs.Set(ss.Computed)
		putErrors.Set(ss.PutErrors)
		indexReuses.Set(ss.IndexReuses)
		indexedRunsReused.Set(ss.IndexedRunsReused)

		depth, claims := sched.gauges()
		queueDepth.Set(depth)
		seedClaims.Set(claims)

		ts := st.Stats()
		memHits.Set(ts.MemHits)
		diskHits.Set(ts.DiskHits)
		storeMisses.Set(ts.Misses)
		storePuts.Set(ts.Puts)
		storeCorrupt.Set(ts.CorruptEntries)
		storeEvictions.Set(ts.Evictions)
		bytesWritten.Set(ts.BytesWritten)
		bytesRead.Set(ts.BytesRead)
		memEntries.Set(int64(ts.MemEntries))
		memBytes.Set(ts.MemBytes)

		ls := traces.Stats()
		tracesRecorded.Set(ls.Recorded)
		traceNormal.Set(int64(ls.Normal))
		traceRetained.Set(int64(ls.Retained))

		fleetInflight.Set(workload.Fleet.InflightSeeds.Load())
		fleetBusy.Set(workload.Fleet.BusyWorkers.Load())
		fleetPasses.Set(workload.Fleet.ActivePasses.Load())

		remoteSeeds.Set(ss.SeedsRemote)
		if fc == nil {
			fleetPeers.Set(1)
			fleetSuspected.Set(0)
		} else {
			fleetPeers.Set(int64(len(fc.ring.Peers())))
			suspected := int64(0)
			for _, ph := range fc.health.Snapshot() {
				if ph.State == fleet.StateSuspected {
					suspected++
					peerSuspected.With(ph.Peer).Set(1)
				} else {
					peerSuspected.With(ph.Peer).Set(0)
				}
				peerRequests.With(ph.Peer).Set(ph.Requests)
				peerFailures.With(ph.Peer).Set(ph.Failures)
				peerRetries.With(ph.Peer).Set(ph.Retries)
				peerHedges.With(ph.Peer).Set(ph.Hedges)
				peerFallback.With(ph.Peer).Set(ph.FallbackSeeds)
			}
			fleetSuspected.Set(suspected)
		}
	})
	return m
}

// handleMetrics serves the exposition page.  The route is not itself
// instrumented, so scraping never perturbs the numbers being scraped.
func (m *serverMetrics) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	m.reg.WriteText(w)
}
