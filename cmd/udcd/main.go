// Command udcd is the sweep/extraction service daemon: it serves the
// catalogued scenarios and knowledge-extraction pipelines over an HTTP JSON
// API backed by the content-addressed run-corpus store.  Identical requests
// are answered from the cache (or coalesced while in flight), distinct
// concurrent sweeps take turns on the shared worker fleet, one pass at a
// time, and every response is byte-identical to a direct serial computation.
//
// Usage:
//
//	udcd -addr 127.0.0.1:8080 -store .udcd-store
//	udcd -addr 127.0.0.1:0                 # random port, printed on startup
//	udcd -stats -addr 127.0.0.1:8080       # print a running daemon's counters
//	udcsim -remote http://127.0.0.1:8080 -scenario prop3.1-strong-udc -sweep 64
//	fdextract -remote http://127.0.0.1:8080 -scenario kx-perfect
//
// Endpoints: /healthz (liveness), /readyz (readiness; 503 while draining),
// /v1/sweep, /v1/extract, /v1/scenarios, /v1/adversaries, /v1/stats,
// /v1/corpus (shard occupancy + per-source seed traffic), /v1/fleet (fleet
// membership + peer health), /v1/claim (fleet-internal), /metrics
// (Prometheus text exposition), /debug/traces and /debug/traces/<id> (the
// request trace log), and — with -pprof — /debug/pprof/*.
//
// Fleet mode (-fleet-peers with -fleet-self) shards the 256-way seed-record
// prefix space across peers by rendezvous hashing: seeds owned by a remote
// peer are claimed there over the binary wire, failures fall back to local
// recompute (responses stay byte-identical to a single cold daemon), and a
// consecutive-failure detector with half-open probes keeps suspected peers
// out of the request path.
//
// On SIGINT/SIGTERM the daemon drains before exiting: /readyz flips to 503,
// new sweep/extract/claim work is shed with 503 + Retry-After, and in-flight
// requests (streams included) are given -drain-timeout to finish.
//
// The sweep and extract routes content-negotiate: JSON (the default), the
// store's binary codec container (Accept: application/x-udc-bin or
// ?format=bin, served byte-for-byte with no re-encode), streamed NDJSON
// (application/x-ndjson, one outcome per line plus a trailer record), and —
// for sweeps — length-prefixed binary frames (application/x-udc-bin-stream).
// -rate-limit, -max-queue and -request-timeout add admission control: shed
// requests answer 429 with a Retry-After hint while everything admitted is
// served to completion.
//
// Every sweep/extract response carries an X-Trace-Id header (a client's W3C
// `traceparent` header is honoured); the finished trace — stage breakdown,
// seed accounting, span links to coalesced owners — is retrievable from
// /debug/traces/<id>.  Slow requests log as structured records keyed by
// trace ID; -log-format picks text or JSON.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "udcd:", err)
		os.Exit(1)
	}
}

type options struct {
	addr       string
	storeDir   string
	workers    int
	memEntries int
	memBytes   int64
	stats      bool
	pprof      bool
	slowLog    time.Duration
	logFormat  string
	traceLog   int
	rateLimit  float64
	rateBurst  int
	maxQueue   int
	reqTimeout time.Duration

	drainTimeout time.Duration
	fleetPeers   string
	fleetSelf    string
	fleetHedge   time.Duration
	fleetSuspect int
	fleetProbe   time.Duration
}

func parseOptions(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("udcd", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8080", "listen address (port 0 picks a free port, printed on startup)")
	fs.StringVar(&o.storeDir, "store", ".udcd-store", "run-corpus store directory (empty = memory-only, nothing persisted)")
	fs.IntVar(&o.workers, "workers", 0, "worker-fleet size shared by all computations (0 = GOMAXPROCS)")
	fs.IntVar(&o.memEntries, "mem-entries", 0, "in-memory cache entry bound (0 = 256, negative disables the memory layer)")
	fs.Int64Var(&o.memBytes, "mem-bytes", 0, "in-memory cache byte bound (0 = 64 MiB)")
	fs.BoolVar(&o.stats, "stats", false, "query the daemon running at -addr for its counters (full/partial/miss hits, seed traffic, store layers) and exit")
	fs.BoolVar(&o.pprof, "pprof", false, "mount net/http/pprof profiling handlers under /debug/pprof/")
	fs.DurationVar(&o.slowLog, "slow-log", 30*time.Second, "log requests slower than this with their stage trace, and always retain their traces in the trace log (0 disables)")
	fs.StringVar(&o.logFormat, "log-format", "text", "structured log encoding on stderr: text or json")
	fs.IntVar(&o.traceLog, "trace-log", 0, "trace log capacity: retains this many tail-sampled traces plus as many slow/errored ones (0 = 512)")
	fs.Float64Var(&o.rateLimit, "rate-limit", 0, "per-client sweep/extract requests per second; shed with 429 + Retry-After past the burst (0 disables)")
	fs.IntVar(&o.rateBurst, "rate-burst", 0, "per-client burst allowance for -rate-limit (0 = twice the rate)")
	fs.IntVar(&o.maxQueue, "max-queue", 0, "shed compute requests with 429 when this many fleet jobs are already pending; cache hits always served (0 disables)")
	fs.DurationVar(&o.reqTimeout, "request-timeout", 0, "server-side deadline per sweep/extract request; exceeding it answers 503 and releases claimed seeds (0 disables)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 10*time.Second, "how long to wait for in-flight requests after SIGINT/SIGTERM before forcing shutdown")
	fs.StringVar(&o.fleetPeers, "fleet-peers", "", "comma-separated fleet membership (base URLs, self included); empty = single-node")
	fs.StringVar(&o.fleetSelf, "fleet-self", "", "this daemon's own base URL, exactly as it appears in -fleet-peers")
	fs.DurationVar(&o.fleetHedge, "fleet-hedge", 0, "hedge outstanding remote claims with a local recompute after this long (0 = 500ms, negative disables)")
	fs.IntVar(&o.fleetSuspect, "fleet-suspect-after", 0, "consecutive claim failures before a peer is suspected (0 = 3)")
	fs.DurationVar(&o.fleetProbe, "fleet-probe-interval", 0, "spacing of half-open probes to suspected peers (0 = 3s)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	return o, nil
}

// printStats renders /v1/stats of a running daemon: request classification
// (full hits / partial hits / misses), seed-granular traffic, fleet activity
// and the store's layer counters.
func printStats(w io.Writer, baseURL string) error {
	client := &server.Client{BaseURL: baseURL}
	stats, err := client.Stats()
	if err != nil {
		return err
	}
	sch, st := stats.Scheduler, stats.Store
	fmt.Fprintf(w, "requests=%d fullHits=%d partialHits=%d misses=%d coalesced=%d errors=%d\n",
		sch.Requests, sch.FullHits, sch.PartialHits, sch.Misses, sch.Coalesced, sch.Errors)
	fmt.Fprintf(w, "seeds: requested=%d cached=%d computed=%d coalesced=%d remote=%d\n",
		sch.SeedsRequested, sch.SeedsCached, sch.SeedsComputed, sch.SeedsCoalesced, sch.SeedsRemote)
	fmt.Fprintf(w, "fleet: jobs=%d putErrors=%d\n", sch.Computed, sch.PutErrors)
	fmt.Fprintf(w, "store: memHits=%d diskHits=%d misses=%d puts=%d corrupt=%d evictions=%d memEntries=%d memBytes=%d\n",
		st.MemHits, st.DiskHits, st.Misses, st.Puts, st.CorruptEntries, st.Evictions, st.MemEntries, st.MemBytes)
	fmt.Fprintf(w, "versions: engine=%d codec=%d\n", stats.EngineVersion, stats.CodecVersion)
	printMetricsSummary(w, client, sch)
	printTraceSummary(w, client)
	printCorpusSummary(w, client)
	return nil
}

// printTraceSummary enriches -stats with the slowest recent traces from
// /debug/traces.  Older daemons do not serve the endpoint; the block is just
// omitted then, like the metrics summary.
func printTraceSummary(w io.Writer, client *server.Client) {
	traces, err := client.Traces(256)
	if err != nil || len(traces) == 0 {
		return
	}
	sort.Slice(traces, func(i, j int) bool { return traces[i].TotalMillis > traces[j].TotalMillis })
	n := len(traces)
	if n > 5 {
		n = 5
	}
	fmt.Fprintf(w, "slowest traces (of %d logged):\n", len(traces))
	for _, t := range traces[:n] {
		outcome := t.Cache
		if t.Error != "" {
			outcome = "error"
		}
		fmt.Fprintf(w, "  %s %s %.1fms cache=%s\n", t.ID, t.Route, t.TotalMillis, outcome)
	}
}

// printCorpusSummary enriches -stats with the corpus census from /v1/corpus:
// totals plus the highest-occupancy shards.  Omitted when the endpoint is
// absent or the corpus is memory-only.
func printCorpusSummary(w io.Writer, client *server.Client) {
	corpus, err := client.Corpus()
	if err != nil {
		return
	}
	if corpus.Disk.Entries > 0 {
		fmt.Fprintf(w, "corpus: entries=%d bytes=%d shards=%d\n",
			corpus.Disk.Entries, corpus.Disk.Bytes, len(corpus.Disk.Shards))
		shards := append([]store.ShardInfo(nil), corpus.Disk.Shards...)
		sort.Slice(shards, func(i, j int) bool { return shards[i].Entries > shards[j].Entries })
		n := len(shards)
		if n > 3 {
			n = 3
		}
		for _, sh := range shards[:n] {
			fmt.Fprintf(w, "  shard %s: entries=%d bytes=%d\n", sh.Shard, sh.Entries, sh.Bytes)
		}
	}
	for _, src := range corpus.Sources {
		fmt.Fprintf(w, "source %s adversary=%q: cached=%d computed=%d coalesced=%d seeds=[%d,%d]\n",
			src.Source, src.Adversary, src.SeedsCached, src.SeedsComputed, src.SeedsCoalesced, src.MinSeed, src.MaxSeed)
	}
}

// printMetricsSummary enriches -stats with the /metrics view of the daemon:
// uptime, per-route latency quantiles (aggregated across cache grades) and
// cache-grade ratios.  A scrape failure just omits the block — the core
// counters above never depend on it.
func printMetricsSummary(w io.Writer, client *server.Client, sch server.SchedulerStats) {
	samples, err := client.Metrics()
	if err != nil {
		return
	}
	if start, ok := obs.Value(samples, "udc_start_time_seconds"); ok {
		uptime := time.Since(time.Unix(0, int64(start*1e9))).Truncate(time.Second)
		fmt.Fprintf(w, "uptime: %s\n", uptime)
	}
	for _, route := range []string{"/v1/sweep", "/v1/extract"} {
		buckets := obs.Buckets(samples, "udc_http_request_duration_seconds", "route", route)
		if len(buckets) == 0 {
			continue
		}
		count := buckets[len(buckets)-1].CumulativeCount
		if count == 0 {
			continue
		}
		fmt.Fprintf(w, "latency %s: count=%d p50=%s p99=%s\n", route, count,
			fmtSeconds(obs.Quantile(0.5, buckets)), fmtSeconds(obs.Quantile(0.99, buckets)))
	}
	if served := sch.FullHits + sch.PartialHits + sch.Misses; served > 0 {
		pct := func(n uint64) float64 { return 100 * float64(n) / float64(served) }
		fmt.Fprintf(w, "cache: hit=%.1f%% partial=%.1f%% miss=%.1f%%\n",
			pct(sch.FullHits), pct(sch.PartialHits), pct(sch.Misses))
	}
}

// fmtSeconds renders a latency quantile (in seconds) as a duration; bucket
// interpolation means the value is an estimate, so millisecond precision is
// plenty.
func fmtSeconds(s float64) string {
	if math.IsNaN(s) {
		return "n/a"
	}
	return time.Duration(s * float64(time.Second)).Round(10 * time.Microsecond).String()
}

// buildLogger assembles the daemon's structured logger on stderr in the
// requested encoding.
func buildLogger(format string) (*slog.Logger, error) {
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (text or json)", format)
}

// buildServer opens the store and assembles the daemon; split out so tests
// can exercise the full wiring without binding a socket.
func buildServer(o options) (*server.Server, error) {
	st, err := store.Open(o.storeDir, store.Options{MaxMemEntries: o.memEntries, MaxMemBytes: o.memBytes})
	if err != nil {
		return nil, err
	}
	logger, err := buildLogger(o.logFormat)
	if err != nil {
		return nil, err
	}
	var fc *fleet.Config
	if o.fleetPeers != "" {
		var peers []string
		for _, p := range strings.Split(o.fleetPeers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
		fc = &fleet.Config{
			Self:          o.fleetSelf,
			Peers:         peers,
			HedgeDelay:    o.fleetHedge,
			SuspectAfter:  o.fleetSuspect,
			ProbeInterval: o.fleetProbe,
		}
	}
	return server.New(server.Config{
		Store:          st,
		Workers:        o.workers,
		Pprof:          o.pprof,
		SlowRequest:    o.slowLog,
		Logger:         logger,
		TraceCapacity:  o.traceLog,
		RateLimit:      o.rateLimit,
		RateBurst:      o.rateBurst,
		MaxQueue:       o.maxQueue,
		RequestTimeout: o.reqTimeout,
		Fleet:          fc,
	})
}

func run(args []string, w io.Writer) error {
	o, err := parseOptions(args)
	if err != nil {
		return err
	}
	if o.stats {
		return printStats(w, "http://"+o.addr)
	}
	srv, err := buildServer(o)
	if err != nil {
		return err
	}
	defer srv.Close()

	// Listen before announcing, so -addr :0 can print the resolved port and
	// scripts can scrape it from the first output line.
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	storeDesc := o.storeDir
	if storeDesc == "" {
		storeDesc = "(memory-only)"
	}
	fmt.Fprintf(w, "udcd listening on http://%s store=%s workers=%d\n", ln.Addr(), storeDesc, o.workers)

	httpServer := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpServer.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		// Drain, then shut down: readiness flips to 503 and new corpus work
		// is shed immediately, while everything already admitted — streams
		// included — gets -drain-timeout to finish.  Only then is the HTTP
		// server torn down, so a clean drain never cuts a response short.
		fmt.Fprintf(w, "udcd: received %v, draining\n", sig)
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
		defer cancel()
		if derr := srv.Drain(ctx); derr != nil {
			fmt.Fprintf(w, "udcd: drain timed out with %d requests in flight\n", srv.ActiveRequests())
		} else {
			fmt.Fprintf(w, "udcd: drained cleanly\n")
		}
		return httpServer.Shutdown(ctx)
	}
}
