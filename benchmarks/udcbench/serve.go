package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/store"
)

// The serving workloads drive in-process server.New daemons behind real
// 127.0.0.1:0 TCP listeners, from C closed-loop client goroutines holding one
// keep-alive connection each.  Daemons run udcd's defaults.  No delay is
// injected between peers: loopback latency is processor time only.

// udcdSlowLog is udcd's -slow-log default.
const udcdSlowLog = 30 * time.Second

// node is one daemon: store, server and listener.
type node struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{} // closed when hs.Serve has returned

	killOnce, stopOnce sync.Once
}

// startNodes boots one daemon per store; two or more form a fleet with
// static membership and fleet.Config's defaults over the real HTTP claim
// transport.  The members go by fixed names (http://peer<i>.udcbench), which
// each daemon's claim client dials as that peer's loopback listener: the
// rendezvous partition hashes the names, so who owns which shard is the same
// on every run, whatever ports the kernel hands out.
func startNodes(stores []*store.Store) ([]*node, error) {
	listeners := make([]net.Listener, len(stores))
	urls := make([]string, len(stores))
	names := make([]string, len(stores))
	listenerOf := make(map[string]string) // name's dial address -> listener address
	closeAll := func() {
		for _, ln := range listeners {
			if ln != nil {
				ln.Close()
			}
		}
	}
	for i := range stores {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, err
		}
		listeners[i] = ln
		urls[i] = "http://" + ln.Addr().String()
		names[i] = fmt.Sprintf("http://peer%d.udcbench", i)
		listenerOf[fmt.Sprintf("peer%d.udcbench:80", i)] = ln.Addr().String()
	}
	dialPeer := func(ctx context.Context, network, addr string) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, network, listenerOf[addr])
	}
	nodes := make([]*node, len(stores))
	for i, st := range stores {
		cfg := server.Config{Store: st, SlowRequest: udcdSlowLog}
		if len(stores) > 1 {
			cfg.Fleet = &fleet.Config{Self: names[i], Peers: append([]string(nil), names...)}
			cfg.FleetTransport = server.NewHTTPClaimTransport(&http.Client{Transport: &http.Transport{DialContext: dialPeer}})
		}
		srv, err := server.New(cfg)
		if err != nil {
			closeAll()
			for _, n := range nodes[:i] {
				n.srv.Close()
			}
			return nil, err
		}
		nodes[i] = &node{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: urls[i], done: make(chan struct{})}
	}
	for i, n := range nodes {
		go func(n *node, ln net.Listener) {
			defer close(n.done)
			n.hs.Serve(ln) // returns ErrServerClosed on kill/stop
		}(n, listeners[i])
	}
	return nodes, nil
}

// kill tears the daemon's listener and live connections down, as a crashed
// peer would; the node stays dead.
func (n *node) kill() {
	n.killOnce.Do(func() {
		n.hs.Close()
		<-n.done
	})
}

// stop kills the node and stops its scheduler.
func (n *node) stop() {
	n.kill()
	n.stopOnce.Do(n.srv.Close)
}

// serverStages is one response's Server-Timing header, in microseconds.
type serverStages struct {
	resolve, claim, compute, assemble, persist float64
	// staged sums every stage the header names (the five above plus the
	// fleet's "remote"); total is the daemon's own request time.
	staged, total float64
}

func (s serverStages) asMap() map[string]float64 {
	return map[string]float64{
		"resolve": s.resolve, "claim": s.claim, "compute": s.compute,
		"assemble": s.assemble, "persist": s.persist, "total": s.total,
	}
}

// parseServerTiming reads `resolve;dur=0.012, ..., total;dur=0.050, cache;desc="hit"`.
func parseServerTiming(h string) serverStages {
	var s serverStages
	for _, part := range strings.Split(h, ",") {
		name, rest, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
		if !ok {
			continue
		}
		ms, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			continue
		}
		us := ms * 1000
		switch name {
		case "total":
			s.total = us
			continue
		case "resolve":
			s.resolve = us
		case "claim":
			s.claim = us
		case "compute":
			s.compute = us
		case "assemble":
			s.assemble = us
		case "persist":
			s.persist = us
		}
		s.staged += us
	}
	return s
}

// client is one closed-loop caller: its own connection pool of one.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{
		MaxIdleConns: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

var acceptOf = map[string]string{
	wireBin:      "application/x-udc-bin",
	wireJSON:     "application/json",
	"ndjson":     "application/x-ndjson",
	"bin-stream": "application/x-udc-bin-stream",
}

func sweepURLs(base string, ops []sweepOp) []string {
	urls := make([]string, len(ops))
	for i, op := range ops {
		urls[i] = fmt.Sprintf("%s/v1/sweep?scenario=%s&seeds=%d&seedBase=%d", base, serveScenarios[op.scenario], op.count, seedAt(op.pos))
	}
	return urls
}

// get issues one request and reads the whole body into c.buf.  The clock
// stops when the last body byte has arrived.
func (c *client) get(url, accept string) (status int, header http.Header, latency time.Duration, start time.Time, err error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, 0, time.Time{}, err
	}
	req.Header.Set("Accept", accept)
	start = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), start, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	latency = time.Since(start)
	resp.Body.Close()
	return resp.StatusCode, resp.Header, latency, start, err
}

// sweep runs one op.  A non-200, a transport error or (judged later, from
// crc) any differing body byte fails it.
func (c *client) sweep(url string, op sweepOp, traced bool) opResult {
	status, header, latency, start, err := c.get(url, acceptOf[op.wire])
	r := opResult{start: start, latency: latency, seeds: op.count, class: op.class}
	if err != nil || status != http.StatusOK {
		r.failed = true
		return r
	}
	r.crc = crcOf(c.buf.Bytes())
	r.cache = header.Get("X-Cache")
	if traced {
		r.traceID = header.Get("X-Trace-Id")
		r.stages = parseServerTiming(header.Get("Server-Timing"))
	}
	return r
}

// driveOps issues ops (urls[i] is op i's request) from the closed-loop
// clients, which pull from one shared cursor, so ops are issued in list
// order.  before(i), when set, runs on the issuing client just before op i is
// sent.
func driveOps(clients []*client, urls []string, ops []sweepOp, traced bool, before func(i int)) []opResult {
	results := make([]opResult, len(ops))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				if before != nil {
					before(i)
				}
				results[i] = cl.sweep(urls[i], ops[i], traced)
			}
		}(cl)
	}
	wg.Wait()
	return results
}

// tempDirs tracks every store directory this process created, so main can
// remove them on any exit path.
var tempDirs struct {
	mu   sync.Mutex
	dirs map[string]bool
	seq  int
}

func newTempDir(outDir, label string) (string, error) {
	tempDirs.mu.Lock()
	tempDirs.seq++
	dir := filepath.Join(outDir, "tmp", fmt.Sprintf("%s-%d-%d", label, os.Getpid(), tempDirs.seq))
	if tempDirs.dirs == nil {
		tempDirs.dirs = make(map[string]bool)
	}
	tempDirs.dirs[dir] = true
	tempDirs.mu.Unlock()
	return dir, os.MkdirAll(dir, 0o755)
}

func removeTempDir(dir string) {
	os.RemoveAll(dir)
	tempDirs.mu.Lock()
	delete(tempDirs.dirs, dir)
	tempDirs.mu.Unlock()
}

func removeAllTempDirs() {
	tempDirs.mu.Lock()
	dirs := tempDirs.dirs
	tempDirs.dirs = nil
	tempDirs.mu.Unlock()
	for dir := range dirs {
		os.RemoveAll(dir)
	}
}

// serveEnv is the environment of one serving workload: the daemons, their
// clients, and where the next round's ops come from.
type serveEnv struct {
	cfg     runConfig
	nodes   []*node
	clients []*client
	dirs    []string

	// Corpus workloads (serve-warm, serve-disk) draw a fresh op list per
	// round against the corpus reference; cold workloads replay fixed lists.
	gen       *corpusGen
	ref       *corpusReference
	ops       []sweepOp
	urls      []string
	warmupOps []sweepOp
	// distinct is how many distinct seeds ops and warmupOps cover (cold
	// workloads: exactly what one daemon must compute).
	distinct int

	// killAt, on fleet-3, is the op index at whose issue peer 2 is killed.
	killAt int
	killed struct {
		at    time.Time
		stats server.SchedulerStats
	}

	// base and baseBuckets are the daemons' counters and the coordinator's
	// sweep latency histogram (traced rounds only) before the round, so the
	// round's own share can be told apart.
	base        serveCounters
	baseBuckets []obs.Bucket
}

// serveCounters snapshots the daemons' own counters (public accessors and
// endpoints only).
type serveCounters struct {
	sched []server.SchedulerStats
	store []store.Stats
}

func (e *serveEnv) counters() serveCounters {
	var c serveCounters
	for _, n := range e.nodes {
		c.sched = append(c.sched, n.srv.SchedulerStats())
		c.store = append(c.store, n.srv.Store().Stats())
	}
	return c
}

func (e *serveEnv) coordinator() *node { return e.nodes[0] }

func (e *serveEnv) close() {
	for _, cl := range e.clients {
		cl.close()
	}
	for _, n := range e.nodes {
		n.stop()
	}
	for _, dir := range e.dirs {
		removeTempDir(dir)
	}
}

// driveChecked runs ops against the coordinator and fails on any op that
// does not check out; set-up and warm-up traffic goes through it.
func (e *serveEnv) driveChecked(what string, ops []sweepOp) error {
	results := driveOps(e.clients, sweepURLs(e.coordinator().url, ops), ops, false, nil)
	for i, r := range results {
		if r.failed || (ops[i].verify && r.crc != ops[i].want) {
			return fmt.Errorf("%s: op %d (%s) failed or differs from the serial reference", what, i, ops[i])
		}
	}
	return nil
}

func (e *serveEnv) warmup() error {
	if e.gen != nil {
		// Corpus workloads warm up on ops of the kind they time.
		ops := e.nextCorpusRound()
		return e.driveChecked("warm-up", ops[:warmupCount(len(ops))])
	}
	return e.driveChecked("warm-up", e.warmupOps)
}

func (e *serveEnv) nextCorpusRound() []sweepOp {
	var ops []sweepOp
	if e.cfg.workload == wlServeWarm {
		ops = e.gen.warmRound()
	} else {
		ops = e.gen.diskRound()
	}
	for i := range ops {
		e.ref.want(&ops[i])
	}
	return ops
}

func (e *serveEnv) prepare(traced bool) {
	if e.gen != nil {
		e.ops = e.nextCorpusRound()
	}
	e.urls = sweepURLs(e.coordinator().url, e.ops)
	e.base = e.counters()
	if traced {
		e.baseBuckets, _, _ = e.scrapeSweepBuckets()
	}
}

func (e *serveEnv) round(traced bool) []opResult {
	var before func(int)
	if e.killAt >= 0 {
		before = func(i int) {
			if i == e.killAt {
				e.killed.stats = e.coordinator().srv.SchedulerStats()
				e.nodes[2].kill()
				e.killed.at = time.Now()
			}
		}
	}
	return driveOps(e.clients, e.urls, e.ops, traced, before)
}

// check compares the delivered bytes with the references and asserts the
// accounting identities the daemons promise, over the round just run.  Every
// string returned is a correctness breach.
func (e *serveEnv) check(r roundResult, counts *layerCounts) []string {
	for i := range r.ops {
		if e.ops[i].verify && r.ops[i].crc != e.ops[i].want {
			r.ops[i].failed = true
		}
	}
	var breaches []string
	breach := func(format string, args ...any) { breaches = append(breaches, fmt.Sprintf(format, args...)) }
	now := e.counters()
	var computed, corrupt uint64
	for i := range e.nodes {
		s := now.sched[i]
		if s.SeedsCached+s.SeedsComputed+s.SeedsCoalesced+s.SeedsRemote != s.SeedsRequested {
			breach("node %d: cached+computed+coalesced+remote = %d, requested = %d", i,
				s.SeedsCached+s.SeedsComputed+s.SeedsCoalesced+s.SeedsRemote, s.SeedsRequested)
		}
		if s.FullHits+s.PartialHits+s.Misses+s.Errors != s.Requests {
			breach("node %d: hits+partials+misses+errors = %d, requests = %d", i,
				s.FullHits+s.PartialHits+s.Misses+s.Errors, s.Requests)
		}
		computed += s.SeedsComputed
		corrupt += now.store[i].CorruptEntries
	}
	if corrupt != 0 {
		breach("store.corrupt_entries = %d, want 0", corrupt)
	}
	roundComputed := now.sched[0].SeedsComputed - e.base.sched[0].SeedsComputed
	switch e.cfg.workload {
	case wlServeWarm, wlServeDisk:
		if roundComputed != 0 {
			breach("%s simulated %d seeds in a round; the corpus covers every request", e.cfg.workload, roundComputed)
		}
	case wlServeCold:
		if computed != uint64(e.distinct) {
			breach("serve-cold computed %d seeds for %d distinct ones", computed, e.distinct)
		}
	case wlFleet3:
		if computed < uint64(e.distinct) {
			breach("fleet-3 computed %d seeds for %d distinct ones", computed, e.distinct)
		}
	}
	if r.traced {
		counts.add(e, r, now)
	}
	return breaches
}

// fleetInfo fetches a node's /v1/fleet body.
func fleetInfo(cl *client, n *node) (server.FleetResponse, error) {
	var resp server.FleetResponse
	status, _, _, _, err := cl.get(n.url+"/v1/fleet", "application/json")
	if err != nil {
		return resp, err
	}
	if status != http.StatusOK {
		return resp, fmt.Errorf("/v1/fleet: HTTP %d", status)
	}
	return resp, json.Unmarshal(cl.buf.Bytes(), &resp)
}

// openStores opens n stores; with onDisk each gets its own temp directory
// under the benchmark's out directory.
func (e *serveEnv) openStores(n int, onDisk bool, opts store.Options) ([]*store.Store, error) {
	stores := make([]*store.Store, n)
	for i := range stores {
		dir := ""
		if onDisk {
			var err error
			if dir, err = newTempDir(e.cfg.outDir, e.cfg.workload); err != nil {
				return nil, err
			}
			e.dirs = append(e.dirs, dir)
		}
		st, err := store.Open(dir, opts)
		if err != nil {
			return nil, err
		}
		stores[i] = st
	}
	return stores, nil
}

func newServeEnv(cfg runConfig) *serveEnv {
	e := &serveEnv{cfg: cfg, killAt: -1}
	for i := 0; i < cfg.c; i++ {
		e.clients = append(e.clients, newClient())
	}
	return e
}

// setupCorpus builds serve-warm or serve-disk: serial reference, corpus
// priming through the daemon's own miss path (every priming response is
// byte-checked too), one touch of each hot window so exact repeats meet a
// window record, and — for serve-disk — a restart on the filled directory
// under the default LRU.
func setupCorpus(cfg runConfig) (_ env, err error) {
	name := cfg.workload
	e := newServeEnv(cfg)
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if e.ref, err = newCorpusReference(cfg.c, cfg.sz.CorpusPositions); err != nil {
		return nil, err
	}
	e.gen = newCorpusGen(cfg.seed, name, cfg.sz)

	opts := store.Options{}
	if name == wlServeWarm {
		// Sized to hold everything: the memory layer never evicts.
		opts = store.Options{MaxMemEntries: 1 << 16, MaxMemBytes: 1 << 30}
	}
	stores, err := e.openStores(1, name == wlServeDisk, opts)
	if err != nil {
		return nil, err
	}
	if e.nodes, err = startNodes(stores); err != nil {
		return nil, err
	}
	priming := primingOps(cfg.sz)
	for i := range priming {
		priming[i].verify = true
		e.ref.want(&priming[i])
	}
	if err = e.driveChecked("priming", priming); err != nil {
		return nil, err
	}
	if name == wlServeDisk {
		// Reopen: the corpus is on disk, the memory layer starts empty.
		dir := stores[0].Dir()
		e.nodes[0].stop()
		for _, cl := range e.clients {
			cl.close()
		}
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			return nil, err
		}
		if e.nodes, err = startNodes([]*store.Store{st}); err != nil {
			return nil, err
		}
		return e, nil
	}
	hot := append([]sweepOp(nil), e.gen.hot...)
	for i := range hot {
		hot[i].wire = wireBin
		e.ref.want(&hot[i])
	}
	return e, e.driveChecked("hot-window touch", hot)
}

// setupCold builds serve-cold (one daemon) or fleet-3 (three): fresh disk
// stores under the default LRU, the fixed op list, and serial references for
// its verified sample.
func setupCold(cfg runConfig) (_ env, err error) {
	e := newServeEnv(cfg)
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	e.ops = coldOps(cfg.sz, 0, cfg.seed)
	e.warmupOps = coldOps(cfg.sz, coldWarmupPos, cfg.seed)[:warmupCount(len(e.ops))]
	for i := range e.warmupOps {
		e.warmupOps[i].verify = false
	}
	seen := make(map[[2]int]bool)
	for _, ops := range [][]sweepOp{e.ops, e.warmupOps} {
		for _, op := range ops {
			for p := op.pos; p < op.pos+op.count; p++ {
				seen[[2]int{op.scenario, p}] = true
			}
		}
	}
	e.distinct = len(seen)
	if err = sampleReference(cfg.c, e.ops); err != nil {
		return nil, err
	}
	peers := 1
	if cfg.workload == wlFleet3 {
		peers = 3
		e.killAt = len(e.ops) / 2
	}
	stores, err := e.openStores(peers, true, store.Options{})
	if err != nil {
		return nil, err
	}
	e.nodes, err = startNodes(stores)
	return e, err
}

// scrapeSweepBuckets reads the coordinator's /metrics and returns the
// cumulative /v1/sweep latency buckets, with the scrape's cost.
func (e *serveEnv) scrapeSweepBuckets() (buckets []obs.Bucket, latency time.Duration, size int) {
	cl := e.clients[0]
	status, _, latency, _, err := cl.get(e.coordinator().url+"/metrics", "text/plain")
	if err != nil || status != http.StatusOK {
		return nil, 0, 0
	}
	size = cl.buf.Len()
	samples, err := obs.ParseText(cl.buf.Bytes())
	if err != nil {
		return nil, latency, size
	}
	return obs.Buckets(samples, "udc_http_request_duration_seconds", "route", "/v1/sweep"), latency, size
}
