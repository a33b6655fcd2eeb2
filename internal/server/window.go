package server

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/workload"
)

// seedHow records how one slot of a window was obtained.
type seedHow uint8

const (
	seedOpen     seedHow = iota // not resolved yet
	seedCached                  // decoded from a per-seed corpus record
	seedComputed                // claimed by this request and simulated here
	seedJoined                  // joined from a concurrent request's claim
	seedRemote                  // resolved by a fleet peer's claim RPC
)

// window is one request's resolution of a seed window against the corpus —
// the seed-granular heart of the scheduler.  The caller fills the request
// half and calls resolve, which splits the window into (cached ∪ in-flight ∪
// missing) and runs the stages in order: readCorpus decodes cached seeds from
// per-seed records; claim registers the rest in the flight table — atomically,
// so no two requests compute the same seed — joining any already in flight;
// computeOwned simulates this request's claims (computeLocal: one fleet pass,
// written back as per-seed records; launchClaims / collectClaims: fleet
// peers' claim RPCs, with hedge and fallback); collectJoins gathers what
// concurrent requests computed; account tallies the result.
//
// All resolution state is indexed by slot — position i of the request's seed
// list — so the outcomes are in request order by construction, whatever order
// the seeds resolved in and however often a seed repeats.  Everything runs on
// the request's own goroutine (tr and emit are not concurrency-safe).
type window struct {
	s   *scheduler
	ctx context.Context
	// source namespaces the per-seed keys ("scenario:" + catalog name).
	source    string
	adversary string
	spec      workload.Spec
	// eval scores the runs; nil simulates without scoring.
	eval  workload.Evaluator
	seeds []int64
	// localOnly forces everything local — set on claim handling, so claims
	// never recurse across the fleet.
	localOnly bool
	// tr (nil-safe) accumulates the stage timings: corpus reads under
	// "resolve", flight-table claims under "claim", fleet waits under
	// "compute", peers' claims under "remote", per-seed record writes under
	// "persist" and the final tally under "assemble".
	tr *obs.Trace
	// emit, when non-nil, observes every outcome as its slot settles — cached
	// seeds during the corpus read, computed and remote seeds when their pass
	// or claim lands, joined seeds as their owners publish them; it is how
	// streamed responses flush progressively.
	emit func(workload.RunOutcome)

	*slots
	// owned counts the non-nil calls.
	owned int
}

// slots is a window's per-slot state.  It comes from slotPool when resolve
// starts and goes back once sweepRecord has encoded the outcomes: a 64-seed
// window's is ≈ 11 KB, and nothing outlives the window in it, since settle
// hands each outcome on by value.
type slots struct {
	keys     []store.Key
	outcomes []workload.RunOutcome
	how      []seedHow
	// calls[i] is the flight entry this request owns for slot i, nil before
	// the claim and again once published.
	calls []*seedCall
}

var slotPool = sync.Pool{New: func() any { return new(slots) }}

// zeroed returns s resized to n zero elements, reusing its array if it can.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// join is one slot waiting on a concurrent request's flight entry.
type join struct {
	slot int
	call *seedCall
}

// resolve runs the stages.  ctx bounds the computation: an expired context
// sheds unclaimed work and releases this request's seed claims; joiners of
// those claims do not inherit this request's failure.
//
// The loop exists for the joiners: a joined owner can fail with an error that
// is local to it (its fleet job was shed by the admission gate, or its client
// disconnected and its context expired), which says nothing about this
// request.  Those slots stay open and the next pass re-claims them — an owner
// deregisters its flight entries before publishing failure, so the retry
// either becomes the owner, earning this request's own admission verdict, or
// joins a fresh owner.  Passes are bounded; an owner-local error that survives
// them is re-tagged by coalesceUpstream so the joiner's client is answered
// with a retryable 503 rather than a status it never earned.  This request's
// own runPass errors propagate unmodified.
func (w *window) resolve() (obs.SeedCounts, error) {
	n := len(w.seeds)
	w.slots = slotPool.Get().(*slots)
	w.keys = store.AppendSeedKeys(w.keys[:0], w.source, w.adversary, w.seeds)
	w.outcomes = zeroed(w.outcomes, n)
	w.how = zeroed(w.how, n)
	w.calls = zeroed(w.calls, n)
	w.readCorpus()
	var err error
	for pass, retry := 1, true; retry && err == nil; pass++ {
		owned, joins := w.claim()
		if len(owned) == 0 && len(joins) == 0 {
			break
		}
		err = w.computeOwned(owned)
		retry, err = w.collectJoins(joins, pass, err)
	}
	if err != nil {
		return obs.SeedCounts{}, err
	}
	return w.account()
}

// settle resolves slot i: the outcome is recorded and streamed, and the
// flight entry this request owns for the slot, if any, carries it to its
// joiners.
func (w *window) settle(i int, how seedHow, out workload.RunOutcome) {
	w.outcomes[i], w.how[i] = out, how
	if w.emit != nil {
		w.emit(out)
	}
	if c := w.calls[i]; c != nil {
		c.outcome = out
		w.publish(i)
	}
}

// release gives up the slots among idxs this request still owns, publishing
// err; joiners inspect it (ownerLocal) to decide whether to re-claim.
func (w *window) release(idxs []int, err error) {
	for _, i := range idxs {
		if c := w.calls[i]; c != nil {
			c.err = err
			w.publish(i)
		}
	}
}

// publish hands slot i's flight entry to its joiners: deregistered first, then
// closed, so whoever observes the result can already re-claim the key.
// Clearing calls[i] is what keeps the hedge and late remote results from
// publishing a slot twice.
func (w *window) publish(i int) {
	c := w.calls[i]
	w.calls[i] = nil
	w.owned--
	w.s.mu.Lock()
	delete(w.s.seedflight, w.keys[i])
	w.s.mu.Unlock()
	close(c.done)
}

// open filters idxs down to the slots this request still owns.
func (w *window) open(idxs []int) []int {
	var open []int
	for _, i := range idxs {
		if w.calls[i] != nil {
			open = append(open, i)
		}
	}
	return open
}

// adopt settles slot i from the outcome record stored under its key.  A
// checksum-clean payload that fails to decode, or carries another seed, is an
// incompatible record (a different kind under the key, e.g. a run-carrying
// seed record an older daemon stored for a sweep): adopt reports false and
// the seed is recomputed and overwritten.
func (w *window) adopt(i int, payload []byte) bool {
	out, err := store.DecodeOutcome(payload)
	if err != nil || out.Seed != w.seeds[i] {
		return false
	}
	w.settle(i, seedCached, out)
	return true
}

// readCorpus settles every slot whose per-seed record is in the corpus.
func (w *window) readCorpus() {
	span := w.tr.Span("resolve")
	defer span.End()
	for i, payload := range w.s.store.GetMulti(w.keys) {
		if payload != nil {
			w.adopt(i, payload)
		}
	}
}

// claim registers a flight entry for every open slot, or joins the entry a
// concurrent request already holds, and returns the slots this request now
// owns and must compute plus the joins it must collect.
func (w *window) claim() (owned []int, joins []join) {
	span := w.tr.Span("claim")
	defer span.End()
	w.s.mu.Lock()
	for i, how := range w.how {
		if how != seedOpen {
			continue
		}
		if c, ok := w.s.seedflight[w.keys[i]]; ok {
			joins = append(joins, join{slot: i, call: c})
			continue
		}
		c := &seedCall{done: make(chan struct{}), owner: w.tr.TraceIDOrZero()}
		w.s.seedflight[w.keys[i]] = c
		w.calls[i] = c
		w.owned++
		owned = append(owned, i)
	}
	w.s.mu.Unlock()

	// An identical seed may have been computed and stored between our batch
	// read and the flight registration; it was stored before its call
	// deregistered, so one uncounted probe per claimed seed closes the race
	// and keeps overlapping requests at exactly one computation per seed.
	stillOwned := owned[:0]
	for _, i := range owned {
		if payload, ok := w.s.store.Probe(w.keys[i]); !ok || !w.adopt(i, payload) {
			stillOwned = append(stillOwned, i)
		}
	}
	return stillOwned, joins
}

// computeOwned simulates the claimed slots — remote-owned scenario seeds via
// their peers' claim RPCs, launched first so they overlap the local pass, the
// rest in one local fleet pass — and publishes every one of them
// (outcome or failure) to any requests that joined.  Failed, suspect or slow
// peers degrade to local recompute (see the fleet commentary in fleet.go), so
// the resolution is identical either way.
func (w *window) computeOwned(owned []int) error {
	if len(owned) == 0 {
		return nil
	}
	local := owned
	var groups map[string][]int
	if w.s.fleet != nil && !w.localOnly {
		local, groups = w.s.fleet.partition(w.keys, owned)
	}
	claims := w.launchClaims(groups)
	err := w.computeLocal(local)
	if claims != nil {
		err = w.collectClaims(groups, claims, err)
	}
	return err
}

// computeLocal simulates idxs in one fleet pass of its own (runPass), persists
// their outcomes as per-seed records and settles them.  It serves the local
// partition, the hedge, and degraded-mode fallback alike; a failed pass
// releases the slots with the failure.  SweepAll scores each run where its
// engine recorded it, so no run is ever built.
func (w *window) computeLocal(idxs []int) error {
	if len(idxs) == 0 {
		return nil
	}
	seeds := make([]int64, len(idxs))
	for j, i := range idxs {
		seeds[j] = w.seeds[i]
	}
	var outcomes []workload.RunOutcome
	computeSpan := w.tr.Span("compute")
	err := w.s.runPass(w.ctx, func() error {
		results, err := w.s.runner.SweepAll([]workload.Task{{Spec: w.spec, Seeds: seeds, Eval: w.eval}})
		if err == nil {
			outcomes = results[0].Outcomes
		}
		return err
	})
	computeSpan.End()
	if err != nil {
		w.release(idxs, err)
		return err
	}
	persistSpan := w.tr.Span("persist")
	putKeys := make([]store.Key, len(idxs))
	putPayloads := make([][]byte, len(idxs))
	for j, i := range idxs {
		putKeys[j] = w.keys[i]
		putPayloads[j] = store.EncodeOutcome(outcomes[j])
	}
	if failed, _ := w.s.store.PutMulti(putKeys, putPayloads); failed > 0 {
		w.s.count(func(st *SchedulerStats) { st.PutErrors += uint64(failed) })
	}
	persistSpan.End()
	for j, i := range idxs {
		w.settle(i, seedComputed, outcomes[j])
	}
	return nil
}

// recompute is degraded mode for slots a peer did not answer: one more local
// pass, or — once this request has already failed — their release with that
// failure.
func (w *window) recompute(idxs []int, err error) error {
	if err != nil {
		w.release(idxs, err)
		return err
	}
	return w.computeLocal(idxs)
}

// claimResult is one peer's answer to a claim RPC over idxs.
type claimResult struct {
	peer     string
	idxs     []int
	outcomes []workload.RunOutcome
	err      error
}

// launchClaims starts one claim RPC per remote group and returns the channel
// the answers arrive on (nil when there is nothing remote).  The goroutines
// touch nothing of the request's state — they speak to the transport and
// deliver on the channel, buffered to the number of sends so an answer nobody
// waits for any more is dropped; all publication happens on the request
// goroutine.
func (w *window) launchClaims(groups map[string][]int) chan claimResult {
	if len(groups) == 0 {
		return nil
	}
	claims := make(chan claimResult, len(groups))
	// The goroutines may outlive collectClaims (a hedge stops waiting for
	// them), after which the window's slots go back to slotPool; they read
	// no slot, and take the rest of what they need by value.
	fl, ctx, adversary := w.s.fleet, w.ctx, w.adversary
	traceID := w.tr.TraceIDOrZero()
	scenario := strings.TrimPrefix(w.source, scenarioNamespace)
	for peer, idxs := range groups {
		seeds := make([]int64, len(idxs))
		for j, i := range idxs {
			seeds[j] = w.seeds[i]
		}
		go func() {
			outs, err := fl.claim(ctx, peer, traceID, scenario, adversary, seeds)
			claims <- claimResult{peer: peer, idxs: idxs, outcomes: outs, err: err}
		}()
	}
	return claims
}

// collectClaims gathers the remote claims.  The loop runs until every owned
// slot is settled or the last group reports — claims honour ctx, so after an
// error or an expired context they return promptly, and every flight entry is
// published (outcome or failure) before this request lets go of its claims.
// Degradation: a failed group is recomputed locally; once HedgeDelay elapses
// every still-missing seed is hedged with a local recompute, at which point
// the loop exits without waiting for the slow peer — outcomes are
// deterministic, so either side's answer is the same bytes.  err is the local
// pass's verdict so far.
func (w *window) collectClaims(groups map[string][]int, claims chan claimResult, err error) error {
	health := w.s.fleet.health
	var hedgeC <-chan time.Time
	if delay := w.s.fleet.cfg.HedgeDelay; delay > 0 && err == nil {
		hedgeTimer := time.NewTimer(delay)
		defer hedgeTimer.Stop()
		hedgeC = hedgeTimer.C
	}
	span := w.tr.Span("remote")
	defer span.End()
	ctxC := w.ctx.Done()
	for pending := len(groups); pending > 0 && w.owned > 0; {
		select {
		case res := <-claims:
			pending--
			if res.err == nil {
				for j, i := range res.idxs {
					if w.calls[i] != nil {
						w.settle(i, seedRemote, res.outcomes[j])
					}
				}
			} else if open := w.open(res.idxs); len(open) > 0 {
				health.NoteFallback(res.peer, len(open))
				err = w.recompute(open, err)
			}
		case <-hedgeC:
			hedgeC = nil
			var open []int
			for peer, idxs := range groups {
				if g := w.open(idxs); len(g) > 0 {
					health.NoteHedge(peer)
					open = append(open, g...)
				}
			}
			err = w.recompute(open, err)
		case <-ctxC:
			ctxC = nil
			if err == nil {
				err = abandoned(w.ctx)
			}
		}
	}
	return err
}

// collectJoins gathers the slots concurrent requests computed for us; err is
// this pass's verdict so far, and a failed pass collects nothing.  The wait is
// compute time: someone's fleet pass is producing these seeds.  An expired
// request context stops waiting — the owners' computations are unaffected,
// this request just stops consuming them (a joined call is published by its
// owner, never by us).  retry reports that a slot was left open for the next
// pass to re-claim.
func (w *window) collectJoins(joins []join, pass int, err error) (retry bool, _ error) {
	span := w.tr.Span("compute")
	defer span.End()
	for _, j := range joins {
		if err != nil {
			break
		}
		c := j.call
		select {
		case <-c.done:
		case <-w.ctx.Done():
			err = abandoned(w.ctx)
			continue
		}
		switch {
		case c.err == nil:
			// Span link: this request consumed a seed computed under the
			// owner's trace.
			w.tr.Link(c.owner)
			w.settle(j.slot, seedJoined, c.outcome)
		case !ownerLocal(c.err):
			err = c.err
		case pass < maxClaimPasses:
			// The owner's failure, not the seed's: leave the slot open for
			// the next pass to re-claim.
			retry = true
		default:
			err = coalesceUpstream(c.err)
		}
	}
	return retry, err
}

// account tallies how the slots resolved and folds the tally into the trace,
// the scheduler's counters and the per-source counters behind /v1/corpus.
// Those describe observed traffic since the server started — per-seed corpus
// records do not carry their source name (keys are digests), so live
// accounting is the only per-source view there is.
func (w *window) account() (obs.SeedCounts, error) {
	span := w.tr.Span("assemble")
	var tally [seedRemote + 1]int
	for _, how := range w.how {
		tally[how]++
	}
	span.End()
	n := len(w.seeds)
	if tally[seedOpen] > 0 {
		return obs.SeedCounts{}, fmt.Errorf("server: %d of %d seeds left unresolved", tally[seedOpen], n)
	}
	c := obs.SeedCounts{Requested: n, Cached: tally[seedCached], Computed: tally[seedComputed], Coalesced: tally[seedJoined], Remote: tally[seedRemote]}
	w.tr.AddSeeds(c)

	// Direct stats increments: legal because this block owns mu.
	s := w.s
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.SeedsRequested += uint64(n)
	s.stats.SeedsCached += uint64(c.Cached)
	s.stats.SeedsComputed += uint64(c.Computed)
	s.stats.SeedsCoalesced += uint64(c.Coalesced)
	s.stats.SeedsRemote += uint64(c.Remote)
	if c.Computed == 0 && c.Coalesced > 0 {
		s.stats.Coalesced++
	}
	if n == 0 {
		return c, nil
	}
	first, last := w.seeds[0], w.seeds[n-1]
	key := w.source + "\x00" + w.adversary
	src, ok := s.sources[key]
	if !ok {
		src = &SourceStats{Source: w.source, Adversary: w.adversary, MinSeed: first, MaxSeed: last}
		s.sources[key] = src
	}
	src.MinSeed = min(src.MinSeed, first)
	src.MaxSeed = max(src.MaxSeed, last)
	src.SeedsCached += uint64(c.Cached)
	src.SeedsComputed += uint64(c.Computed)
	src.SeedsCoalesced += uint64(c.Coalesced)
	src.SeedsRemote += uint64(c.Remote)
	return c, nil
}

// cacheStatus classifies a resolution for the X-Cache header; computed,
// joined and remote seeds all grade as non-cached.
func cacheStatus(c obs.SeedCounts) CacheStatus {
	switch {
	case c.Cached == c.Requested:
		return CacheHit
	case c.Cached > 0:
		return CachePartial
	default:
		return CacheMiss
	}
}

// sweepRecord resolves the window and encodes it as the scenario's sweep
// record — the half Sweep and Claim share — then frees the window's slots.
func (w *window) sweepRecord(sc registry.Scenario, seedBase int64) ([]byte, obs.SeedCounts, error) {
	counts, err := w.resolve()
	defer w.freeSlots()
	if err != nil {
		return nil, counts, err
	}
	span := w.tr.Span("assemble")
	defer span.End()
	return store.EncodeSweepRecord(&store.SweepRecord{
		Scenario:  sc.Name,
		Check:     sc.Check,
		Adversary: w.adversary,
		SeedBase:  seedBase,
		Outcomes:  w.outcomes,
	}), counts, nil
}

// freeSlots returns the window's slots to slotPool, unless a slot is still
// owned (it will be published through them) or the window outgrew the bound
// the sweep JSON scratch has too.
func (w *window) freeSlots() {
	sl := w.slots
	if w.owned > 0 || cap(sl.outcomes) > maxPooledOutcomes {
		return
	}
	w.slots = nil
	clear(sl.outcomes)
	clear(sl.calls)
	slotPool.Put(sl)
}
