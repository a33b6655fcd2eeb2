package server

// White-box tests for the pass token (scheduler.runPass): fleet jobs run on
// their requests' goroutines, one at a time, and a request that gives up while
// it waits for the token leaves nothing behind.

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/workload"
)

// serialSweepRecord is the record a direct serial sweep of the window encodes
// to — what every resolution of it must equal byte for byte.
func serialSweepRecord(t *testing.T, sc registry.Scenario, seedBase int64, n int) []byte {
	t.Helper()
	res, err := workload.Sweep(sc.Spec, workload.Seeds(seedBase, n), sc.Eval)
	if err != nil {
		t.Fatal(err)
	}
	return store.EncodeSweepRecord(store.NewSweepRecord(sc.Name, sc.Check, "", seedBase, res))
}

// awaitPending polls until the scheduler's pending-jobs gauge reads want.
func awaitPending(t *testing.T, s *scheduler, want int64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); s.pending.Load() != want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("pending = %d, never reached %d", s.pending.Load(), want)
		}
	}
}

// TestFleetPassesNeverOverlap races cold sweeps of distinct scenarios into one
// scheduler.  Each window's evaluator — which runs inside its fleet pass —
// samples the process-wide ActivePasses gauge: with the pass token it never
// reads anything but 1, every window still equals its serial sweep, and every
// pass is counted once.
func TestFleetPassesNeverOverlap(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	scenarios := []string{"prop2.3-nudc", "prop2.4-reliable-udc", "prop3.1-strong-udc", "quiescent-udc", "prop4.1-tuseful-udc", "cor4.2-quorum-udc"}
	const seedBase, n = 9, 6
	var maxPasses atomic.Int64
	payloads := make([][]byte, len(scenarios))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, name := range scenarios {
		sc := registry.MustScenario(name)
		w := &window{
			s: srv.sched, ctx: context.Background(),
			source: scenarioNamespace + sc.Name, spec: sc.Spec, seeds: workload.Seeds(seedBase, n),
			eval: func(r *model.Run) []model.Violation {
				active := workload.Fleet.ActivePasses.Load()
				for seen := maxPasses.Load(); active > seen && !maxPasses.CompareAndSwap(seen, active); seen = maxPasses.Load() {
				}
				return sc.Eval(r)
			},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			payload, _, err := w.sweepRecord(sc, seedBase)
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
			payloads[i] = payload
		}()
	}
	close(start)
	wg.Wait()

	if got := maxPasses.Load(); got != 1 {
		t.Fatalf("evaluators saw up to %d active fleet passes, want exactly 1", got)
	}
	for i, name := range scenarios {
		if want := serialSweepRecord(t, registry.MustScenario(name), seedBase, n); !bytes.Equal(payloads[i], want) {
			t.Errorf("%s: record resolved under contention differs from the serial sweep", name)
		}
	}
	ss := srv.sched.Stats()
	if ss.Computed != uint64(len(scenarios)) || ss.SeedsComputed != uint64(len(scenarios)*n) {
		t.Fatalf("Computed = %d, SeedsComputed = %d, want %d and %d", ss.Computed, ss.SeedsComputed, len(scenarios), len(scenarios)*n)
	}
	if depth, claims := srv.sched.gauges(); depth != 0 || claims != 0 {
		t.Fatalf("idle scheduler reports queue depth %d, %d seed claims", depth, claims)
	}
}

// TestAbandonedWhileWaitingForPass expires a request's context while another
// request holds the pass token.  The waiter answers 503 "abandoned" without
// ever running and releases its seed claims with an owner-local failure, so a
// planted joiner — the test holds the flight entries, as a request that joined
// them would — is told to re-claim; the re-claiming sweep computes the window
// itself, and the accounting shows exactly the jobs that ran.
func TestAbandonedWhileWaitingForPass(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	s := srv.sched

	// The holder: its evaluator parks inside the fleet pass until released.
	holderSc := registry.MustScenario("prop2.3-nudc")
	holding, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	holder := &window{
		s: s, ctx: context.Background(),
		source: scenarioNamespace + holderSc.Name, spec: holderSc.Spec, seeds: workload.Seeds(1, 1),
		eval: func(r *model.Run) []model.Violation {
			once.Do(func() { close(holding) })
			<-release
			return holderSc.Eval(r)
		},
	}
	holderDone := make(chan error, 1)
	go func() {
		_, err := holder.resolve()
		holderDone <- err
	}()
	<-holding

	// The waiter claims its window and queues for the token.
	req := SweepRequest{Scenario: "prop3.1-strong-udc", Seeds: 4, SeedBase: 1}
	sweep := func(ctx context.Context, payload *[]byte) chan error {
		done := make(chan error, 1)
		go func() {
			p, _, err := s.Sweep(ctx, req, nil, nil)
			if payload != nil {
				*payload = p
			}
			done <- err
		}()
		return done
	}
	waiterCtx, abandon := context.WithCancel(context.Background())
	defer abandon()
	waiterDone := sweep(waiterCtx, nil)
	awaitPending(t, s, 2)

	var joined []*seedCall
	s.mu.Lock()
	for _, key := range store.AppendSeedKeys(nil, scenarioNamespace+req.Scenario, "", workload.Seeds(req.SeedBase, req.Seeds)) {
		if c, ok := s.seedflight[key]; ok {
			joined = append(joined, c)
		}
	}
	s.mu.Unlock()
	if len(joined) != req.Seeds {
		t.Fatalf("waiter holds %d claims while it queues, want %d", len(joined), req.Seeds)
	}

	abandon()
	err = <-waiterDone
	if statusOf(err) != http.StatusServiceUnavailable || !strings.Contains(err.Error(), "abandoned") {
		t.Fatalf("waiter's error = %v (status %d), want 503 abandoned", err, statusOf(err))
	}
	for _, c := range joined {
		<-c.done
		if !ownerLocal(c.err) {
			t.Fatalf("released claim carries %v, want an owner-local failure joiners re-claim on", c.err)
		}
	}
	if depth, claims := s.gauges(); depth != 1 || claims != 1 {
		t.Fatalf("after the abandonment: queue depth %d, %d seed claims, want the holder's 1 and 1", depth, claims)
	}
	if ran := s.Stats().Computed; ran != 0 {
		t.Fatalf("Computed = %d while the holder still runs and the waiter never did", ran)
	}

	// The joiner's next claim pass, as a request of its own: it owns the window
	// now and queues behind the holder.
	var payload []byte
	reclaimDone := sweep(context.Background(), &payload)
	awaitPending(t, s, 2)
	close(release)
	if err := <-holderDone; err != nil {
		t.Fatalf("holder: %v", err)
	}
	if err := <-reclaimDone; err != nil {
		t.Fatalf("re-claiming sweep: %v", err)
	}
	if want := serialSweepRecord(t, registry.MustScenario(req.Scenario), req.SeedBase, req.Seeds); !bytes.Equal(payload, want) {
		t.Fatal("re-claimed record differs from the serial sweep")
	}
	ss := s.Stats()
	if ss.Computed != 2 || ss.SeedsComputed != uint64(1+req.Seeds) {
		t.Fatalf("Computed = %d, SeedsComputed = %d, want 2 jobs (holder, re-claim) and %d seeds", ss.Computed, ss.SeedsComputed, 1+req.Seeds)
	}
	if depth, claims := s.gauges(); depth != 0 || claims != 0 {
		t.Fatalf("idle scheduler reports queue depth %d, %d seed claims", depth, claims)
	}
}
