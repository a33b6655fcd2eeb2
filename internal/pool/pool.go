// Package pool provides the one slot-indexed worker-pool loop the
// repository's parallel stages run on.  Work is distributed at slot
// granularity and every worker writes its outcome to the slot it was handed,
// so results are identical to a serial loop for any worker count and any
// scheduler interleaving — the determinism contract the sweep and extraction
// layers are built on.
package pool

import (
	"runtime"
	"sync"
)

// Workers resolves a requested pool size for n queued slots: zero or negative
// means runtime.GOMAXPROCS(0), and the result is clamped to [1, max(n, 1)] —
// negative or zero n resolves to one worker, so callers never have to
// pre-sanitise either argument.
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// EachSlot distributes slots [0, n) over Workers(workers, n) goroutines.
// newState is called once per worker and its value passed to every fn call
// that worker executes (one simulation engine per worker, typically); fn must
// write its outcome to slot i.  With one worker the slots run inline on the
// calling goroutine.  When n <= 0 there is nothing to distribute and EachSlot
// returns without creating any worker state.
func EachSlot[S any](workers, n int, newState func() S, fn func(state S, i int)) {
	if n <= 0 {
		return
	}
	resolved := Workers(workers, n)
	if resolved <= 1 {
		state := newState()
		for i := 0; i < n; i++ {
			fn(state, i)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(resolved)
	for w := 0; w < resolved; w++ {
		go func() {
			defer wg.Done()
			state := newState()
			for i := range next {
				fn(state, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// Each is EachSlot for stages that need no per-worker state.
func Each(workers, n int, fn func(i int)) {
	EachSlot(workers, n, func() struct{} { return struct{}{} }, func(_ struct{}, i int) { fn(i) })
}

// FreeList is a bounded stack of per-worker states that outlive a pass: a
// pass borrows one state per worker and returns them when it ends, so the next
// pass inherits the states the last one warmed.  States are kept for their
// grown buffers, which a sync.Pool would drop within two GCs.  A pass holds
// one state per worker, pools default to GOMAXPROCS workers and a daemon runs
// one pass at a time, so the bound, four passes' worth, keeps every
// steady-state borrow warm (in-process fleet peers included); a surplus state
// is left to the GC.  A FreeList is safe for concurrent passes.
type FreeList[S any] struct {
	newState func() S
	mu       sync.Mutex
	idle     []S
	maxIdle  int
}

// NewFreeList returns an empty free list that makes its states with newState.
func NewFreeList[S any](newState func() S) *FreeList[S] {
	return &FreeList[S]{newState: newState, maxIdle: 4 * runtime.GOMAXPROCS(0)}
}

// EachSlot is the package's EachSlot with each worker's state borrowed from
// the list — the one returned last first — for the length of the pass.  fn
// must therefore produce the same outcome whatever a state last did.
func (l *FreeList[S]) EachSlot(workers, n int, fn func(state S, i int)) {
	var borrowed []S // guarded by l.mu
	defer func() {
		l.mu.Lock()
		keep := min(len(borrowed), l.maxIdle-len(l.idle))
		l.idle = append(l.idle, borrowed[:keep]...)
		l.mu.Unlock()
	}()
	EachSlot(workers, n, func() S {
		l.mu.Lock()
		defer l.mu.Unlock()
		var state S
		if k := len(l.idle); k > 0 {
			state, l.idle[k-1], l.idle = l.idle[k-1], state, l.idle[:k-1] // pop, zeroing the slot
		} else {
			l.mu.Unlock() // newState is the caller's code: not under the lock
			state = l.newState()
			l.mu.Lock()
		}
		borrowed = append(borrowed, state)
		return state
	}, fn)
}
