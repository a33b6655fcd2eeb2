package pool

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFreeListKeepsAtMostMaxIdle checks the bound: a pass that borrows more
// states than the list may keep returns only as many as fit, and a later pass
// does not push it past the bound either.
func TestFreeListKeepsAtMostMaxIdle(t *testing.T) {
	made := 0
	l := NewFreeList(func() *int { made++; return new(int) })
	l.maxIdle = 3
	l.EachSlot(8, 8, func(*int, int) {})
	if len(l.idle) != 3 {
		t.Fatalf("%d idle states after an 8-worker pass, want the bound 3", len(l.idle))
	}
	l.EachSlot(8, 8, func(*int, int) {})
	if len(l.idle) != 3 || made != 13 {
		t.Fatalf("%d idle and %d made after two 8-worker passes, want 3 and 13 (3 reused)", len(l.idle), made)
	}
}

// TestFreeListLendsLastReturnedFirst checks the stack order: a serial pass
// borrows the state the last pass returned last, so consecutive passes keep
// using the same warmed state.
func TestFreeListLendsLastReturnedFirst(t *testing.T) {
	l := NewFreeList(func() *int { return new(int) })
	var first *int
	l.EachSlot(1, 4, func(s *int, _ int) { first = s })
	for pass := 0; pass < 3; pass++ {
		l.EachSlot(1, 4, func(s *int, _ int) {
			if s != first {
				t.Fatalf("pass %d borrowed a state other than the one returned last", pass)
			}
		})
	}
	if len(l.idle) != 1 {
		t.Fatalf("%d idle states after serial passes, want 1", len(l.idle))
	}
}

// TestFreeListLendsEachStateToOneWorker runs passes concurrently and checks
// that no state is ever held by two workers at once.  Run it under -race.
func TestFreeListLendsEachStateToOneWorker(t *testing.T) {
	l := NewFreeList(func() *atomic.Int32 { return new(atomic.Int32) })
	l.maxIdle = 4
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 20; pass++ {
				l.EachSlot(3, 30, func(holders *atomic.Int32, _ int) {
					if holders.Add(1) != 1 {
						t.Error("a state is lent to two workers at once")
					}
					time.Sleep(time.Microsecond) // hold it long enough for an overlap to show
					holders.Add(-1)
				})
			}
		}()
	}
	wg.Wait()
	if len(l.idle) > l.maxIdle {
		t.Fatalf("%d idle states, over the bound %d", len(l.idle), l.maxIdle)
	}
}
