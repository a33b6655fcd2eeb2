package model

import (
	"slices"
	"strconv"
	"strings"
)

// MaxProcs is the largest number of processes supported by ProcSet.  The
// paper's constructions are exponential in n in places (the epistemic checker
// enumerates points, the trivial generalized detector enumerates subsets), so
// a 64-process cap loses nothing in practice.
const MaxProcs = 64

// ProcID identifies a process.  Processes are numbered 0..n-1; the paper's
// p_i corresponds to ProcID(i-1).
type ProcID int

// ProcSet is a set of process identifiers represented as a bitset.
// The zero value is the empty set.
type ProcSet uint64

// EmptySet returns the empty process set.
func EmptySet() ProcSet { return 0 }

// Singleton returns the set containing only p.
func Singleton(p ProcID) ProcSet { return ProcSet(1) << uint(p) }

// FullSet returns the set {0, ..., n-1}.
func FullSet(n int) ProcSet {
	if n <= 0 {
		return 0
	}
	if n >= MaxProcs {
		return ^ProcSet(0)
	}
	return (ProcSet(1) << uint(n)) - 1
}

// SetOf builds a set from the listed processes.
func SetOf(ps ...ProcID) ProcSet {
	var s ProcSet
	for _, p := range ps {
		s = s.Add(p)
	}
	return s
}

// Add returns the set with p added.
func (s ProcSet) Add(p ProcID) ProcSet { return s | Singleton(p) }

// Remove returns the set with p removed.
func (s ProcSet) Remove(p ProcID) ProcSet { return s &^ Singleton(p) }

// Has reports whether p is in the set.
func (s ProcSet) Has(p ProcID) bool { return s&Singleton(p) != 0 }

// Union returns the union of s and t.
func (s ProcSet) Union(t ProcSet) ProcSet { return s | t }

// Intersect returns the intersection of s and t.
func (s ProcSet) Intersect(t ProcSet) ProcSet { return s & t }

// Diff returns s minus t.
func (s ProcSet) Diff(t ProcSet) ProcSet { return s &^ t }

// Contains reports whether every member of t is in s.
func (s ProcSet) Contains(t ProcSet) bool { return t&^s == 0 }

// IsEmpty reports whether the set is empty.
func (s ProcSet) IsEmpty() bool { return s == 0 }

// Count returns the number of processes in the set.
func (s ProcSet) Count() int {
	// Kernighan popcount; n is tiny so this is never hot enough to matter.
	c := 0
	for s != 0 {
		s &= s - 1
		c++
	}
	return c
}

// Members returns the processes in the set in increasing order.
func (s ProcSet) Members() []ProcID {
	out := make([]ProcID, 0, s.Count())
	for p := ProcID(0); p < MaxProcs && s != 0; p++ {
		if s.Has(p) {
			out = append(out, p)
			s = s.Remove(p)
		}
	}
	return out
}

// Equal reports whether s and t contain the same processes.
func (s ProcSet) Equal(t ProcSet) bool { return s == t }

// String renders the set as "{0,2,5}".
func (s ProcSet) String() string {
	members := s.Members()
	parts := make([]string, len(members))
	for i, p := range members {
		parts[i] = strconv.Itoa(int(p))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// SubsetsOfSize enumerates all subsets of {0..n-1} with exactly k members, in
// a deterministic order.  It is used by the trivial t-useful generalized
// failure detector of Section 4 ("for each S with |S| = t, output (S, 0)
// infinitely often").
func SubsetsOfSize(n, k int) []ProcSet {
	if k < 0 || k > n {
		return nil
	}
	var out []ProcSet
	var rec func(start int, cur ProcSet, remaining int)
	rec = func(start int, cur ProcSet, remaining int) {
		if remaining == 0 {
			out = append(out, cur)
			return
		}
		for p := start; p <= n-remaining; p++ {
			rec(p+1, cur.Add(ProcID(p)), remaining-1)
		}
	}
	rec(0, EmptySet(), k)
	slices.Sort(out)
	return out
}
