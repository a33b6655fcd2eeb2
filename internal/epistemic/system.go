package epistemic

import (
	"sort"
	"strconv"

	"repro/internal/model"
	"repro/internal/pool"
)

// Point identifies a point (run, time) of a System.
type Point struct {
	// Run indexes into the system's run list.
	Run int
	// Time is the global time within that run.
	Time int
}

// ClassID densely identifies one local-history equivalence class of one
// process: all points of the system at which that process has the same local
// history share a ClassID.  IDs are assigned per process, contiguously from 0,
// at NewSystem time, so per-class data lives in slices rather than maps and
// the query path never touches a string.
type ClassID int32

// interval is a maximal range of times [Start, End] within one run during
// which a process's local history is constant.
type interval struct {
	run        int32
	start, end int32
	// crashedByStart is the set of processes that have crashed in this run by
	// time start.  Because crash(q) is stable, it is the minimal crashed set
	// over the interval, which is what the knowledge fast paths need.
	crashedByStart model.ProcSet
}

// localClass groups all points of the system at which a given process has the
// same local history, together with the crash knowledge precomputed over them.
// Most classes own exactly one interval and one distinct crash set, so the
// first of each lives inline and the overflow slices allocate only for
// histories shared across runs — the index builds tens of thousands of
// classes per process, and two slice allocations per class dominated its
// allocation profile.
type localClass struct {
	// iv0 is the first interval, ivRest any further ones; nivs counts them.
	iv0    interval
	ivRest []interval
	nivs   int32
	// ncs counts the distinct crashedByStart values over the intervals: cs0
	// and csRest mirror the iv0/ivRest split.  MaxKnownCrashedIn minimises
	// over these instead of over every interval; systems have few distinct
	// crash sets even when classes have many intervals.
	ncs    int32
	cs0    model.ProcSet
	csRest []model.ProcSet
	// knownCrashed is the intersection of crashedByStart over the class's
	// intervals: exactly {q : K_p crash(q)} at every point of the class.
	knownCrashed model.ProcSet
	// key is the identity under which the class was interned; KeyAt renders it.
	key classKey
}

// intervalAt returns the i'th interval of the class, 0 <= i < nivs.
func (cls *localClass) intervalAt(i int32) *interval {
	if i == 0 {
		return &cls.iv0
	}
	return &cls.ivRest[i-1]
}

// classKey is the interning identity of a local history: a 64-bit FNV-1a hash
// chained over the event identities, the history length, and the identity hash
// of the final event.  Two histories with equal keys are treated as identical
// local states; the combination makes accidental collisions vanishingly
// unlikely for the run sizes this repository works with (it carries the same
// discriminating information as the historical string key, without building
// strings).
type classKey struct {
	hash     uint64
	length   int32
	lastHash uint64
}

// System is a finite set of runs equipped with the indexes needed to answer
// knowledge queries.  A System grows incrementally: Add extends the index in
// time proportional to the events of the new runs alone, so a server whose
// cached extraction window grows feeds it only the delta.
type System struct {
	runs model.System
	n    int
	// classes[p] is process p's global class table, indexed by ClassID.
	classes [][]localClass
	// seqs[p][runIdx] is the step function time -> ClassID for process p in
	// each run, used to locate a point's class by binary search.
	seqs [][]boundarySeq
	// interns[p] maps local-history keys to p's ClassIDs.  It is retained
	// between Add calls, so extending the system interns new histories
	// against everything already indexed.
	interns []map[classKey]ClassID
}

// boundarySeq is the step function time -> ClassID for one process in one run.
type boundarySeq struct {
	// starts[i] is the first time at which classes[i] is the class; the class
	// applies until starts[i+1]-1 (or the horizon).
	starts  []int32
	classes []ClassID
}

// classAt returns the class in force at time m.
func (b boundarySeq) classAt(m int) ClassID {
	lo, hi := 1, len(b.starts)-1
	ans := 0
	for lo <= hi {
		mid := (lo + hi) / 2
		if int(b.starts[mid]) <= m {
			ans = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return b.classes[ans]
}

// NewSystem indexes the given runs.  All runs must have the same number of
// processes.  NewSystem(append(a, b...)) and NewSystem(a) followed by Add(b)
// build identical indexes, class for class.
func NewSystem(runs model.System) *System {
	sys := &System{}
	sys.Add(runs)
	return sys
}

// Add extends the system with additional runs in time proportional to the
// new runs' events: existing classes, intervals and boundary sequences are
// untouched except where a new history extends them, and no part of the
// already-indexed runs is revisited.  All runs must have the system's number
// of processes.  ClassIDs held by callers remain valid; class crash
// knowledge (KnownCrashed, MaxKnownCrashedIn) is maintained online as the
// new intervals register.  Add is AddParallel with one worker.
func (sys *System) Add(runs model.System) {
	sys.AddParallel(1, runs)
}

// AddParallel is Add over a pool of worker goroutines, one process per job
// (workers as in pool.Workers: zero or negative means GOMAXPROCS).  A
// process's class table, boundary sequences and intern map are touched by no
// other process's build, and each build walks the new runs in order, so
// ClassIDs are assigned exactly as the one-worker form assigns them: the
// index is identical, class for class, for any worker count.
func (sys *System) AddParallel(workers int, runs model.System) {
	if len(runs) == 0 {
		return
	}
	if sys.n == 0 {
		n := runs[0].N
		sys.n = n
		sys.classes = make([][]localClass, n)
		sys.seqs = make([][]boundarySeq, n)
		sys.interns = make([]map[classKey]ClassID, n)
	}
	base := len(sys.runs)
	sys.runs = append(sys.runs, runs...)
	crashes := make([][]crashStep, len(runs))
	for k, r := range runs {
		crashes[k] = crashSchedule(r)
	}
	pool.Each(workers, sys.n, func(p int) {
		sys.indexRuns(model.ProcID(p), base, runs, crashes)
	})
}

// indexRuns extends process p's index with the new runs, which take the run
// indices from base on.  It counts the runs' boundaries first, which bounds
// everything the build appends to: the boundary sequences are carved from two
// exact-size slabs, the class table grows at most once (by a quarter at
// least, so a long series of small Adds still copies it O(1) times per
// class), and a first build's intern map is made at its final size.
func (sys *System) indexRuns(p model.ProcID, base int, runs model.System, crashes [][]crashStep) {
	counts := make([]int, len(runs))
	total := 0
	for k, r := range runs {
		counts[k] = boundaryCount(r.Events[p])
		total += counts[k]
	}
	if sys.interns[p] == nil {
		sys.interns[p] = make(map[classKey]ClassID, total)
	}
	// Every boundary interns one class, new or not.
	if need, have := len(sys.classes[p])+total, cap(sys.classes[p]); need > have {
		if grown := have + have/4; need < grown {
			need = grown
		}
		sys.classes[p] = append(make([]localClass, 0, need), sys.classes[p]...)
	}
	sys.seqs[p] = append(sys.seqs[p], make([]boundarySeq, len(runs))...)
	starts := make([]int32, 0, total)
	classes := make([]ClassID, 0, total)
	off := 0
	for k, r := range runs {
		end := off + counts[k]
		seq := boundarySeq{starts: starts[off:off:end], classes: classes[off:off:end]}
		sys.indexProcess(base+k, r, p, seq, crashes[k])
		off = end
	}
}

// boundaryCount returns the number of classes a history passes through: the
// initial one plus one per distinct positive event time.
func boundaryCount(evs []model.TimedEvent) int {
	boundaries, prev := 1, 0
	for i := range evs {
		if t := evs[i].Time; t != prev {
			boundaries++
			prev = t
		}
	}
	return boundaries
}

// indexProcess builds the boundary sequence and local classes for one process
// in one run, into seq: empty, with room for the history's boundaryCount.
func (sys *System) indexProcess(ri int, r *model.Run, p model.ProcID, seq boundarySeq, crashes []crashStep) {
	evs := r.Events[p]
	intern := sys.interns[p]
	hash := model.IdentityHashSeed
	var lastHash uint64
	count := int32(0)

	// Events at time 0 are part of the initial observable state, so fold them
	// before interning the class in force at time 0 (interning earlier would
	// leave an orphan zero-interval class in the table).
	i := 0
	for i < len(evs) && evs[i].Time == 0 {
		lastHash = evs[i].Event.IdentityHash()
		hash = model.ChainHash(hash, lastHash)
		count++
		i++
	}
	seq.starts = append(seq.starts, 0)
	seq.classes = append(seq.classes, sys.internClass(p, intern, classKey{hash: hash, length: count, lastHash: lastHash}))

	for i < len(evs) {
		t := evs[i].Time
		for i < len(evs) && evs[i].Time == t {
			lastHash = evs[i].Event.IdentityHash()
			hash = model.ChainHash(hash, lastHash)
			count++
			i++
		}
		seq.starts = append(seq.starts, int32(t))
		seq.classes = append(seq.classes, sys.internClass(p, intern, classKey{hash: hash, length: count, lastHash: lastHash}))
	}
	sys.seqs[p][ri] = seq

	// Convert the step function into intervals and register them.
	for j := range seq.starts {
		start := seq.starts[j]
		end := int32(r.Horizon)
		if j+1 < len(seq.starts) {
			end = seq.starts[j+1] - 1
		}
		if end < start {
			continue
		}
		iv := interval{run: int32(ri), start: start, end: end, crashedByStart: crashedAt(crashes, int(start))}
		cls := &sys.classes[p][seq.classes[j]]
		cls.register(iv)
	}
}

// register appends an interval to the class and maintains its crash
// knowledge online: the distinct crashedByStart values and their
// intersection, so classes are always query-ready and extending the system
// never revisits old intervals.
func (cls *localClass) register(iv interval) {
	if cls.nivs == 0 {
		cls.iv0 = iv
	} else {
		cls.ivRest = append(cls.ivRest, iv)
	}
	cls.nivs++
	if cls.ncs == 0 {
		cls.cs0 = iv.crashedByStart
		cls.knownCrashed = iv.crashedByStart
		cls.ncs = 1
		return
	}
	if cls.cs0 == iv.crashedByStart {
		return
	}
	for _, s := range cls.csRest {
		if s == iv.crashedByStart {
			return
		}
	}
	cls.knownCrashed = cls.knownCrashed.Intersect(iv.crashedByStart)
	cls.csRest = append(cls.csRest, iv.crashedByStart)
	cls.ncs++
}

// internClass returns the ClassID for the key, allocating a fresh class in p's
// table on first sight.
func (sys *System) internClass(p model.ProcID, intern map[classKey]ClassID, key classKey) ClassID {
	if id, ok := intern[key]; ok {
		return id
	}
	id := ClassID(len(sys.classes[p]))
	intern[key] = id
	sys.classes[p] = append(sys.classes[p], localClass{key: key})
	return id
}

// crashStep is one entry of a run's cumulative crash schedule.
type crashStep struct {
	time    int32
	crashed model.ProcSet
}

// crashSchedule returns the run's crashes as a cumulative step function
// sorted by time, so crashed-by-time queries during indexing are a binary
// search over at most n entries instead of a scan of every history.
func crashSchedule(r *model.Run) []crashStep {
	out := make([]crashStep, 0, r.N)
	for q := model.ProcID(0); int(q) < r.N; q++ {
		if t, ok := r.CrashTime(q); ok {
			out = append(out, crashStep{time: int32(t), crashed: model.Singleton(q)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].time < out[j].time })
	var acc model.ProcSet
	for i := range out {
		acc = acc.Union(out[i].crashed)
		out[i].crashed = acc
	}
	return out
}

// crashedAt returns the set of processes crashed by time m in the schedule.
func crashedAt(steps []crashStep, m int) model.ProcSet {
	k := sort.Search(len(steps), func(i int) bool { return int(steps[i].time) > m })
	if k == 0 {
		return model.EmptySet()
	}
	return steps[k-1].crashed
}

// N returns the number of processes of the system.
func (sys *System) N() int { return sys.n }

// Size returns the number of runs in the system.
func (sys *System) Size() int { return len(sys.runs) }

// RunAt returns the i'th run.
func (sys *System) RunAt(i int) *model.Run { return sys.runs[i] }

// Runs returns the underlying runs.
func (sys *System) Runs() model.System { return sys.runs }

// ClassAt returns process p's local-history class at the given point.  It is
// the allocation-free entry point of the query API: a binary search over the
// run's boundary sequence, with every per-class quantity an O(1) slice lookup
// away.
func (sys *System) ClassAt(p model.ProcID, pt Point) ClassID {
	return sys.seqs[p][pt.Run].classAt(pt.Time)
}

// KeyAt returns a stable textual key for process p's local history at the
// given point: two points get equal keys exactly when p cannot tell them
// apart.  Queries should prefer ClassAt; KeyAt exists for diagnostics.
func (sys *System) KeyAt(p model.ProcID, pt Point) string {
	key := sys.classes[p][sys.ClassAt(p, pt)].key
	return strconv.FormatUint(key.hash, 16) + "/" + strconv.Itoa(int(key.length)) + "/" + strconv.FormatUint(key.lastHash, 16)
}

// Scan is a monotone cursor over one process's classes in one run.  Successive
// At calls with nondecreasing times advance in amortised constant time, which
// is what the run transforms of Theorems 3.6/4.3 need as they walk a run
// forwards.  A time earlier than a previous call restarts the cursor from the
// front and pays a linear re-walk; non-monotone access should use ClassAt.
type Scan struct {
	seq *boundarySeq
	idx int
}

// Scan returns a cursor over process p's classes in run ri, positioned at
// time 0.
func (sys *System) Scan(p model.ProcID, ri int) Scan {
	return Scan{seq: &sys.seqs[p][ri]}
}

// At returns the class in force at time m.
func (s *Scan) At(m int) ClassID {
	seq := s.seq
	if s.idx < len(seq.starts) && int(seq.starts[s.idx]) > m {
		// Time moved backwards: restart from the front.
		s.idx = 0
	}
	for s.idx+1 < len(seq.starts) && int(seq.starts[s.idx+1]) <= m {
		s.idx++
	}
	return seq.classes[s.idx]
}

// Stats reports the size of the index, for benchmarks and capacity planning.
type Stats struct {
	// Runs and Processes give the system's shape.
	Runs, Processes int
	// Points is the number of (run, time) points of the system.
	Points int
	// Classes is the total number of interned local-history classes across all
	// processes; Intervals the total number of constant-history intervals they
	// group.
	Classes, Intervals int
}

// Stats returns the index's size statistics.
func (sys *System) Stats() Stats {
	st := Stats{Runs: len(sys.runs), Processes: sys.n}
	for _, r := range sys.runs {
		st.Points += r.Horizon + 1
	}
	for p := 0; p < sys.n; p++ {
		st.Classes += len(sys.classes[p])
		for ci := range sys.classes[p] {
			st.Intervals += int(sys.classes[p][ci].nivs)
		}
	}
	return st
}

// forEachIndistinguishable invokes fn for every point of the system whose
// local history for p equals that at pt (including pt itself), stopping early
// if fn returns false.
func (sys *System) forEachIndistinguishable(p model.ProcID, pt Point, fn func(Point) bool) {
	cls := &sys.classes[p][sys.ClassAt(p, pt)]
	for i := int32(0); i < cls.nivs; i++ {
		iv := cls.intervalAt(i)
		for m := int(iv.start); m <= int(iv.end); m++ {
			if !fn(Point{Run: int(iv.run), Time: m}) {
				return
			}
		}
	}
}

// forEachGroupIndistinguishable invokes fn for every point of the system that
// every process in procs finds indistinguishable from pt (the intersection of
// the individual indistinguishability relations, i.e. the accessibility
// relation of distributed knowledge).  An empty group degenerates to all
// points of the system.
func (sys *System) forEachGroupIndistinguishable(procs model.ProcSet, pt Point, fn func(Point) bool) {
	members := procs.Members()
	if len(members) == 0 {
		for ri, r := range sys.runs {
			for m := 0; m <= r.Horizon; m++ {
				if !fn(Point{Run: ri, Time: m}) {
					return
				}
			}
		}
		return
	}
	first := members[0]
	rest := members[1:]
	classes := make([]ClassID, len(rest))
	for i, p := range rest {
		classes[i] = sys.ClassAt(p, pt)
	}
	sys.forEachIndistinguishable(first, pt, func(other Point) bool {
		for i, p := range rest {
			if sys.ClassAt(p, other) != classes[i] {
				return true
			}
		}
		return fn(other)
	})
}

// DistributedKnows reports whether the group S has distributed knowledge of f
// at the point (see footnote 4 of the paper).
func (sys *System) DistributedKnows(procs model.ProcSet, f Formula, pt Point) bool {
	return DistributedKnows(procs, f).Eval(sys, pt)
}

// Eval evaluates the formula at the point.
func (sys *System) Eval(f Formula, pt Point) bool { return f.Eval(sys, pt) }

// Valid reports whether the formula holds at every point of the system
// (R |= phi).  The second return value is a witness point of failure when the
// formula is not valid.
func (sys *System) Valid(f Formula) (bool, Point) {
	for ri, r := range sys.runs {
		for m := 0; m <= r.Horizon; m++ {
			pt := Point{Run: ri, Time: m}
			if !f.Eval(sys, pt) {
				return false, pt
			}
		}
	}
	return true, Point{}
}

// KnownCrashed returns {q : K_p crash(q)} at the given point: the set of
// processes p knows to have crashed.  This is the report emitted by the
// simulated perfect failure detector of Theorem 3.6 (construction P3).
// The set is precomputed per class, so the query is one class lookup.
func (sys *System) KnownCrashed(p model.ProcID, pt Point) model.ProcSet {
	return sys.classes[p][sys.ClassAt(p, pt)].knownCrashed
}

// KnownCrashedClass is KnownCrashed for an already-located class, for callers
// holding a ClassID from ClassAt or a Scan cursor.  It performs no allocation
// and no search.
func (sys *System) KnownCrashedClass(p model.ProcID, c ClassID) model.ProcSet {
	return sys.classes[p][c].knownCrashed
}

// MaxKnownCrashedIn returns max{k : K_p "at least k processes in S have
// crashed"} at the given point, the quantity used by construction P3' of
// Theorem 4.3.  Because crash(q) is stable, the minimum over an
// indistinguishability class is attained at an interval's start.
func (sys *System) MaxKnownCrashedIn(p model.ProcID, pt Point, s model.ProcSet) int {
	return sys.MaxKnownCrashedInClass(p, sys.ClassAt(p, pt), s)
}

// MaxKnownCrashedInClass is MaxKnownCrashedIn for an already-located class.
// It minimises over the class's distinct crash sets rather than over every
// interval, and performs no allocation.
func (sys *System) MaxKnownCrashedInClass(p model.ProcID, c ClassID, s model.ProcSet) int {
	cls := &sys.classes[p][c]
	if cls.ncs == 0 {
		return 0
	}
	best := cls.cs0.Intersect(s).Count()
	for _, crashed := range cls.csRest {
		if best == 0 {
			break
		}
		if k := crashed.Intersect(s).Count(); k < best {
			best = k
		}
	}
	return best
}

// IsLocal reports whether the formula is local to process p in the system:
// at every point p knows whether it holds, i.e. the formula has a constant
// truth value on every indistinguishability class of p.
func (sys *System) IsLocal(p model.ProcID, f Formula) bool {
	for ci := range sys.classes[p] {
		cls := &sys.classes[p][ci]
		first := true
		var val bool
		ok := true
		for i := int32(0); i < cls.nivs; i++ {
			iv := cls.intervalAt(i)
			for m := int(iv.start); m <= int(iv.end); m++ {
				v := f.Eval(sys, Point{Run: int(iv.run), Time: m})
				if first {
					val, first = v, false
					continue
				}
				if v != val {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// IsStable reports whether the formula is stable in the system: once true it
// remains true (phi => Box phi is valid).
func (sys *System) IsStable(f Formula) bool {
	for ri, r := range sys.runs {
		active := false
		for m := 0; m <= r.Horizon; m++ {
			v := f.Eval(sys, Point{Run: ri, Time: m})
			if active && !v {
				return false
			}
			if v {
				active = true
			}
		}
	}
	return true
}
