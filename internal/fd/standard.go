package fd

import (
	"hash/fnv"
	"strconv"

	"repro/internal/model"
)

// NoOracle is the absence of a failure detector.  It never reports.
type NoOracle struct{}

// Name implements Oracle.
func (NoOracle) Name() string { return "none" }

// Report implements Oracle.
func (NoOracle) Report(model.ProcID, int, GroundTruth) (model.SuspectReport, bool) {
	return model.SuspectReport{}, false
}

// PerfectOracle satisfies strong completeness and strong accuracy: at every
// query it reports exactly the set of processes that have crashed so far.
type PerfectOracle struct{}

// Name implements Oracle.
func (PerfectOracle) Name() string { return "perfect" }

// Report implements Oracle.
func (PerfectOracle) Report(_ model.ProcID, now int, gt GroundTruth) (model.SuspectReport, bool) {
	return model.SuspectReport{Suspects: crashedSet(gt, now)}, true
}

// StrongOracle satisfies strong completeness and weak accuracy but not, in
// general, strong accuracy: in addition to every crashed process it may
// persistently (and falsely) suspect other processes.  One correct process —
// the lowest-numbered correct process of the run — is shielded and never
// suspected, which is exactly the witness weak accuracy requires.
type StrongOracle struct {
	// FalseSuspicionRate is the per-(observer, target) probability that the
	// observer falsely suspects the target throughout the run.  Zero yields a
	// perfect detector.
	FalseSuspicionRate float64
	// Seed derandomises the false-suspicion choices.
	Seed int64
}

// Name implements Oracle.
func (o StrongOracle) Name() string { return "strong" }

// Report implements Oracle.
func (o StrongOracle) Report(p model.ProcID, now int, gt GroundTruth) (model.SuspectReport, bool) {
	suspects := crashedSet(gt, now)
	shielded, hasShielded := shieldedProcess(gt)
	if o.FalseSuspicionRate > 0 {
		for q := model.ProcID(0); int(q) < gt.N(); q++ {
			if q == p || (hasShielded && q == shielded) || suspects.Has(q) {
				continue
			}
			if pairChance(o.Seed, p, q) < o.FalseSuspicionRate {
				suspects = suspects.Add(q)
			}
		}
	}
	return model.SuspectReport{Suspects: suspects}, true
}

// WeakOracle satisfies weak completeness and weak accuracy: each faulty
// process is (eventually, permanently) suspected by exactly one correct
// monitor process; no correct process is ever suspected.
type WeakOracle struct{}

// Name implements Oracle.
func (WeakOracle) Name() string { return "weak" }

// Report implements Oracle.
func (WeakOracle) Report(p model.ProcID, now int, gt GroundTruth) (model.SuspectReport, bool) {
	correct := model.FullSet(gt.N()).Diff(gt.Faulty())
	k := correct.Count()
	if k == 0 {
		// All processes fail in this run; weak completeness is vacuous.
		return model.SuspectReport{}, true
	}
	// q's monitor is the correct process of rank q mod k, so p monitors the
	// faulty processes q with q mod k equal to p's rank among the correct.
	var suspects model.ProcSet
	if correct.Has(p) {
		rank := correct.Intersect(model.FullSet(int(p))).Count()
		for s := crashedSet(gt, now); s != 0; s &= s - 1 {
			if q := lowest(s); int(q)%k == rank {
				suspects = suspects.Add(q)
			}
		}
	}
	return model.SuspectReport{Suspects: suspects}, true
}

// pairChance returns a deterministic pseudo-uniform value in [0, 1) derived
// from (seed, observer, target), so that "does p falsely suspect q" is a fixed
// property of the run rather than of the query time.
func pairChance(seed int64, p, q model.ProcID) float64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(strconv.FormatInt(seed, 10)))
	_, _ = h.Write([]byte{'|'})
	_, _ = h.Write([]byte(strconv.Itoa(int(p))))
	_, _ = h.Write([]byte{'|'})
	_, _ = h.Write([]byte(strconv.Itoa(int(q))))
	return float64(h.Sum64()%1_000_000) / 1_000_000
}

var (
	_ Oracle = NoOracle{}
	_ Oracle = PerfectOracle{}
	_ Oracle = StrongOracle{}
	_ Oracle = WeakOracle{}
)
