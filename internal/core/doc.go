// Package core implements the paper's central objects: the Uniform
// Distributed Coordination (UDC) and non-uniform (nUDC) specifications of
// Section 2.4, the protocols whose existence Propositions 2.3, 2.4, 3.1 and
// 4.1 (and Corollary 4.2) assert, and the knowledge-based failure-detector
// simulations of Theorems 3.6 and 4.3.
//
// Specifications are implemented as checkers over recorded runs (CheckUDC,
// CheckNUDC).  Protocols implement sim.Protocol and are run by internal/sim.
// The six UDC protocols are two bodies, each over a rule.  The detector-free
// ones (Props 2.3 and 2.4) are one relay body that broadcasts alpha on entry;
// its rule is one field: perform first and rebroadcast every tick (2.3), or
// relay once and only then perform (2.4).  The detector-based ones (Props 3.1
// and 4.1, Cor 4.2, footnote 11) are one acknowledgement-driven body that
// resends alpha until acknowledged and differs only in its perform test:
// every non-acker ever suspected (3.1 and footnote 11, whose resend also
// skips suspects and stops once performed), some report (S, k) with
// n-|S| > min(t, n-1)-k and all outside S acked (4.1), or n-t acks (4.2).
// The extraction functions SimulatePerfectDetector and SimulateTUsefulDetector
// realise the constructions P1-P3 and P3' of Section 3 and Section 4: they
// take a finite sampled system of runs of a UDC-attaining protocol, compute
// the required knowledge with the epistemic model checker, and emit the
// transformed system R^f whose suspect' events constitute the simulated
// detector.  Each f(r) is recorded into a reused model.RunArena and leaves it
// one of two ways: Transformer's Visit methods lend it to a callback, which
// checks it and drops it (the extraction pipeline's path), and the Simulate
// functions build an owned copy of every run.  The detector's properties are
// then verified with the checkers in internal/fd.
package core
