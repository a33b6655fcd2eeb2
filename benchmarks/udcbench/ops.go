package main

import (
	"fmt"
	"hash/crc64"
	"math/rand"
	"time"
)

// Op lists.  Everything here is a pure function of (-seed, sizes): the
// program under test only ever sees the generated requests, and the same
// seed replays the same list (math/rand's seeded stream is frozen by Go's
// compatibility promise).  A golden-digest test pins each generator.

// opClass is the cost class an op was built to land in; traced runs report a
// client-side median per class.
type opClass uint8

const (
	classOffline      opClass = iota
	classHitWindow            // exact repeat: one window record
	classHitAssembled         // novel, fully covered: assembled per seed
	classCold                 // miss or partial on a fresh daemon
)

// Wire formats of gated traffic (the streamed formats are probed by the
// ladder only, so a later issue may delete one without breaking a workload).
const (
	wireBin  = "bin"
	wireJSON = "json"
)

// sweepOp is one /v1/sweep request: seeds at positions [pos, pos+count) of
// serveScenarios[scenario].
type sweepOp struct {
	scenario int
	pos      int
	count    int
	wire     string
	class    opClass
	// verify marks ops whose body is compared with the serial reference; want
	// is the reference body's checksum, filled in during set-up.
	verify bool
	want   uint64
}

func (o sweepOp) String() string {
	return fmt.Sprintf("%s pos=%d count=%d %s", serveScenarios[o.scenario], o.pos, o.count, o.wire)
}

// opResult is what a client saw of one op.
type opResult struct {
	latency time.Duration
	seeds   int
	class   opClass
	failed  bool
	// crc is the checksum of the delivered bytes (response body, or the
	// encoded record of an offline result).
	crc   uint64
	start time.Time
	// cache is a serving op's X-Cache grade; traceID and stages are filled on
	// traced serving ops only.
	cache   string
	traceID string
	stages  serverStages
}

// Bodies are compared through CRC-64/ECMA.  CRC-32C would be blind here: a
// store container ends in the CRC-32C of everything before it, and the
// CRC-32C of any such message is one constant residue, whatever the payload.
var ecma = crc64.MakeTable(crc64.ECMA)

func crcOf(b []byte) uint64 { return crc64.Checksum(b, ecma) }

// workloadRand derives a workload's own stream from the run seed, so two
// workloads never replay each other's draws.
func workloadRand(seed int64, workload string) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ int64(crcOf([]byte(workload)))<<20))
}

// windowKey identifies a novel window; each is issued at most once per
// daemon, because the daemon persists every assembled window as a window
// record and a repeat would take the fast path instead.
type windowKey struct{ scenario, pos, count int }

// corpusGen draws the serve-warm and serve-disk requests round by round.
type corpusGen struct {
	rng  *rand.Rand
	sz   sizes
	hot  []sweepOp
	zipf *rand.Zipf
	used map[windowKey]bool
	// scenarios and counts deal the novel windows' shapes.
	scenarios, counts *deck
}

func newCorpusGen(seed int64, workload string, sz sizes) *corpusGen {
	g := &corpusGen{rng: workloadRand(seed, workload), sz: sz, used: make(map[windowKey]bool)}
	for i := 0; i < sz.HotWindows; i++ {
		g.hot = append(g.hot, sweepOp{
			scenario: i % corpusScenarios,
			pos:      g.rng.Intn(sz.CorpusPositions - windowSize + 1),
			count:    windowSize,
			class:    classHitWindow,
			verify:   true,
		})
	}
	if sz.HotWindows > 1 {
		g.zipf = rand.NewZipf(g.rng, 1.2, 1, uint64(sz.HotWindows-1))
	}
	g.scenarios, g.counts = newDeck(g.rng, corpusScenarios), newDeck(g.rng, novelCounts)
	return g
}

// deck deals the values 0..n-1 in shuffled order, reshuffling when it runs
// out: over any stretch of draws every value comes up equally often (±1), so
// the work in a round barely depends on the seed.
type deck struct {
	rng   *rand.Rand
	cards []int
	next  int
}

func newDeck(rng *rand.Rand, n int) *deck {
	d := &deck{rng: rng, cards: make([]int, n), next: n}
	for i := range d.cards {
		d.cards[i] = i
	}
	return d
}

func (d *deck) draw() int {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// Novel windows hold 33..95 seeds but never 64, so none can alias a hot or
// priming window.
const (
	novelMin    = 33
	novelCounts = 62
)

// novel draws a fully covered window no earlier op of this generator used:
// scenario and seed count dealt from decks, random offset inside the primed
// range.
func (g *corpusGen) novel(wire string) sweepOp {
	k := windowKey{scenario: g.scenarios.draw(), count: novelMin + g.counts.draw()}
	if k.count >= windowSize {
		k.count++
	}
	for {
		k.pos = g.rng.Intn(g.sz.CorpusPositions - k.count + 1)
		if !g.used[k] {
			g.used[k] = true
			return sweepOp{scenario: k.scenario, pos: k.pos, count: k.count, wire: wire, class: classHitAssembled, verify: true}
		}
	}
}

func (g *corpusGen) wire() string {
	if g.rng.Intn(2) == 0 {
		return wireBin
	}
	return wireJSON
}

// warmRound is one serve-warm round: every block of ten requests holds nine
// exact repeats drawn zipf(1.2) from the hot windows and one novel window at
// a random slot, so the shares are exact and no percentile sits on the class
// boundary; wire is a coin flip per request.
func (g *corpusGen) warmRound() []sweepOp {
	ops := make([]sweepOp, 0, g.sz.WarmOps)
	for len(ops) < g.sz.WarmOps {
		novelAt := g.rng.Intn(10)
		for i := 0; i < 10 && len(ops) < g.sz.WarmOps; i++ {
			wire := g.wire()
			if i == novelAt {
				ops = append(ops, g.novel(wire))
				continue
			}
			h := 0
			if g.zipf != nil {
				h = int(g.zipf.Uint64())
			}
			op := g.hot[h]
			op.wire = wire
			ops = append(ops, op)
		}
	}
	return ops
}

// diskRound is one serve-disk round: all novel windows, bin wire.
func (g *corpusGen) diskRound() []sweepOp {
	ops := make([]sweepOp, g.sz.DiskOps)
	for i := range ops {
		ops[i] = g.novel(wireBin)
	}
	return ops
}

// primingOps covers positions [0, CorpusPositions) of every corpus scenario
// with aligned 64-seed windows.
func primingOps(sz sizes) []sweepOp {
	var ops []sweepOp
	for pos := 0; pos < sz.CorpusPositions; pos += windowSize {
		for sc := 0; sc < corpusScenarios; sc++ {
			ops = append(ops, sweepOp{scenario: sc, pos: pos, count: windowSize, wire: wireBin, class: classCold})
		}
	}
	return ops
}

// coldOps is the serve-cold / fleet-3 op list: per scenario, ColdWindows
// 64-seed windows sliding by 32 from basePos, ordered so ops 2k and 2k+1 are
// adjacent windows of one scenario — the two clients race into the flight
// table over the 32 seeds the pair shares.  Every seed is new to the daemon
// exactly once.  The list does not depend on the run seed: a cold daemon's
// work is fixed by its windows, and the seed only picks which ops are
// verified.
func coldOps(sz sizes, basePos int, seed int64) []sweepOp {
	var ops []sweepOp
	for pair := 0; pair < sz.ColdWindows/2; pair++ {
		for sc := range serveScenarios {
			for w := 2 * pair; w < 2*pair+2; w++ {
				ops = append(ops, sweepOp{scenario: sc, pos: basePos + w*windowSize/2, count: windowSize, wire: wireBin, class: classCold})
			}
		}
	}
	// One verified op per block of VerifyEvery ops of a scenario: the serial
	// references then cost the same whichever ops the seed picks.
	rng := workloadRand(seed, "verify-sample")
	for sc := range serveScenarios {
		var mine []int
		for i, op := range ops {
			if op.scenario == sc {
				mine = append(mine, i)
			}
		}
		markSample(rng, mine, sz.VerifyEvery, func(i int) { ops[i].verify = true })
	}
	return ops
}

// coldWarmupPos is where the cold warm-up windows start: far past anything
// coldOps touches, so warming up the connections computes no timed seed.
const coldWarmupPos = 1 << 20

// markSample calls mark for a 1-in-every sample of the op indices idx: one
// per block of every, at an offset rng picks.
func markSample(rng *rand.Rand, idx []int, every int, mark func(i int)) {
	for lo := 0; lo < len(idx); lo += every {
		hi := min(lo+every, len(idx))
		mark(idx[lo+rng.Intn(hi-lo)])
	}
}

// offlineOp is one Runner.Sweep or Runner.Extract call.
type offlineOp struct {
	// kind indexes sweepScenarios (sweep-offline) or extractKinds
	// (extract-offline).
	kind     int
	baseSeed int64
	verify   bool
	want     uint64
}

// offlineOps draws rounds × kinds ops, kinds interleaved, each with a fresh
// base seed.
func offlineOps(seed int64, workload string, rounds, kinds, verifyEvery int) []offlineOp {
	rng := workloadRand(seed, workload)
	ops := make([]offlineOp, 0, rounds*kinds)
	for r := 0; r < rounds; r++ {
		for k := 0; k < kinds; k++ {
			ops = append(ops, offlineOp{kind: k, baseSeed: 1 + rng.Int63n(1<<40)})
		}
	}
	// Sampled per kind, so the serial references cost the same whichever ops
	// the seed picks.
	sample := workloadRand(seed, "verify-sample")
	for k := 0; k < kinds; k++ {
		var mine []int
		for i, op := range ops {
			if op.kind == k {
				mine = append(mine, i)
			}
		}
		markSample(sample, mine, verifyEvery, func(i int) { ops[i].verify = true })
	}
	return ops
}

// warmupCount is the untimed warm-up before a timed round: 10% more ops.
func warmupCount(ops int) int {
	n := (ops + 9) / 10
	if n < 1 {
		n = 1
	}
	return n
}
