package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/adversary"
	"repro/internal/model"
)

// refIdentity and refChannelKey are the map-based R5 accounting the network's
// per-channel drop lists replaced, kept as the reference they must agree with:
// every message identity interned in a map, and consecutive drops counted in a
// map keyed by (channel, interned identity) that every undropped send resets.
type refIdentity struct {
	kind                     string
	action                   model.ActionID
	round, phase, value, aux int
}

type refChannelKey struct {
	from, to model.ProcID
	msg      int32
}

type refFairness struct {
	bound  int
	intern map[refIdentity]int32
	drops  map[refChannelKey]int
	stats  Stats
}

// send applies one send whose combined drop verdict is drop and reports
// whether the copy was dropped (a drop verdict that is not dropped was forced
// through by the fairness bound).
func (r *refFairness) send(s *scriptedSend) bool {
	r.stats.MessagesSent++
	m := &s.msg
	id := refIdentity{kind: m.Kind.String(), action: m.Action, round: m.Round, phase: m.Phase, value: m.Value, aux: m.Aux}
	k, ok := r.intern[id]
	if !ok {
		k = int32(len(r.intern))
		r.intern[id] = k
	}
	key := refChannelKey{from: s.from, to: s.to, msg: k}
	if s.drop && r.drops[key]+1 < r.bound {
		r.drops[key]++
		r.stats.MessagesDropped++
		return true
	}
	r.drops[key] = 0
	r.stats.MessagesDuplicated += s.dups
	return false
}

// scriptedShaper hands the network the verdict the script chose for the next
// send.
type scriptedShaper struct{ next adversary.Verdict }

func (*scriptedShaper) MaxExtraDelay() int { return 0 }

func (s *scriptedShaper) Shape(*rand.Rand, adversary.Link) adversary.Verdict { return s.next }

type scriptedSend struct {
	from, to model.ProcID
	msg      model.Message
	drop     bool
	dups     int
}

// fairnessScript is a random send sequence over n processes with fairness
// bound bound.  Messages differ only in Round and Value (plus one of two
// kinds), so a channel carries several live identities at once; drop verdicts
// are frequent enough that the bound forces copies through, and some sends
// carry shaper duplicates.
type fairnessScript struct {
	n, bound int
	sends    []scriptedSend
}

func (fairnessScript) Generate(r *rand.Rand, size int) reflect.Value {
	sc := fairnessScript{n: 2 + r.Intn(7), bound: 1 + r.Intn(10)}
	dropRate := 0.3 + 0.65*r.Float64()
	kinds := [...]model.MsgKind{model.Kind("alpha"), model.Kind("ack")}
	sc.sends = make([]scriptedSend, 1+r.Intn(40*size+1))
	for i := range sc.sends {
		from := r.Intn(sc.n)
		to := r.Intn(sc.n - 1)
		if to >= from {
			to++
		}
		s := &sc.sends[i]
		s.from, s.to = model.ProcID(from), model.ProcID(to)
		s.msg = model.Message{Kind: kinds[r.Intn(2)], Action: model.Action(0, 1), Round: r.Intn(3), Value: r.Intn(3)}
		s.drop = r.Float64() < dropRate
		if r.Intn(4) == 0 {
			s.dups = 1 + r.Intn(2)
		}
	}
	return reflect.ValueOf(sc)
}

// TestDropListsMatchMapAccounting runs random send/verdict sequences through
// the network's per-channel drop lists and through the map accounting they
// replaced, and requires the same drop-or-deliver decision for every send
// (hence the same forced deliveries) and the same Stats.  One network serves
// every sequence, so each also checks that reset leaves nothing behind.
func TestDropListsMatchMapAccounting(t *testing.T) {
	var nw network
	var stats Stats
	shaper := &scriptedShaper{}
	property := func(sc fairnessScript) bool {
		stats = Stats{}
		cfg := Config{N: sc.n, MaxSteps: len(sc.sends) + 2, Shaper: shaper,
			Network: NetworkConfig{Reliable: true, FairnessBound: sc.bound}}
		nw.reset(cfg, rand.New(rand.NewSource(1)), &stats)
		ref := refFairness{bound: sc.bound, intern: map[refIdentity]int32{}, drops: map[refChannelKey]int{}}
		for i := range sc.sends {
			s := &sc.sends[i]
			nw.due(i)
			shaper.next = adversary.Verdict{Drop: s.drop, Duplicates: s.dups}
			before := stats.MessagesDropped
			nw.send(i, s.from, s.to, &s.msg)
			if dropped := stats.MessagesDropped > before; dropped != ref.send(s) {
				t.Logf("n=%d bound=%d send %d (%+v): lists dropped=%v, map accounting disagrees", sc.n, sc.bound, i, *s, dropped)
				return false
			}
		}
		if stats != ref.stats {
			t.Logf("n=%d bound=%d: stats %+v, map accounting %+v", sc.n, sc.bound, stats, ref.stats)
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
