package sim

import (
	"math/rand"

	"repro/internal/adversary"
	"repro/internal/model"
)

// pendingMessage is a message in flight.
type pendingMessage struct {
	from, to model.ProcID
	msg      model.Message
}

// msgIdentity is the fixed-width projection of a Message that defines "the
// same message" for fairness condition R5.  It mirrors Message.Key() field for
// field, with the interned kind in place of its name.
type msgIdentity struct {
	kind                     model.MsgKind
	action                   model.ActionID
	round, phase, value, aux int
}

// dropEntry counts the consecutive drops of one message on one channel.
type dropEntry struct {
	id    msgIdentity
	count int
}

// network implements reliable and fair-lossy channels.  In-flight messages
// live in a calendar queue: a ring of time buckets indexed by delivery time
// modulo the ring size.  Delivery delays are bounded by
// MaxDelay+MaxExtraDelay+1 steps (the extra-delay term is zero without a
// channel shaper), so a ring of MaxDelay+MaxExtraDelay+2 buckets guarantees
// each bucket is fully drained before it is reused.
//
// Fairness (R5) is counted per channel: drops[from*n+to] lists the messages
// whose last copy on that channel was dropped, with their consecutive-drop
// counts.  A message absent from the list has count 0, so a delivered copy
// removes its entry, and an undropped send on a channel with an empty list
// touches nothing.  The owning Engine keeps buckets and lists across runs.
type network struct {
	cfg     NetworkConfig
	rng     *rand.Rand
	buckets [][]pendingMessage // ring keyed by deliverAt % len(buckets)
	n       int
	drops   [][]dropEntry // indexed by from*n+to
	stats   *Stats
	// Channel shaping (nil shaper means none).  shaperMax caps the extra
	// delay a verdict may add, and link carries the run dimensions every
	// Shape call needs; only link.Now, link.From and link.To vary per send.
	shaper    adversary.ChannelShaper
	shaperMax int
	link      adversary.Link
}

// reset prepares the network for a new run, reusing buffers where possible.
func (nw *network) reset(cfg Config, rng *rand.Rand, stats *Stats) {
	nw.cfg = cfg.Network
	nw.rng = rng
	nw.stats = stats
	nw.shaper = cfg.Shaper
	nw.shaperMax = 0
	if nw.shaper != nil {
		if m := nw.shaper.MaxExtraDelay(); m > 0 {
			nw.shaperMax = m
		}
	}
	nw.link = adversary.Link{N: cfg.N, Horizon: cfg.MaxSteps}
	ring := nw.cfg.MaxDelay + nw.shaperMax + 2
	if len(nw.buckets) < ring {
		grown := make([][]pendingMessage, ring)
		copy(grown, nw.buckets)
		nw.buckets = grown
	}
	for i := range nw.buckets {
		nw.buckets[i] = nw.buckets[i][:0]
	}
	nw.n = cfg.N
	if len(nw.drops) < cfg.N*cfg.N {
		grown := make([][]dropEntry, cfg.N*cfg.N)
		copy(grown, nw.drops)
		nw.drops = grown
	}
	for i := range nw.drops {
		nw.drops[i] = nw.drops[i][:0]
	}
}

// fairnessBound returns the effective consecutive-drop cap.
func (nw *network) fairnessBound() int {
	if nw.cfg.FairnessBound <= 0 {
		return 8
	}
	return nw.cfg.FairnessBound
}

// identityOf returns msg's fixed-width identity.
func identityOf(msg *model.Message) msgIdentity {
	return msgIdentity{kind: msg.Kind, action: msg.Action, round: msg.Round, phase: msg.Phase, value: msg.Value, aux: msg.Aux}
}

// send enqueues a message sent at time now, applying the loss model and the
// channel shaper, if any.  The shaper's verdict composes with the base model:
// drops from either source share the fairness accounting, extra delay adds to
// the base delay draw, and duplicates are enqueued as additional copies.  msg
// is read, not retained.
func (nw *network) send(now int, from, to model.ProcID, msg *model.Message) {
	nw.stats.MessagesSent++
	var verdict adversary.Verdict
	if nw.shaper != nil {
		nw.link.Now, nw.link.From, nw.link.To = now, from, to
		verdict = nw.shaper.Shape(nw.rng, nw.link)
		if verdict.ExtraDelay < 0 {
			verdict.ExtraDelay = 0
		} else if verdict.ExtraDelay > nw.shaperMax {
			verdict.ExtraDelay = nw.shaperMax
		}
	}
	drop := verdict.Drop
	if !nw.cfg.Reliable && nw.cfg.DropProbability > 0 {
		if nw.rng.Float64() < nw.cfg.DropProbability {
			drop = true
		}
	}
	ch := int(from)*nw.n + int(to)
	if list := nw.drops[ch]; drop || len(list) > 0 {
		id := identityOf(msg)
		i := 0
		for i < len(list) && list[i].id != id {
			i++
		}
		count := 0
		if i < len(list) {
			count = list[i].count
		}
		if drop && count+1 < nw.fairnessBound() {
			if i == len(list) {
				list = append(list, dropEntry{id: id})
			}
			list[i].count++
			nw.drops[ch] = list
			nw.stats.MessagesDropped++
			return
		}
		// Delivered, or forced through by the fairness bound: the count
		// returns to 0, so an entry goes.
		if i < len(list) {
			list[i] = list[len(list)-1]
			nw.drops[ch] = list[:len(list)-1]
		}
	}
	nw.enqueue(now, from, to, msg, verdict.ExtraDelay)
	for i := 0; i < verdict.Duplicates; i++ {
		nw.stats.MessagesDuplicated++
		nw.enqueue(now, from, to, msg, verdict.ExtraDelay)
	}
}

// enqueue places one copy of a message into the delivery ring, drawing its
// base delay and adding the shaper's extra delay.  The pendingMessage is
// written in its bucket slot (appending a literal would build it on the stack
// and copy it in).
func (nw *network) enqueue(now int, from, to model.ProcID, msg *model.Message, extraDelay int) {
	delay := 1 + extraDelay
	if nw.cfg.MaxDelay > 0 {
		delay += nw.rng.Intn(nw.cfg.MaxDelay + 1)
	}
	slot := (now + delay) % len(nw.buckets)
	bucket := nw.buckets[slot]
	i := len(bucket)
	if i < cap(bucket) {
		bucket = bucket[:i+1]
	} else {
		bucket = append(bucket, pendingMessage{})
	}
	nw.buckets[slot] = bucket
	pm := &bucket[i]
	pm.from, pm.to = from, to
	pm.msg = *msg
}

// due returns the messages to deliver at time now, in deterministic send
// order, and recycles the bucket.  The returned slice is only valid until the
// bucket's time slot comes around again (at time now+len(buckets)), which is
// after the caller has finished delivering: handlers invoked during delivery
// can only enqueue into other buckets because delays are at least one step and
// strictly smaller than the ring size.
func (nw *network) due(now int) []pendingMessage {
	slot := now % len(nw.buckets)
	msgs := nw.buckets[slot]
	nw.buckets[slot] = msgs[:0]
	return msgs
}
