package model

// Fast field-fold hashing over event fields.  The epistemic indexer and the
// history fingerprint intern local states by a hash chained over per-event
// identity hashes; folding the fields directly avoids materialising per-event
// identity strings (the historical string-keyed classing path, retired in
// favour of this fold).  The fields folded here are exactly the ones the
// legacy Event.IdentityKey rendered, which the cross-check test in
// hash_test.go pins: the concrete mix is free to change as long as it keeps
// partitioning events and histories the way the strings did.
//
// The mix is the splitmix64 finalizer — two multiplies and three xor-shifts
// per folded word.  The indexer hashes every event of every run it ingests,
// so this sits on the index-build hot path; the previous byte-at-a-time
// FNV-1a fold spent eight multiplies per byte and dominated the profile.

// IdentityHashSeed is the initial value of a chained identity hash.
const IdentityHashSeed uint64 = 0x9e3779b97f4a7c15

// ChainHash folds the word v into h with full avalanche.  It is how
// per-event identity hashes combine into history fingerprints.  The mix is a
// bijection of the combined word, so for a fixed h distinct values of v never
// collide; chains collide only through 64-bit accidents.
func ChainHash(h, v uint64) uint64 {
	z := h + 0x9e3779b97f4a7c15 + v
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// foldInt folds an integer field.
func foldInt(h uint64, v int) uint64 { return ChainHash(h, uint64(int64(v))) }

// foldString folds a length-prefixed string field, eight bytes per fold.
func foldString(h uint64, s string) uint64 {
	h = foldInt(h, len(s))
	for len(s) >= 8 {
		v := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
		h = ChainHash(h, v)
		s = s[8:]
	}
	if len(s) > 0 {
		var v uint64
		for i := 0; i < len(s); i++ {
			v = v<<8 | uint64(s[i])
		}
		h = ChainHash(h, v)
	}
	return h
}

// foldAction folds an action identity.
func foldAction(h uint64, a ActionID) uint64 {
	return ChainHash(h, uint64(int64(a.Seq))<<8^uint64(a.Initiator))
}

// IdentityHash returns the 64-bit identity hash of the event, used by the
// epistemic checker to compare local histories.  Two events the checker must
// distinguish hash differently (up to 64-bit collisions): every identity
// field is folded behind the event kind, and variable-width fields are
// length-prefixed.  It reads the body in place and folds a message kind's
// name, not its index, so hashes do not depend on intern order.
func (e *Event) IdentityHash() uint64 {
	h := ChainHash(IdentityHashSeed, uint64(int64(e.Kind))<<8^uint64(e.Peer))
	switch e.Kind {
	case EventSend, EventRecv:
		h = foldString(h, e.msgKind.String())
		h = foldAction(h, ActionID{Initiator: ProcID(e.initiator), Seq: e.seq})
		for _, w := range e.word {
			h = foldInt(h, w)
		}
		h = ChainHash(h, uint64(e.set[0]))
		h = ChainHash(h, uint64(e.set[1]))
	case EventInit, EventDo:
		h = foldAction(h, ActionID{Initiator: ProcID(e.initiator), Seq: e.seq})
	case EventSuspect:
		switch {
		case e.flags&flagGeneralized != 0:
			h = foldInt(h, 1)
			h = ChainHash(h, uint64(e.set[1]))
			h = foldInt(h, e.word[0])
		case e.flags&flagCorrectReport != 0:
			h = foldInt(h, 2)
			h = ChainHash(h, uint64(e.word[1]))
		default:
			h = foldInt(h, 3)
			h = ChainHash(h, uint64(e.set[0]))
		}
	}
	return h
}

// HistoryKey is the fingerprint of a History.  Two histories with equal keys
// are treated as identical local states by the epistemic checker.  The
// fingerprint combines the chained identity hash with the history length and
// the identity hash of the final event, which makes accidental collisions
// vanishingly unlikely for the run sizes this repository works with.
type HistoryKey struct {
	// Hash is the chained fold of all per-event identity hashes.
	Hash uint64
	// Len is the number of events.
	Len int
	// Last is the identity hash of the final event (zero for an empty
	// history).
	Last uint64
}

// Key returns the history's fingerprint.
func (h History) Key() HistoryKey {
	hash := IdentityHashSeed
	var last uint64
	for i := range h {
		last = h[i].IdentityHash()
		hash = ChainHash(hash, last)
	}
	return HistoryKey{Hash: hash, Len: len(h), Last: last}
}
