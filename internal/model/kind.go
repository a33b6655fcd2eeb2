package model

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
)

// MsgKind is a protocol-level message type ("alpha", "ack", "estimate", …):
// an index into one process-wide table of kind names.  Index 0 is "", so a
// zero Message has a zero kind.  A recorded event keeps the two-byte index
// instead of a string, which keeps every event slab free of pointers; the
// name appears only at the edges — String, JSON, the codec and the identity
// hash, which folds the name, so nothing persisted or hashed depends on the
// order in which a process interns its kinds.
type MsgKind uint16

// The table is bounded in both entries and name length, so decoding hostile
// input can fill it only so far and then fails instead of growing it.
const (
	maxKinds   = 1024
	maxKindLen = 255
	// scannedKinds is how many of the first kinds InternKind compares
	// names with before it probes the map.
	scannedKinds = 16
)

// kindTable is one immutable snapshot of the intern table.  Readers load the
// current snapshot without locking; interning a new name publishes a new
// snapshot under kindMu.  The protocols intern their handful of kinds at
// package initialisation, so a snapshot is rebuilt only a few times per
// process.
type kindTable struct {
	names []string
	ids   map[string]MsgKind
}

var (
	kindMu sync.Mutex
	kinds  = newKinds()
)

// newKinds returns the table holding only "".  It initialises kinds, so a
// package-level var that interns a kind is ordered after it.
func newKinds() *atomic.Pointer[kindTable] {
	p := new(atomic.Pointer[kindTable])
	p.Store(&kindTable{names: []string{""}, ids: map[string]MsgKind{"": 0}})
	return p
}

// Kind interns name and returns its kind.  It is for the fixed kinds a
// protocol declares (and for tests), and panics if the table is full or the
// name too long; decoders use InternKind.
func Kind(name string) MsgKind {
	if k, ok := kinds.Load().ids[name]; ok {
		return k
	}
	k, err := InternKind([]byte(name))
	if err != nil {
		panic(err)
	}
	return k
}

// InternKind returns the kind named by name, interning it on first sight.  A
// known name costs a lock-free lookup and no allocation.  It fails once the
// table holds its bound of kinds, or for a name longer than the bound, so
// input that invents kinds becomes a decode error, not unbounded growth.
func InternKind(name []byte) (MsgKind, error) {
	t := kinds.Load()
	// The protocols' few kinds are interned first, at initialisation, and
	// comparing against them beats hashing the name; the map serves the rest.
	for i, n := range t.names[:min(len(t.names), scannedKinds)] {
		if n == string(name) {
			return MsgKind(i), nil
		}
	}
	if k, ok := t.ids[string(name)]; ok {
		return k, nil
	}
	return intern(name)
}

// intern adds name to the table, unless another caller has meanwhile.  It is
// InternKind's slow path, kept apart so the lookup stays small.
func intern(name []byte) (MsgKind, error) {
	if len(name) > maxKindLen {
		return 0, fmt.Errorf("model: message kind of %d bytes exceeds %d", len(name), maxKindLen)
	}
	kindMu.Lock()
	defer kindMu.Unlock()
	t := kinds.Load()
	if k, ok := t.ids[string(name)]; ok {
		return k, nil
	}
	if len(t.names) >= maxKinds {
		return 0, fmt.Errorf("model: message-kind table full (%d kinds), refusing %q", maxKinds, name)
	}
	k := MsgKind(len(t.names))
	s := string(name)
	next := &kindTable{names: make([]string, len(t.names), len(t.names)+1), ids: make(map[string]MsgKind, len(t.ids)+1)}
	copy(next.names, t.names)
	next.names = append(next.names, s)
	for n, id := range t.ids {
		next.ids[n] = id
	}
	next.ids[s] = k
	kinds.Store(next)
	return k, nil
}

// String returns the kind's name.
func (k MsgKind) String() string {
	if names := kinds.Load().names; int(k) < len(names) {
		return names[k]
	}
	return "MsgKind(" + strconv.Itoa(int(k)) + ")"
}

// MarshalText renders the kind's name, so JSON carries the name as it did
// when Message.Kind was a string.
func (k MsgKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText interns the name it reads.
func (k *MsgKind) UnmarshalText(text []byte) error {
	v, err := InternKind(text)
	if err != nil {
		return err
	}
	*k = v
	return nil
}
