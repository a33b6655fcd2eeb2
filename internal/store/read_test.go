package store

import (
	"bytes"
	"testing"

	"repro/internal/workload"
)

// TestOverwriteBeatsInFlightRead runs by hand the interleaving of a log read
// and an overwrite of the same key: a GetMulti looks the key up, a PutMulti
// overwrites it before the read, and the read then lands.  The batch serves
// the older payload, the live one when it looked the key up, but must not
// admit it: the memory layer keeps the overwrite, so last-wins holds for
// every later read.  A window that recomputes an incompatible record and
// overwrites it depends on that.
func TestOverwriteBeatsInFlightRead(t *testing.T) {
	dir := t.TempDir()
	key := KeySpec{Kind: "stale", Name: "a"}.Key()
	older := EncodeOutcome(workload.RunOutcome{Seed: 1})
	newer := EncodeOutcome(workload.RunOutcome{Seed: 2})
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, older); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir, Options{}); err != nil {
		t.Fatal(err)
	}

	keys, payloads := []Key{key}, make([][]byte, 1)
	rest := s.lookup(keys, payloads, true)
	if len(rest) != 1 {
		t.Fatalf("lookup left %d keys for the log, want 1", len(rest))
	}
	if err := s.Put(key, newer); err != nil {
		t.Fatal(err)
	}
	s.read(rest, payloads)
	s.settle(keys, rest, payloads, true)
	if !bytes.Equal(payloads[0], older) {
		t.Fatalf("the in-flight read served %x, want the record it looked up", payloads[0])
	}
	for _, get := range []func(Key) ([]byte, bool){s.Get, s.Probe} {
		if got, ok := get(key); !ok || !bytes.Equal(got, newer) {
			t.Fatalf("after the read landed the store serves %x, want the overwrite", got)
		}
	}
	if st := s.Stats(); st.DiskHits != 1 || st.MemHits != 2 || st.MemEntries != 1 {
		t.Fatalf("stats %+v, want one disk hit and the overwrite served twice from memory", st)
	}
}
