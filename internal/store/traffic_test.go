package store_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/store"
	"repro/internal/workload"
)

// trafficPayload is generation gen of key i's record: an outcome container
// whose size grows with i, so the memory layer's byte bound evicts too.
func trafficPayload(gen, i int) []byte {
	return store.EncodeOutcome(workload.RunOutcome{
		Seed:       int64(100*gen + i),
		Violations: []model.Violation{{Rule: "udc", Detail: strings.Repeat("x", 4*i)}},
	})
}

// inMemory lists which of keys the memory layer holds.  Each key is probed
// with the log emptied, so only a memory hit can answer, and the log is put
// back afterwards.  A hit counts in MemHits and is refreshed in the LRU, in
// key order, so the probe is itself part of the script.
func inMemory(t *testing.T, s *store.Store, keys []store.Key) string {
	t.Helper()
	log, err := os.ReadFile(s.LogPath())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.LogPath(), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var held []string
	for i, key := range keys {
		if _, ok := s.Probe(key); ok {
			held = append(held, fmt.Sprintf("k%d", i))
		}
	}
	if err := os.WriteFile(s.LogPath(), log, 0o644); err != nil {
		t.Fatal(err)
	}
	return strings.Join(held, " ")
}

// TestStoreScriptedTraffic runs one disk store, with a memory layer of four
// entries and a few hundred bytes, through a fixed script of batched writes,
// a reopen, batched reads out of log order (with a duplicate, a missing and an
// overwritten key), a bit-flipped payload in the middle of a batch, and
// interleaved Gets and Probes.  After every step it checks each returned
// payload ("g/i" is generation g of key i, "-" a miss), the full Stats, and
// which keys the memory layer then holds.  It pins the store's observable
// behaviour, so any rewrite of its read path or LRU must leave it unchanged.
func TestStoreScriptedTraffic(t *testing.T) {
	dir := t.TempDir()
	opts := store.Options{MaxMemEntries: 4, MaxMemBytes: 200}
	s, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	k := make([]store.Key, 10) // k9 is never stored
	labels := make(map[string]string)
	for i := range k {
		k[i] = keyOf(i)
		for gen := 1; gen <= 3; gen++ {
			labels[string(trafficPayload(gen, i))] = fmt.Sprintf("%d/%d", gen, i)
		}
	}
	put := func(gen int, idxs ...int) []string {
		keys := make([]store.Key, len(idxs))
		payloads := make([][]byte, len(idxs))
		for j, i := range idxs {
			keys[j], payloads[j] = k[i], trafficPayload(gen, i)
		}
		if failed, err := s.PutMulti(keys, payloads); failed != 0 || err != nil {
			t.Fatalf("PutMulti: failed=%d err=%v", failed, err)
		}
		return nil
	}
	label := func(payload []byte, ok bool) string {
		if !ok {
			return "-"
		}
		if l, known := labels[string(payload)]; known {
			return l
		}
		return fmt.Sprintf("unknown %x", payload)
	}
	getMulti := func(idxs ...int) []string {
		keys := make([]store.Key, len(idxs))
		for j, i := range idxs {
			keys[j] = k[i]
		}
		var got []string
		for _, payload := range s.GetMulti(keys) {
			got = append(got, label(payload, payload != nil))
		}
		return got
	}
	get := func(i int) string { return label(s.Get(k[i])) }
	probe := func(i int) string { return label(s.Probe(k[i])) }
	reopen := func() []string {
		if s, err = store.Open(dir, opts); err != nil {
			t.Fatal(err)
		}
		return nil
	}
	flip := func(i int) { damage(t, s, k[i], func(p []byte) { p[len(p)/2] ^= 0x04 }) }

	steps := []struct {
		name  string
		do    func() []string
		want  string
		stats store.Stats
		mem   string
	}{
		{"put k0..k5", func() []string { return put(1, 0, 1, 2, 3, 4, 5) }, "",
			store.Stats{Puts: 6, Evictions: 2, BytesWritten: 240, MemEntries: 4, MemBytes: 176},
			"k2 k3 k4 k5"},
		{"put k6 k7, overwrite k2", func() []string { return put(2, 6, 7, 2) }, "",
			store.Stats{MemHits: 4, Puts: 9, Evictions: 5, BytesWritten: 390, MemEntries: 4, MemBytes: 200},
			"k2 k5 k6 k7"},
		{"reopen", reopen, "", store.Stats{}, ""},
		{"getmulti out of log order", func() []string { return getMulti(5, 1, 2, 9, 1, 7, 0) }, "1/5 1/1 2/2 - 1/1 2/7 1/0",
			store.Stats{DiskHits: 6, Misses: 1, Evictions: 1, BytesRead: 244, MemEntries: 4, MemBytes: 160},
			"k0 k1 k2 k7"},
		{"overwrite k1 k3 after reopen", func() []string { return put(3, 1, 3) }, "",
			store.Stats{MemHits: 4, DiskHits: 6, Misses: 1, Puts: 2, Evictions: 2, BytesWritten: 76, BytesRead: 244, MemEntries: 4, MemBytes: 172},
			"k1 k2 k3 k7"},
		{"getmulti after overwrite", func() []string { return getMulti(3, 1, 0, 2) }, "3/3 3/1 1/0 2/2",
			store.Stats{MemHits: 11, DiskHits: 7, Misses: 1, Puts: 2, Evictions: 3, BytesWritten: 76, BytesRead: 274, MemEntries: 4, MemBytes: 144},
			"k0 k1 k2 k3"},
		// k4..k7 lie back to back in the log, k5 in the middle of them.
		{"bit flip mid-batch", func() []string { flip(5); return getMulti(3, 4, 5, 6, 7, 1) }, "3/3 1/4 - 2/6 2/7 3/1",
			store.Stats{MemHits: 17, DiskHits: 10, Misses: 2, Puts: 2, CorruptEntries: 1, Evictions: 6, BytesWritten: 76, BytesRead: 432, MemEntries: 4, MemBytes: 192},
			"k1 k4 k6 k7"},
		{"interleaved get and probe", func() []string {
			return []string{probe(5), get(5), probe(9), get(9), get(4), probe(2), get(0), probe(3), get(5)}
		}, "- - - - 1/4 2/2 1/0 3/3 -",
			store.Stats{MemHits: 22, DiskHits: 13, Misses: 5, Puts: 2, CorruptEntries: 3, Evictions: 9, BytesWritten: 76, BytesRead: 542, MemEntries: 4, MemBytes: 156},
			"k0 k2 k3 k4"},
	}
	for _, step := range steps {
		got := strings.Join(step.do(), " ")
		st := s.Stats()
		mem := inMemory(t, s, k)
		if got != step.want {
			t.Errorf("%s: payloads %q, want %q", step.name, got, step.want)
		}
		if st != step.stats {
			t.Errorf("%s: stats %+v, want %+v", step.name, st, step.stats)
		}
		if mem != step.mem {
			t.Errorf("%s: memory holds %q, want %q", step.name, mem, step.mem)
		}
	}
}
