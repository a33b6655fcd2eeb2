package store_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/store"
)

func keyOf(i int) store.Key {
	return store.KeySpec{Kind: "sweep", Name: fmt.Sprintf("scenario-%d", i), SeedBase: 1, Count: 8}.Key()
}

// payloadOf builds a small but valid container so disk reads pass the
// integrity check.
func payloadOf(rule string) []byte {
	return store.EncodeSweepRecord(&store.SweepRecord{Scenario: rule, Check: "udc", SeedBase: 1})
}

func TestStorePutGetAcrossLayers(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	key, payload := keyOf(1), payloadOf("a")
	if _, ok := s.Get(key); ok {
		t.Fatalf("empty store returned a hit")
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("memory-layer Get = %v, %v", got, ok)
	}

	// A fresh store over the same directory must serve the entry from disk.
	s2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, ok = s2.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("disk-layer Get = %v, %v", got, ok)
	}
	st := s2.Stats()
	if st.DiskHits != 1 || st.MemHits != 0 || st.Misses != 0 {
		t.Fatalf("stats after disk hit: %+v", st)
	}
	// The disk hit is promoted into the memory layer.
	if _, ok := s2.Get(key); !ok {
		t.Fatalf("promoted entry missing")
	}
	if st := s2.Stats(); st.MemHits != 1 {
		t.Fatalf("stats after promotion: %+v", st)
	}
}

func TestStoreMemoryOnly(t *testing.T) {
	s, err := store.Open("", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	key, payload := keyOf(1), payloadOf("a")
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(key); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("memory-only Get = %v, %v", got, ok)
	}
	if _, ok := s.Get(keyOf(2)); ok {
		t.Fatalf("unexpected hit for unknown key")
	}
}

// TestStoreConcurrentSameKey hammers one key with parallel Puts and Gets from
// 8 goroutines.  Every hit must return one of the complete payloads written
// by some goroutine — never a torn or mixed entry — and the run must be
// race-clean.
func TestStoreConcurrentSameKey(t *testing.T) {
	s, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := keyOf(1)
	const goroutines = 8
	valid := make(map[string]bool)
	for g := 0; g < goroutines; g++ {
		valid[string(payloadOf(fmt.Sprintf("writer-%d", g)))] = true
	}
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			payload := payloadOf(fmt.Sprintf("writer-%d", g))
			for i := 0; i < 50; i++ {
				if err := s.Put(key, payload); err != nil {
					errc <- err
					return
				}
				if got, ok := s.Get(key); ok && !valid[string(got)] {
					errc <- fmt.Errorf("goroutine %d read a torn payload of %d bytes", g, len(got))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	// After the dust settles the entry is valid and decodable.
	got, ok := s.Get(key)
	if !ok || !valid[string(got)] {
		t.Fatalf("final entry invalid")
	}
	if _, err := store.DecodeSweepRecord(got); err != nil {
		t.Fatalf("final entry does not decode: %v", err)
	}
}

// TestStoreCorruptEntryIsAMiss verifies the checksum path: flipping a byte of
// the on-disk file, or truncating it, turns the entry into a counted miss
// rather than a crash or a wrong payload.
func TestStoreCorruptEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := keyOf(1)
	if err := s.Put(key, payloadOf("a")); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*", "*.bin"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("glob: %v, %v", entries, err)
	}
	path := entries[0]
	if path != s.EntryPath(key) {
		t.Fatalf("entry at %s, EntryPath says %s", path, s.EntryPath(key))
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := append([]byte(nil), raw...)
	corrupt[len(corrupt)/2] ^= 0x01
	for name, mutated := range map[string][]byte{
		"bit-flipped": corrupt,
		"truncated":   raw[:len(raw)/2],
		"empty":       {},
	} {
		if err := os.WriteFile(path, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		fresh, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := fresh.Get(key); ok {
			t.Fatalf("%s entry served as a hit", name)
		}
		st := fresh.Stats()
		if st.CorruptEntries != 1 || st.Misses != 1 {
			t.Fatalf("%s entry stats: %+v", name, st)
		}
	}

	// A fresh Put repairs the entry.
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Put(key, raw); err != nil {
		t.Fatal(err)
	}
	again, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := again.Get(key); !ok || !bytes.Equal(got, raw) {
		t.Fatalf("repaired entry not served")
	}
}

// TestStoreShardedLayout pins the on-disk sharding: entries land in 256
// two-hex-character subdirectories keyed by the first key byte, so
// million-entry corpora never pile into one directory.
func TestStoreShardedLayout(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	for i := 0; i < n; i++ {
		if err := s.Put(keyOf(i), payloadOf(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		key := keyOf(i)
		path := s.EntryPath(key)
		shard := filepath.Base(filepath.Dir(path))
		if len(shard) != 2 || shard != key.String()[:2] {
			t.Fatalf("entry %d sharded into %q, want first two hex chars of %s", i, shard, key)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("entry %d not at its sharded path: %v", i, err)
		}
	}
	if flat, _ := filepath.Glob(filepath.Join(dir, "*.bin")); len(flat) != 0 {
		t.Fatalf("%d entries landed unsharded in the root", len(flat))
	}
}

// TestStoreGetMultiPutMulti drives the batched API across both layers: a
// PutMulti batch, a fresh store reading the batch from disk, and a mixed
// hit/miss GetMulti with index-aligned results and exact counters.
func TestStoreGetMultiPutMulti(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	keys := make([]store.Key, n)
	payloads := make([][]byte, n)
	for i := range keys {
		keys[i] = keyOf(i)
		payloads[i] = payloadOf(fmt.Sprintf("p%d", i))
	}
	if failed, err := s.PutMulti(keys, payloads); failed != 0 || err != nil {
		t.Fatalf("PutMulti: failed=%d err=%v", failed, err)
	}
	if st := s.Stats(); st.Puts != n {
		t.Fatalf("Puts = %d, want %d", st.Puts, n)
	}

	// Memory-layer batch hit.
	got := s.GetMulti(keys)
	for i := range keys {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Fatalf("GetMulti[%d] differs", i)
		}
	}
	if st := s.Stats(); st.MemHits != n || st.Misses != 0 {
		t.Fatalf("stats after warm GetMulti: %+v", st)
	}

	// Fresh store: disk layer, interleaved with keys that were never stored.
	s2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mixed := []store.Key{keys[0], keyOf(100), keys[3], keyOf(101), keys[7]}
	got = s2.GetMulti(mixed)
	for i, want := range [][]byte{payloads[0], nil, payloads[3], nil, payloads[7]} {
		if !bytes.Equal(got[i], want) {
			t.Fatalf("mixed GetMulti[%d] = %d bytes, want %d", i, len(got[i]), len(want))
		}
	}
	if st := s2.Stats(); st.DiskHits != 3 || st.Misses != 2 {
		t.Fatalf("stats after mixed GetMulti: %+v", st)
	}

	// A corrupted batch member is a counted miss; the rest still hit.
	if err := os.WriteFile(s2.EntryPath(keys[1]), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got = s3.GetMulti([]store.Key{keys[0], keys[1], keys[2]})
	if got[0] == nil || got[1] != nil || got[2] == nil {
		t.Fatalf("corrupt member not isolated: %v", []bool{got[0] != nil, got[1] != nil, got[2] != nil})
	}
	if st := s3.Stats(); st.CorruptEntries != 1 || st.Misses != 1 || st.DiskHits != 2 {
		t.Fatalf("stats after corrupt batch member: %+v", st)
	}
}

func TestStoreLRUBounds(t *testing.T) {
	s, err := store.Open("", store.Options{MaxMemEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put(keyOf(i), payloadOf(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.MemEntries != 4 {
		t.Fatalf("MemEntries = %d, want 4", st.MemEntries)
	}
	if st.Evictions != 6 {
		t.Fatalf("Evictions = %d, want 6", st.Evictions)
	}
	// The most recent entries survive (memory-only store: evicted = gone).
	for i := 6; i < 10; i++ {
		if _, ok := s.Get(keyOf(i)); !ok {
			t.Fatalf("recent entry %d evicted", i)
		}
	}
	if _, ok := s.Get(keyOf(0)); ok {
		t.Fatalf("oldest entry survived eviction")
	}
}

// TestStoreGetMultiConcurrentDiskReads forces the batch disk path onto its
// worker pool (large remainder, GOMAXPROCS raised above one) and checks that
// payloads, stats and corruption isolation are identical to the sequential
// path.
func TestStoreGetMultiConcurrentDiskReads(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 96
	keys := make([]store.Key, n)
	payloads := make([][]byte, n)
	for i := range keys {
		keys[i] = keyOf(i)
		payloads[i] = payloadOf(fmt.Sprintf("p%d", i))
	}
	if failed, err := s.PutMulti(keys, payloads); failed != 0 || err != nil {
		t.Fatalf("PutMulti: failed=%d err=%v", failed, err)
	}
	if err := os.WriteFile(s.EntryPath(keys[13]), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Cold store with the memory layer disabled: every key goes to disk, and
	// a missing and a corrupt member ride along in the batch.
	s2, err := store.Open(dir, store.Options{MaxMemEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	mixed := append(append([]store.Key{}, keys...), keyOf(1000))
	got := s2.GetMulti(mixed)
	for i := range keys {
		want := payloads[i]
		if i == 13 {
			want = nil
		}
		if !bytes.Equal(got[i], want) {
			t.Fatalf("GetMulti[%d] = %d bytes, want %d", i, len(got[i]), len(want))
		}
	}
	if got[n] != nil {
		t.Fatal("never-stored key returned a payload")
	}
	if st := s2.Stats(); st.DiskHits != n-1 || st.Misses != 2 || st.CorruptEntries != 1 {
		t.Fatalf("stats after concurrent batch: %+v", st)
	}
}
