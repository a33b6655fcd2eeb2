package store_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
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
// a record in the log, or tearing the log inside its last record, turns the
// entry into a counted miss rather than a crash or a wrong payload.
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
	off, n, ok := s.Locate(key)
	if !ok || off != store.FrameHeaderSize || n != len(payloadOf("a")) {
		t.Fatalf("Locate = %d, %d, %v; want the log's only frame", off, n, ok)
	}
	path := s.LogPath()
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw := log[off : off+int64(n)]

	corrupt := append([]byte(nil), log...)
	corrupt[off+int64(n/2)] ^= 0x01
	for name, mutated := range map[string][]byte{
		"bit-flipped": corrupt,
		"truncated":   log[:off+int64(n/2)], // a torn tail
		"empty":       log[:off],            // the header landed, no payload
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

// TestStoreLogLayout pins the on-disk layout: a store directory holds one
// log of frames in write order, each a header (payload length, key, CRC-32C)
// followed by the payload, and nothing else in the directory — such as the
// shard directories of the one-file-per-record layout — is read.
func TestStoreLogLayout(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	var size int64
	for i := 0; i < n; i++ {
		payload := payloadOf(fmt.Sprintf("p%d", i))
		if err := s.Put(keyOf(i), payload); err != nil {
			t.Fatal(err)
		}
		size += int64(store.FrameHeaderSize + len(payload))
	}
	files, err := os.ReadDir(dir)
	if err != nil || len(files) != 1 || filepath.Join(dir, files[0].Name()) != s.LogPath() {
		t.Fatalf("store directory holds %v (%v), want only the log %s", files, err, s.LogPath())
	}
	log, err := os.ReadFile(s.LogPath())
	if err != nil || int64(len(log)) != size {
		t.Fatalf("log is %d bytes (%v), want %d", len(log), err, size)
	}
	prev := int64(0)
	for i := 0; i < n; i++ {
		key := keyOf(i)
		off, length, ok := s.Locate(key)
		if !ok || off <= prev {
			t.Fatalf("record %d at %d (ok=%v), want past %d", i, off, ok, prev)
		}
		prev = off
		header := log[off-store.FrameHeaderSize : off]
		if got := binary.LittleEndian.Uint32(header); int(got) != length {
			t.Fatalf("record %d: header length %d, Locate says %d", i, got, length)
		}
		if !bytes.Equal(header[4:4+len(key)], key[:]) {
			t.Fatalf("record %d framed under another key", i)
		}
		if !bytes.Equal(log[off:off+int64(length)], payloadOf(fmt.Sprintf("p%d", i))) {
			t.Fatalf("record %d: payload bytes differ", i)
		}
	}

	// Stale shard directories and foreign files are ignored.
	stale := filepath.Join(dir, keyOf(0).String()[:2])
	if err := os.MkdirAll(stale, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{filepath.Join(stale, keyOf(0).String()[2:]+".bin"), filepath.Join(dir, "README.txt")} {
		if err := os.WriteFile(path, []byte("not a container"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reopened, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := reopened.GetMulti([]store.Key{keyOf(0), keyOf(n - 1)})
	if !bytes.Equal(got[0], payloadOf("p0")) || !bytes.Equal(got[1], payloadOf(fmt.Sprintf("p%d", n-1))) {
		t.Fatal("reopened store does not serve the log's records")
	}
	if res := reopened.ScanShards(false); res.Entries != n {
		t.Fatalf("census counts %d records, want %d", res.Entries, n)
	}
}

// damage rewrites key's payload in the store's log in place.
func damage(t *testing.T, s *store.Store, key store.Key, mutate func(payload []byte)) {
	t.Helper()
	off, n, ok := s.Locate(key)
	if !ok {
		t.Fatalf("key %s is not in the log", key)
	}
	log, err := os.ReadFile(s.LogPath())
	if err != nil {
		t.Fatal(err)
	}
	mutate(log[off : off+int64(n)])
	if err := os.WriteFile(s.LogPath(), log, 0o644); err != nil {
		t.Fatal(err)
	}
}

// garbage overwrites a payload with repeated junk.
func garbage(payload []byte) {
	for i := range payload {
		payload[i] = "garbage"[i%7]
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
	damage(t, s2, keys[1], garbage)
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

// TestStoreGetMultiConcurrentDiskReads reads a large batch from the log with
// the memory layer off — a missing and a corrupt member riding along — and
// checks payloads, stats and corruption isolation, then has several
// goroutines read the same batch at once (GOMAXPROCS raised above one)
// while another appends, and checks that every one sees the same payloads.
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
	damage(t, s, keys[13], garbage)

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

	const readers = 4
	var wg sync.WaitGroup
	errc := make(chan error, readers+1)
	wg.Add(readers + 1)
	go func() {
		defer wg.Done()
		for i := 0; i < 32; i++ {
			if err := s2.Put(keyOf(2000+i), payloadOf(fmt.Sprintf("w%d", i))); err != nil {
				errc <- err
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		go func() {
			defer wg.Done()
			got := s2.GetMulti(mixed)
			for i := range keys {
				if i != 13 && !bytes.Equal(got[i], payloads[i]) {
					errc <- fmt.Errorf("concurrent GetMulti[%d] = %d bytes, want %d", i, len(got[i]), len(payloads[i]))
					return
				}
			}
			if got[13] != nil || got[n] != nil {
				errc <- fmt.Errorf("concurrent GetMulti served a corrupt or never-stored member")
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestGetMultiAllocs pins the batched read's allocations.  On a reopened disk
// store with the memory layer off, so every call reads the log, a GetMulti
// over keys one PutMulti wrote back to back allocates three times whatever
// the batch size: the result, the list of keys left for the log and the one
// slab their payloads share.  A per-record allocation in the read makes the
// count grow with the batch.  And with a warm slab, PutMulti's admission
// allocates nothing per record, even when every record evicts another.
func TestGetMultiAllocs(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{MaxMemEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]store.Key, 256)
	payloads := make([][]byte, len(keys))
	for i := range keys {
		keys[i] = keyOf(i)
		payloads[i] = payloadOf(fmt.Sprintf("p%d", i))
	}
	if failed, err := s.PutMulti(keys, payloads); failed != 0 || err != nil {
		t.Fatalf("PutMulti: failed=%d err=%v", failed, err)
	}
	r, err := store.Open(dir, store.Options{MaxMemEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{16, 64, 256} {
		if got := testing.AllocsPerRun(20, func() { r.GetMulti(keys[:n]) }); got != 3 {
			t.Errorf("GetMulti of %d keys read from the log allocates %v times, want 3", n, got)
		}
		if got := testing.AllocsPerRun(5, func() { s.PutMulti(keys[:n], payloads[:n]) }); got != 0 {
			t.Errorf("PutMulti of %d indexed keys allocates %v times, want 0", n, got)
		}
	}
}

// TestGetMultiLargeBatch reads a batch larger than a pooled read scratch may
// be: a corrupt frame in the middle of its one run is a counted miss, its
// neighbours are served byte-equal, and a served payload's capacity ends
// with it, so appending to one cannot overwrite the next.  The same holds
// for frames that are not adjacent, each read on its own.
func TestGetMultiLargeBatch(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	keys := []store.Key{keyOf(0), keyOf(1), keyOf(2)}
	payloads := make([][]byte, len(keys))
	for i := range payloads {
		payloads[i] = store.EncodeStreamError(strings.Repeat(fmt.Sprint(i), 512<<10))
	}
	if failed, err := s.PutMulti(keys, payloads); failed != 0 || err != nil {
		t.Fatalf("PutMulti: failed=%d err=%v", failed, err)
	}
	damage(t, s, keys[1], garbage)
	r, err := store.Open(dir, store.Options{MaxMemEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	got := r.GetMulti([]store.Key{keys[2], keys[1], keys[0]})
	if !bytes.Equal(got[0], payloads[2]) || got[1] != nil || !bytes.Equal(got[2], payloads[0]) {
		t.Fatal("large batch: corrupt member not isolated or neighbours not served")
	}
	if st := r.Stats(); st.DiskHits != 2 || st.Misses != 1 || st.CorruptEntries != 1 {
		t.Fatalf("stats after large batch: %+v", st)
	}
	apart := r.GetMulti([]store.Key{keys[2], keys[0]})
	if !bytes.Equal(apart[0], payloads[2]) || !bytes.Equal(apart[1], payloads[0]) {
		t.Fatal("frames apart: not served byte-equal")
	}
	for i, p := range append(got, apart...) {
		if p != nil && cap(p) != len(p) {
			t.Errorf("payload %d has capacity %d past its %d bytes", i, cap(p), len(p))
		}
	}
}
