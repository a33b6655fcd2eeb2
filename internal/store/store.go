// Package store is the run-corpus layer: a compact deterministic binary codec
// for recorded runs, per-seed records and sweep/extraction results, plus a
// content-addressed on-disk store with an in-memory LRU front.  Entries are
// keyed by a digest of their identity — per-seed records (a sweep's scored
// outcome, an extraction source's recorded run) by (source name, adversary,
// concrete seed value), request records by the full request window — plus
// the engine and codec versions.  On disk, entries shard into 256
// subdirectories by key prefix so corpora of millions of per-seed records
// keep directories small; GetMulti/PutMulti batch whole windows.  Writes are
// atomic so concurrent readers never observe torn entries, and reads are
// checksummed so corruption or truncation is detected and treated as a miss
// rather than served.
package store

import (
	"container/list"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
)

// Options tunes a Store.
type Options struct {
	// MaxMemEntries bounds the in-memory LRU layer's entry count.
	// Zero means 256; negative disables the memory layer.
	MaxMemEntries int
	// MaxMemBytes bounds the in-memory LRU layer's total payload bytes.
	// Zero means 64 MiB.
	MaxMemBytes int64
}

func (o Options) maxMemEntries() int {
	if o.MaxMemEntries == 0 {
		return 256
	}
	return o.MaxMemEntries
}

func (o Options) maxMemBytes() int64 {
	if o.MaxMemBytes == 0 {
		return 64 << 20
	}
	return o.MaxMemBytes
}

// Stats counts a store's traffic.  All counters are cumulative since Open.
type Stats struct {
	// MemHits and DiskHits are Gets served from the LRU layer and from disk.
	MemHits, DiskHits uint64
	// Misses are Gets that found no (valid) entry.
	Misses uint64
	// Puts counts successful writes.
	Puts uint64
	// CorruptEntries counts on-disk entries rejected by the container check
	// (bad magic, bad checksum, truncation); each also counts as a miss.
	CorruptEntries uint64
	// Evictions counts entries dropped from the LRU layer to respect its
	// bounds.
	Evictions uint64
	// BytesWritten and BytesRead are cumulative payload bytes persisted to
	// and loaded from the disk layer (memory-only stores never move them);
	// together with Puts/DiskHits they give the corpus's on-disk traffic.
	BytesWritten uint64
	BytesRead    uint64
	// MemEntries and MemBytes are the LRU layer's current occupancy.
	MemEntries int
	MemBytes   int64
}

// Hits returns the total number of Gets served from any layer.
func (s Stats) Hits() uint64 { return s.MemHits + s.DiskHits }

type memEntry struct {
	key     Key
	payload []byte
}

// Store is a content-addressed blob store.  It is safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu       sync.Mutex
	entries  map[Key]*list.Element // of *memEntry
	lru      *list.List            // front = most recently used
	memBytes int64
	stats    Stats
	shards   map[string]bool // shard subdirectories known to exist
}

// Open returns a store rooted at dir, creating the directory if needed.
// An empty dir means memory-only (nothing is persisted).
func Open(dir string, opts Options) (*Store, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	return &Store{
		dir:     dir,
		opts:    opts,
		entries: make(map[Key]*list.Element),
		lru:     list.New(),
		shards:  make(map[string]bool),
	}, nil
}

// Dir returns the store's on-disk root ("" for memory-only stores).
func (s *Store) Dir() string { return s.dir }

// EntryPath returns the on-disk location an entry for key lives at ("" for
// memory-only stores).  Entries shard into 256 subdirectories by the first
// key byte, so a corpus of millions of per-seed records never piles every
// file into one directory.
func (s *Store) EntryPath(key Key) string {
	if s.dir == "" {
		return ""
	}
	hex := key.String()
	return filepath.Join(s.dir, hex[:2], hex[2:]+".bin")
}

// shardDir ensures the shard subdirectory for key exists, creating it on
// first use and caching the result so steady-state Puts skip the syscall.
func (s *Store) shardDir(key Key) (string, error) {
	dir := filepath.Dir(s.EntryPath(key))
	s.mu.Lock()
	known := s.shards[dir]
	s.mu.Unlock()
	if known {
		return dir, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	s.mu.Lock()
	s.shards[dir] = true
	s.mu.Unlock()
	return dir, nil
}

// Get returns the payload stored under key, if a valid entry exists.  The
// returned slice is shared with the cache and must not be modified.  A
// corrupt or truncated on-disk entry is counted and treated as a miss.
func (s *Store) Get(key Key) ([]byte, bool) {
	return s.get(key, true)
}

// Probe is Get for opportunistic re-checks (the scheduler's post-claim
// probes): hits count normally, but a miss — corrupt or plain — is not added
// to the miss counters, so one logical request never inflates them twice.
func (s *Store) Probe(key Key) ([]byte, bool) {
	return s.get(key, false)
}

func (s *Store) get(key Key, countMiss bool) ([]byte, bool) {
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		s.lru.MoveToFront(el)
		s.stats.MemHits++
		payload := el.Value.(*memEntry).payload
		s.mu.Unlock()
		return payload, true
	}
	s.mu.Unlock()

	if s.dir == "" {
		s.miss(false, countMiss)
		return nil, false
	}
	scratch := scratchPool.Get().(*[]byte)
	data, err := readFileOwned(s.EntryPath(key), scratch)
	scratchPool.Put(scratch)
	if err != nil {
		s.miss(false, countMiss)
		return nil, false
	}
	if err := Check(data); err != nil {
		s.miss(true, countMiss)
		return nil, false
	}

	s.mu.Lock()
	s.stats.DiskHits++
	s.stats.BytesRead += uint64(len(data))
	s.admit(key, data)
	s.mu.Unlock()
	return data, true
}

func (s *Store) miss(corrupt, count bool) {
	s.mu.Lock()
	if count {
		s.stats.Misses++
		if corrupt {
			s.stats.CorruptEntries++
		}
	}
	s.mu.Unlock()
}

// Put stores the payload under key.  The on-disk write goes through a
// temporary file and an atomic rename, so a concurrent Get sees either the
// previous complete entry or the new complete entry, never a torn one.  The
// store keeps its own reference to payload; callers must not modify it after
// Put returns.
func (s *Store) Put(key Key, payload []byte) error {
	if s.dir != "" {
		dir, err := s.shardDir(key)
		if err != nil {
			return fmt.Errorf("store: put %s: %w", key, err)
		}
		tmp, err := os.CreateTemp(dir, "put-*.tmp")
		if err != nil {
			return fmt.Errorf("store: put %s: %w", key, err)
		}
		_, werr := tmp.Write(payload)
		cerr := tmp.Close()
		if werr == nil {
			werr = cerr
		}
		if werr == nil {
			werr = os.Rename(tmp.Name(), s.EntryPath(key))
		}
		if werr != nil {
			os.Remove(tmp.Name())
			return fmt.Errorf("store: put %s: %w", key, werr)
		}
	}

	s.mu.Lock()
	s.stats.Puts++
	if s.dir != "" {
		s.stats.BytesWritten += uint64(len(payload))
	}
	s.admit(key, payload)
	s.mu.Unlock()
	return nil
}

// GetMulti returns the payloads stored under a batch of keys, index-aligned
// with keys (nil where no valid entry exists).  The memory layer is scanned
// under one lock acquisition; only the leftover keys touch the disk.  Like
// Get, corrupt or truncated on-disk entries count as misses, and the returned
// slices are shared with the cache and must not be modified.
func (s *Store) GetMulti(keys []Key) [][]byte {
	payloads := make([][]byte, len(keys))

	s.mu.Lock()
	for i, key := range keys {
		if el, ok := s.entries[key]; ok {
			s.lru.MoveToFront(el)
			s.stats.MemHits++
			payloads[i] = el.Value.(*memEntry).payload
		} else if s.dir == "" {
			s.stats.Misses++
		}
	}
	s.mu.Unlock()
	if s.dir == "" {
		return payloads
	}

	var rest []int
	for i := range keys {
		if payloads[i] == nil {
			rest = append(rest, i)
		}
	}
	var misses, corrupt atomic.Uint64
	readOne := func(i int, scratch *[]byte) {
		data, err := readFileOwned(s.EntryPath(keys[i]), scratch)
		if err != nil {
			misses.Add(1)
			return
		}
		if err := Check(data); err != nil {
			misses.Add(1)
			corrupt.Add(1)
			return
		}
		payloads[i] = data
	}

	// The leftover keys are independent files; read them with a few workers
	// so a large partial-hit batch overlaps its syscalls, each worker staging
	// through its own pooled scratch slab.  Small remainders stay on the
	// calling goroutine.
	if workers := min(len(rest)/8, diskReadWorkers()); workers > 1 {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				scratch := scratchPool.Get().(*[]byte)
				for {
					j := int(next.Add(1)) - 1
					if j >= len(rest) {
						break
					}
					readOne(rest[j], scratch)
				}
				scratchPool.Put(scratch)
			}()
		}
		wg.Wait()
	} else {
		scratch := scratchPool.Get().(*[]byte)
		for _, i := range rest {
			readOne(i, scratch)
		}
		scratchPool.Put(scratch)
	}

	s.mu.Lock()
	s.stats.Misses += misses.Load()
	s.stats.CorruptEntries += corrupt.Load()
	// Admission stays in key order regardless of read completion order, so
	// the LRU layer's state after a batch is deterministic.
	for _, i := range rest {
		if payloads[i] != nil {
			s.stats.DiskHits++
			s.stats.BytesRead += uint64(len(payloads[i]))
			s.admit(keys[i], payloads[i])
		}
	}
	s.mu.Unlock()
	return payloads
}

// diskReadWorkers bounds GetMulti's read concurrency: enough to overlap
// syscall latency without turning a batch read into a thundering herd.
func diskReadWorkers() int {
	return min(8, runtime.GOMAXPROCS(0))
}

// scratchPool holds the reusable read slabs disk loads stage through; one
// slab per concurrent reader, grown once to the corpus's entry high-water
// mark instead of a fresh zeroed buffer per file.
var scratchPool = sync.Pool{New: func() any { return new([]byte) }}

// readFileOwned reads a whole file by staging it through the caller's pooled
// scratch slab and returns an exactly-sized owned copy.  Unlike os.ReadFile
// it issues no stat syscall, and the owned copy is made with append — which
// does not zero the bytes it is about to overwrite — so steady-state reads
// cost one read syscall pass and one memmove.
func readFileOwned(path string, scratch *[]byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	buf := *scratch
	total := 0
	for {
		if total == len(buf) {
			grown := make([]byte, max(128<<10, 2*len(buf)))
			copy(grown, buf[:total])
			buf = grown
		}
		n, rerr := f.Read(buf[total:])
		total += n
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			*scratch = buf
			f.Close()
			return nil, rerr
		}
	}
	*scratch = buf
	f.Close()
	return append([]byte{}, buf[:total]...), nil
}

// PutMulti stores a batch of payloads, index-aligned with keys, each through
// the same atomic temp-file-and-rename dance as Put.  A failed entry does not
// stop the batch — a partially persisted corpus beats an empty one — so it
// returns the number of entries that failed and the first such error.
func (s *Store) PutMulti(keys []Key, payloads [][]byte) (failed int, first error) {
	if len(keys) != len(payloads) {
		return len(keys), fmt.Errorf("store: put multi: %d keys for %d payloads", len(keys), len(payloads))
	}
	for i, key := range keys {
		if err := s.Put(key, payloads[i]); err != nil {
			failed++
			if first == nil {
				first = err
			}
		}
	}
	return failed, first
}

// admit inserts or refreshes a memory-layer entry and evicts down to the
// configured bounds.  Callers hold s.mu.
func (s *Store) admit(key Key, payload []byte) {
	maxEntries := s.opts.maxMemEntries()
	if maxEntries < 0 {
		return
	}
	if el, ok := s.entries[key]; ok {
		ent := el.Value.(*memEntry)
		s.memBytes += int64(len(payload)) - int64(len(ent.payload))
		ent.payload = payload
		s.lru.MoveToFront(el)
	} else {
		s.entries[key] = s.lru.PushFront(&memEntry{key: key, payload: payload})
		s.memBytes += int64(len(payload))
	}
	maxBytes := s.opts.maxMemBytes()
	for s.lru.Len() > maxEntries || (s.memBytes > maxBytes && s.lru.Len() > 1) {
		el := s.lru.Back()
		ent := el.Value.(*memEntry)
		s.lru.Remove(el)
		delete(s.entries, ent.key)
		s.memBytes -= int64(len(ent.payload))
		s.stats.Evictions++
	}
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.MemEntries = s.lru.Len()
	st.MemBytes = s.memBytes
	return st
}
