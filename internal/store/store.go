// Package store is the run-corpus layer: a compact deterministic binary codec
// for recorded runs, per-seed records and sweep/extraction results, plus a
// content-addressed on-disk store with an in-memory LRU front.  Entries are
// keyed by a digest of their identity — per-seed records (a sweep's scored
// outcome) by (source name, adversary, concrete seed value), request records
// by the full request window — plus the engine and codec versions.  On disk,
// a store directory holds one append-only log of frames (a header of length,
// key and a CRC-32C over both, then the sealed payload) and the store keeps
// an in-memory index from key to the payload's place in it, rebuilt by one
// sequential scan on Open, as in Bitcask (Sheehy & Smith, Basho 2010).  A
// PutMulti batch is one write, a disk read one pread; overwrites are
// last-wins.  A torn tail is cut off on Open, and every read is checksummed,
// so corruption is counted and treated as a miss rather than served.
package store

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
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
	// (bad magic, bad checksum, truncation), each also counted as a miss,
	// plus one for a torn log tail that Open cut off.
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

// logName is the log file inside a store directory.  Anything else there —
// the shard directories of the one-file-per-record layout included — is
// ignored: the corpus is a cache of deterministic results.
const logName = "corpus.log"

// FrameHeaderSize is the length of a log frame's header: the payload length
// (u32, little-endian), the 32-byte key, and a CRC-32C over both.
const FrameHeaderSize = 4 + 32 + 4

// maxKeptBuf bounds the append buffer a store keeps between PutMulti calls,
// so one outsized batch does not pin its buffer for the store's lifetime.
const maxKeptBuf = 1 << 20

// loc is an indexed record: where its payload lies in the log and the
// container kind byte it starts with (the corpus census reads it from here).
type loc struct {
	off  int64
	n    uint32
	kind byte
}

// Store is a content-addressed blob store.  It is safe for concurrent use.
type Store struct {
	dir  string
	opts Options
	log  *os.File // opened for append; nil for memory-only stores

	wmu sync.Mutex // serialises appends; taken before mu
	buf []byte     // the append buffer, reused under wmu

	mu       sync.Mutex
	index    map[Key]loc           // every live record in the log
	entries  map[Key]*list.Element // of *memEntry
	lru      *list.List            // front = most recently used
	memBytes int64
	stats    Stats
}

// Open returns a store rooted at dir, creating the directory and its log if
// needed, and indexes the log in one sequential read.  An empty dir means
// memory-only (nothing is persisted).  A frame whose header fails its CRC or
// whose payload runs past the end of the file ends the scan: the log is cut
// back to the last whole frame and the dropped tail counts once in
// CorruptEntries.  Another Store of this process may hold the same directory
// open as long as it is idle.
func Open(dir string, opts Options) (*Store, error) {
	s := &Store{dir: dir, opts: opts, entries: make(map[Key]*list.Element), lru: list.New()}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	log, err := os.OpenFile(filepath.Join(dir, logName), os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	index, end, size, err := scanLog(log)
	if err == nil && end < size {
		err = log.Truncate(end)
		s.stats.CorruptEntries = 1
	}
	if err != nil {
		log.Close()
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s.log, s.index = log, index
	return s, nil
}

// Dir returns the store's on-disk root ("" for memory-only stores).
func (s *Store) Dir() string { return s.dir }

// LogPath returns the store's log file ("" for memory-only stores).
func (s *Store) LogPath() string {
	if s.dir == "" {
		return ""
	}
	return filepath.Join(s.dir, logName)
}

// Locate reports where key's live record lies in the log at LogPath: its
// payload's offset and length (the frame header precedes it by
// FrameHeaderSize bytes).  It is for tests and tools that inspect or damage
// records in place.
func (s *Store) Locate(key Key) (off int64, n int, ok bool) {
	s.mu.Lock()
	l, ok := s.index[key]
	s.mu.Unlock()
	return l.off, int(l.n), ok
}

// Get returns the payload stored under key, if a valid entry exists.  The
// returned slice is shared with the cache and must not be modified.  A
// corrupt on-disk entry is counted and treated as a miss.
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
	l, indexed := s.index[key]
	if !indexed {
		if countMiss {
			s.stats.Misses++
		}
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Unlock()

	data, corrupt := s.read(l)
	s.mu.Lock()
	defer s.mu.Unlock()
	if data == nil {
		if countMiss {
			s.stats.Misses++
			if corrupt {
				s.stats.CorruptEntries++
			}
		}
		return nil, false
	}
	s.stats.DiskHits++
	s.stats.BytesRead += uint64(len(data))
	s.admit(key, data)
	return data, true
}

// read loads one indexed payload into an owned slice and checks its
// container.  It returns nil on failure, with corrupt set when the bytes were
// read but failed the check.
func (s *Store) read(l loc) (data []byte, corrupt bool) {
	data = make([]byte, l.n)
	if _, err := s.log.ReadAt(data, l.off); err != nil {
		return nil, false
	}
	if Check(data) != nil {
		return nil, true
	}
	return data, false
}

// Put stores the payload under key: PutMulti of one record.
func (s *Store) Put(key Key, payload []byte) error {
	_, err := s.PutMulti([]Key{key}, [][]byte{payload})
	return err
}

// GetMulti returns the payloads stored under a batch of keys, index-aligned
// with keys (nil where no valid entry exists).  The memory layer and the
// index are consulted under one lock acquisition; only the leftover keys
// touch the log, one pread each.  Like Get, corrupt on-disk entries count as
// misses, and the returned slices are shared with the cache and must not be
// modified.
func (s *Store) GetMulti(keys []Key) [][]byte {
	payloads := make([][]byte, len(keys))
	type pending struct {
		i int
		l loc
	}
	var rest []pending

	s.mu.Lock()
	for i, key := range keys {
		if el, ok := s.entries[key]; ok {
			s.lru.MoveToFront(el)
			s.stats.MemHits++
			payloads[i] = el.Value.(*memEntry).payload
		} else if l, ok := s.index[key]; ok {
			rest = append(rest, pending{i, l})
		} else {
			s.stats.Misses++
		}
	}
	s.mu.Unlock()
	if len(rest) == 0 {
		return payloads
	}

	var misses, corrupt uint64
	for _, p := range rest {
		data, bad := s.read(p.l)
		if data == nil {
			misses++
			if bad {
				corrupt++
			}
		}
		payloads[p.i] = data
	}

	s.mu.Lock()
	s.stats.Misses += misses
	s.stats.CorruptEntries += corrupt
	// Admission follows key order, so the LRU layer's state after a batch
	// is deterministic.
	for _, p := range rest {
		if data := payloads[p.i]; data != nil {
			s.stats.DiskHits++
			s.stats.BytesRead += uint64(len(data))
			s.admit(keys[p.i], data)
		}
	}
	s.mu.Unlock()
	return payloads
}

// PutMulti stores a batch of payloads, index-aligned with keys.  The batch's
// frames go to the log in one write; only once it has landed does the index
// point at them, so a concurrent Get sees the previous record or the new one,
// never a torn one.  A failed write fails the whole batch: it returns the
// number of entries that failed and the error.  The store keeps its own
// references to the payloads; callers must not modify them afterwards.
func (s *Store) PutMulti(keys []Key, payloads [][]byte) (failed int, first error) {
	if len(keys) != len(payloads) {
		return len(keys), fmt.Errorf("store: put multi: %d keys for %d payloads", len(keys), len(payloads))
	}
	if s.log == nil {
		s.mu.Lock()
		for i, key := range keys {
			s.admit(key, payloads[i])
		}
		s.stats.Puts += uint64(len(keys))
		s.mu.Unlock()
		return 0, nil
	}
	if err := s.append(keys, payloads); err != nil {
		return len(keys), fmt.Errorf("store: put %d records: %w", len(keys), err)
	}
	return 0, nil
}

// append writes one batch of frames to the log and indexes them.
func (s *Store) append(keys []Key, payloads [][]byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	buf := s.buf[:0]
	for i, key := range keys {
		buf = appendFrame(buf, key, payloads[i])
	}
	if cap(buf) <= maxKeptBuf {
		s.buf = buf
	}
	n, err := s.log.Write(buf)
	// The write landed at the end of the file, wherever another handle on
	// the same log had left it; the handle's own position says where.
	end, serr := s.log.Seek(0, io.SeekCurrent)
	if err != nil {
		if n > 0 && serr == nil {
			// Cut a partial batch off, or the next Open would stop at it
			// and drop every frame appended after it.  Best effort: the
			// write's error is the one to report.
			_ = s.log.Truncate(end - int64(n))
		}
		return err
	}
	if serr != nil {
		return serr
	}

	off := end - int64(len(buf))
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, key := range keys {
		off += FrameHeaderSize
		s.index[key] = loc{off: off, n: uint32(len(payloads[i])), kind: kindByte(payloads[i])}
		off += int64(len(payloads[i]))
		s.stats.BytesWritten += uint64(len(payloads[i]))
		s.admit(key, payloads[i])
	}
	s.stats.Puts += uint64(len(keys))
	return nil
}

// appendFrame appends one record's frame to buf.
func appendFrame(buf []byte, key Key, payload []byte) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, key[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:], crcTable))
	return append(buf, payload...)
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
