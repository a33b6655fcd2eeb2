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
// PutMulti batch is one write, a batched read one pread per contiguous run of
// frames; overwrites are last-wins.  A torn tail is cut off on Open, and
// every read is checksummed, so corruption is counted and treated as a miss
// rather than served.
package store

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
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

// logName is the log file inside a store directory.  Anything else there —
// the shard directories of the one-file-per-record layout included — is
// ignored: the corpus is a cache of deterministic results.
const logName = "corpus.log"

// FrameHeaderSize is the length of a log frame's header: the payload length
// (u32, little-endian), the 32-byte key, and a CRC-32C over both.
const FrameHeaderSize = 4 + 32 + 4

// maxKeptBuf bounds the append buffer a store keeps between PutMulti calls,
// and a read scratch readBufs keeps, so one outsized batch does not pin its
// buffer for the store's lifetime.
const maxKeptBuf = 1 << 20

// readBufs holds the scratch a batch's runs of several log frames land in
// before their valid payloads are copied out.
var readBufs = sync.Pool{New: func() any { return new([]byte) }}

// loc is an indexed record: where its payload lies in the log (off 0 for the
// entries of a memory-only store, which have no log location), the container
// kind byte it starts with (the corpus census reads it from here), and its
// memory-layer slot in Store.slab (0 when it has none).
type loc struct {
	off  int64
	n    uint32
	mem  int32
	kind byte
}

// memEntry is one memory-layer slot: a node of the LRU list, which links
// slots by their indices in Store.slab.  slab[0] is the list's head, so
// slab[0].next is the most recently used slot and slab[0].prev the least;
// a free slot's next chains the free list.
type memEntry struct {
	key        Key
	payload    []byte
	prev, next int32
}

// Store is a content-addressed blob store.  It is safe for concurrent use.
type Store struct {
	dir  string
	opts Options
	log  *os.File // opened for append; nil for memory-only stores

	wmu sync.Mutex // serialises appends; taken before mu
	buf []byte     // the append buffer, reused under wmu

	mu       sync.Mutex
	index    map[Key]loc // every live record, in the log or the memory layer
	slab     []memEntry  // the memory layer; grows with its occupancy
	free     int32       // head of the free slots' list, 0 if none
	memLen   int
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
	s := &Store{dir: dir, opts: opts, index: make(map[Key]loc), slab: make([]memEntry, 1)}
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
	return l.off, int(l.n), ok && l.off != 0
}

// Get returns the payload stored under key, if a valid entry exists.  The
// returned slice is shared with the cache and must not be modified.  A
// corrupt on-disk entry is counted and treated as a miss.
func (s *Store) Get(key Key) ([]byte, bool) { return s.get(key, true) }

// Probe is Get for opportunistic re-checks (the scheduler's post-claim
// probes): hits count normally, but a miss — corrupt or plain — is not added
// to the miss counters, so one logical request never inflates them twice.
func (s *Store) Probe(key Key) ([]byte, bool) { return s.get(key, false) }

func (s *Store) get(key Key, countMiss bool) ([]byte, bool) {
	var payload [1][]byte
	s.getMulti([]Key{key}, payload[:], countMiss)
	return payload[0], payload[0] != nil
}

// Put stores the payload under key: PutMulti of one record.
func (s *Store) Put(key Key, payload []byte) error {
	_, err := s.PutMulti([]Key{key}, [][]byte{payload})
	return err
}

// GetMulti returns the payloads stored under a batch of keys, index-aligned
// with keys (nil where no valid entry exists).  The memory layer and the
// index are consulted under one lock acquisition; only the leftover keys
// touch the log, in offset order, one pread per run of adjacent frames.  Each
// payload is checked on its own, so a corrupt one is a counted miss and its
// neighbours are still served.  The valid payloads read in runs of several
// frames share one slab per call, so a payload the memory layer keeps can
// keep its batch's slab alive.
// The returned slices are shared with the cache and must not be modified.
func (s *Store) GetMulti(keys []Key) [][]byte {
	payloads := make([][]byte, len(keys))
	s.getMulti(keys, payloads, true)
	return payloads
}

// pending is a key left for the log: its slot in the batch, its index entry
// when it was looked up, whether its frame is read in a run of several
// (through the shared scratch), and whether its payload failed the check.
type pending struct {
	l       loc
	i       int32
	shared  bool
	corrupt bool
}

// getMulti fills payloads, index-aligned with keys: memory hits under the
// lock, then the log reads outside it, then their accounting and admission
// under it again.  countMiss is false for Probe.
func (s *Store) getMulti(keys []Key, payloads [][]byte, countMiss bool) {
	rest := s.lookup(keys, payloads, countMiss)
	if len(rest) == 0 {
		return
	}
	s.read(rest, payloads)
	s.settle(keys, rest, payloads, countMiss)
}

// lookup serves keys from the memory layer and returns the indexed rest, in
// key order.
func (s *Store) lookup(keys []Key, payloads [][]byte, countMiss bool) []pending {
	var rest []pending
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, key := range keys {
		l, ok := s.index[key]
		switch {
		case l.mem != 0:
			s.unlink(l.mem)
			s.pushFront(l.mem)
			s.stats.MemHits++
			payloads[i] = s.slab[l.mem].payload
		case ok:
			if rest == nil {
				rest = make([]pending, 0, len(keys)-i)
			}
			rest = append(rest, pending{l: l, i: int32(i)})
		case countMiss:
			s.stats.Misses++
		}
	}
	return rest
}

// read loads rest's payloads from the log into payloads.  It sorts rest by
// offset and reads each run of exactly adjacent frames with one ReadAt.  A
// run of one frame (asked for once or more) is read straight into a slice of
// its own.  Runs of several frames are read into one scratch, headers and
// all, and their valid payloads copied into one exact-size slab; a failed
// read of such a run falls back to one read per frame.
func (s *Store) read(rest []pending, payloads [][]byte) {
	slices.SortFunc(rest, func(a, b pending) int { return cmp.Compare(a.l.off, b.l.off) })
	need := 0
	for j, k := 0, 0; j < len(rest); j = k {
		k = runEnd(rest, j)
		if first, last := rest[j].l, rest[k-1].l; first.off != last.off {
			need += int(last.off + int64(last.n) - first.off)
			for m := j; m < k; m++ {
				rest[m].shared = true
			}
		}
	}
	bufp := readBufs.Get().(*[]byte)
	if cap(*bufp) < need {
		*bufp = make([]byte, need)
	}
	buf, valid := (*bufp)[:need], 0
	for j, k := 0, 0; j < len(rest); j = k {
		k = runEnd(rest, j)
		first, last := rest[j].l, rest[k-1].l
		var run []byte
		if n := last.off + int64(last.n) - first.off; rest[j].shared {
			run, buf = buf[:n], buf[n:]
		} else {
			run = make([]byte, n)
		}
		_, err := s.log.ReadAt(run, first.off)
		for m := j; m < k; m++ {
			p := &rest[m]
			from, to := p.l.off-first.off, p.l.off-first.off+int64(p.l.n)
			frame, ferr := run[from:to:to], err
			if err != nil && p.shared {
				_, ferr = s.log.ReadAt(frame, p.l.off)
			}
			if ferr == nil {
				p.corrupt = Check(frame) != nil
				if !p.corrupt {
					payloads[p.i] = frame
					if p.shared {
						valid += len(frame)
					}
				}
			}
		}
	}
	slab := make([]byte, 0, valid)
	for _, p := range rest {
		if data := payloads[p.i]; p.shared && data != nil {
			slab = append(slab, data...)
			payloads[p.i] = slab[len(slab)-len(data) : len(slab) : len(slab)]
		}
	}
	if cap(*bufp) <= maxKeptBuf {
		readBufs.Put(bufp)
	}
}

// runEnd returns the end of the run of exactly adjacent frames that starts at
// rest[j]; a key asked for twice is one frame, read once.
func runEnd(rest []pending, j int) int {
	k := j + 1
	for ; k < len(rest); k++ {
		prev, next := rest[k-1].l, rest[k].l
		if next.off != prev.off && next.off != prev.off+int64(prev.n)+FrameHeaderSize {
			break
		}
	}
	return k
}

// settle counts rest's log reads and admits the payloads read, in key order
// so the memory layer's state after a batch is deterministic.  A payload is
// admitted only while its key's index entry still points at the frame it was
// read from: a PutMulti that overwrote the key meanwhile has admitted the
// newer payload, which must stay the one served.
func (s *Store) settle(keys []Key, rest []pending, payloads [][]byte, countMiss bool) {
	slices.SortFunc(rest, func(a, b pending) int { return cmp.Compare(a.i, b.i) })
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range rest {
		data := payloads[p.i]
		if data == nil {
			if countMiss {
				s.stats.Misses++
				if p.corrupt {
					s.stats.CorruptEntries++
				}
			}
			continue
		}
		s.stats.DiskHits++
		s.stats.BytesRead += uint64(len(data))
		if l := s.index[keys[p.i]]; l.off == p.l.off {
			s.admit(keys[p.i], l, data)
		}
	}
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
			s.admit(key, loc{mem: s.index[key].mem}, payloads[i])
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
		n := uint32(len(payloads[i]))
		s.admit(key, loc{off: off, n: n, mem: s.index[key].mem, kind: kindByte(payloads[i])}, payloads[i])
		off += int64(n)
		s.stats.BytesWritten += uint64(n)
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

// admit indexes key at l and makes payload its memory-layer entry, the most
// recently used, then evicts down to the configured bounds; l.mem is key's
// current slot, if any.  With the memory layer off, only a record in the log
// is indexed.  Callers hold s.mu.
func (s *Store) admit(key Key, l loc, payload []byte) {
	maxEntries := s.opts.maxMemEntries()
	if maxEntries < 0 {
		if l.off != 0 {
			s.index[key] = l
		}
		return
	}
	if l.mem == 0 {
		l.mem = s.alloc(key)
		s.memLen++
	} else {
		s.unlink(l.mem)
	}
	e := &s.slab[l.mem]
	s.memBytes += int64(len(payload)) - int64(len(e.payload))
	e.payload = payload
	s.pushFront(l.mem)
	s.index[key] = l
	maxBytes := s.opts.maxMemBytes()
	for s.memLen > maxEntries || (s.memBytes > maxBytes && s.memLen > 1) {
		s.evict(s.slab[0].prev)
	}
}

// alloc takes a slot for key from the free list, or grows the slab.
func (s *Store) alloc(key Key) int32 {
	i := s.free
	if i == 0 {
		i = int32(len(s.slab))
		s.slab = append(s.slab, memEntry{})
	} else {
		s.free = s.slab[i].next
	}
	s.slab[i] = memEntry{key: key}
	return i
}

// evict drops slot i from the memory layer.  A memory-only store's entry has
// nowhere else to live, so it leaves the index too.
func (s *Store) evict(i int32) {
	e := &s.slab[i]
	s.unlink(i)
	if l := s.index[e.key]; l.off == 0 {
		delete(s.index, e.key)
	} else {
		l.mem = 0
		s.index[e.key] = l
	}
	s.memLen--
	s.memBytes -= int64(len(e.payload))
	s.stats.Evictions++
	*e = memEntry{next: s.free}
	s.free = i
}

func (s *Store) unlink(i int32) {
	e := &s.slab[i]
	s.slab[e.prev].next, s.slab[e.next].prev = e.next, e.prev
}

func (s *Store) pushFront(i int32) {
	head := s.slab[0].next
	s.slab[i].prev, s.slab[i].next = 0, head
	s.slab[head].prev, s.slab[0].next = i, i
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.MemEntries = s.memLen
	st.MemBytes = s.memBytes
	return st
}
