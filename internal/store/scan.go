package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// ShardInfo is one shard's occupancy.  A shard is the set of keys sharing a
// first byte — the fleet ring's unit of placement, a property of the key.
type ShardInfo struct {
	// Shard is the first key byte as two hex digits ("00".."ff").
	Shard string `json:"shard"`
	// Entries and Bytes are the shard's live record count and summed
	// payload size.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// ScanResult is a point-in-time census of the persistent corpus.
type ScanResult struct {
	// Shards lists the non-empty shards, sorted by name.
	Shards []ShardInfo `json:"shards"`
	// Entries and Bytes are the corpus totals.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Kinds counts entries by container kind name ("outcome", "seed",
	// "sweep", ...); nil when the census was asked to skip kind
	// classification.  Records that do not start as a store container count
	// under "unknown".
	Kinds map[string]int `json:"kinds,omitempty"`
}

// ScanShards reports the persistent corpus's occupancy — per-shard and total
// live records and payload bytes and, with kinds, a census by container kind —
// from the in-memory index, without touching the disk.  A memory-only store
// returns an empty result.
func (s *Store) ScanShards(kinds bool) ScanResult {
	var res ScanResult
	if s.log == nil {
		return res
	}
	if kinds {
		res.Kinds = make(map[string]int)
	}
	var shards [256]ShardInfo
	s.mu.Lock()
	for key, l := range s.index {
		shards[key[0]].Entries++
		shards[key[0]].Bytes += int64(l.n)
		if kinds {
			res.Kinds[KindName(l.kind)]++
		}
	}
	s.mu.Unlock()
	for i, sh := range shards {
		if sh.Entries == 0 {
			continue
		}
		sh.Shard = fmt.Sprintf("%02x", i)
		res.Shards = append(res.Shards, sh)
		res.Entries += sh.Entries
		res.Bytes += sh.Bytes
	}
	return res
}

// scanLog indexes a log in one sequential read.  It returns the index, the
// end of the last whole frame and the file's size; end < size means a torn
// or damaged tail follows.  Only a frame's header is checked here — its
// payload is checked by every read — so a damaged payload costs that record
// alone, while a damaged header ends the scan: past it, no frame boundary can
// be trusted.
func scanLog(log *os.File) (index map[Key]loc, end, size int64, err error) {
	info, err := log.Stat()
	if err != nil {
		return nil, 0, 0, err
	}
	size = info.Size()
	r := bufio.NewReaderSize(io.NewSectionReader(log, 0, size), int(min(size, 1<<20)))
	index = make(map[Key]loc)
	var header [FrameHeaderSize]byte
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return index, end, size, nil
			}
			return nil, 0, 0, err
		}
		n := binary.LittleEndian.Uint32(header[:4])
		body, sum := header[:FrameHeaderSize-4], header[FrameHeaderSize-4:]
		if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(sum) || end+FrameHeaderSize+int64(n) > size {
			return index, end, size, nil
		}
		head, err := r.Peek(min(int(n), len(magic)+1))
		l := loc{off: end + FrameHeaderSize, n: n, kind: kindByte(head)}
		if err == nil {
			_, err = r.Discard(int(n))
		}
		if err != nil {
			return nil, 0, 0, err
		}
		index[Key(header[4:FrameHeaderSize-4])] = l
		end = l.off + int64(n)
	}
}

// kindByte returns the container kind byte a payload starts with, or 0 (an
// "unknown" kind) when it does not start as a store container.
func kindByte(payload []byte) byte {
	if len(payload) <= len(magic) || [4]byte(payload[:4]) != magic {
		return 0
	}
	return payload[4]
}
