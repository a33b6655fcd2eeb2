package store

import (
	"io"
	"os"
	"path/filepath"
	"strings"
)

// ScanShards walks the persistent corpus and reports its occupancy: per-shard
// entry and byte counts across the 256-way layout, totals, and (optionally) a
// census of entries by container kind.  The scan reads directory metadata
// only — plus, when kinds is requested, the first five bytes of each entry
// (magic + kind byte), never whole payloads — so it stays cheap enough for an
// introspection endpoint even on a large corpus.

// ShardInfo is one shard directory's occupancy.
type ShardInfo struct {
	// Shard is the two-hex-digit directory name ("00".."ff").
	Shard string `json:"shard"`
	// Entries and Bytes are the shard's entry count and summed file size.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// ScanResult is a point-in-time census of the persistent corpus.
type ScanResult struct {
	// Shards lists the non-empty shards, sorted by name (os.ReadDir's order).
	Shards []ShardInfo `json:"shards"`
	// Entries and Bytes are the corpus totals.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Kinds counts entries by container kind name ("outcome", "seed",
	// "sweep", ...);
	// nil when the scan was asked to skip kind classification.  Files whose
	// first bytes are not a store container count under "unknown".
	Kinds map[string]int `json:"kinds,omitempty"`
	// Unreadable counts entries whose metadata or header could not be read
	// (racing eviction, permissions); they are excluded from the totals.
	Unreadable int `json:"unreadable,omitempty"`
}

// ScanShards scans the store's persistent layout.  A memory-only store
// returns an empty result.  kinds selects the per-kind census (one small
// header read per entry).
func (s *Store) ScanShards(kinds bool) (ScanResult, error) {
	var res ScanResult
	if s.dir == "" {
		return res, nil
	}
	root, err := os.ReadDir(s.dir)
	if err != nil {
		return res, err
	}
	if kinds {
		res.Kinds = make(map[string]int)
	}
	for _, entry := range root {
		if !entry.IsDir() || !isShardName(entry.Name()) {
			continue
		}
		shard := ShardInfo{Shard: entry.Name()}
		files, err := os.ReadDir(filepath.Join(s.dir, entry.Name()))
		if err != nil {
			res.Unreadable++
			continue
		}
		for _, f := range files {
			if f.IsDir() || !strings.HasSuffix(f.Name(), ".bin") {
				continue
			}
			s.scanEntry(filepath.Join(s.dir, entry.Name(), f.Name()), f, &shard, &res)
		}
		if shard.Entries > 0 {
			res.Shards = append(res.Shards, shard)
		}
	}
	return res, nil
}

// scanEntry folds one entry file into its shard and the totals.
func (s *Store) scanEntry(path string, f os.DirEntry, shard *ShardInfo, res *ScanResult) {
	info, err := f.Info()
	if err != nil {
		res.Unreadable++
		return
	}
	shard.Entries++
	shard.Bytes += info.Size()
	res.Entries++
	res.Bytes += info.Size()
	if res.Kinds == nil {
		return
	}
	res.Kinds[entryKind(path)]++
}

// entryKind classifies one entry by its container header: the magic and the
// kind byte live in the first five bytes, so classification never reads a
// payload.
func entryKind(path string) string {
	file, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer file.Close()
	var header [5]byte
	if _, err := io.ReadFull(file, header[:]); err != nil {
		return "unknown"
	}
	if [4]byte(header[:4]) != magic {
		return "unknown"
	}
	return KindName(header[4])
}

// isShardName reports whether a directory name is a two-hex-digit shard.
func isShardName(name string) bool {
	if len(name) != 2 {
		return false
	}
	for i := 0; i < 2; i++ {
		c := name[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
