package store

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/model"
)

// TestScanShards checks the corpus census against what was written: it is
// counted from the index, so a store reopened on the log — its index rebuilt
// by Open's scan, foreign files beside the log ignored — reports the same.
func TestScanShards(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}

	run := model.NewRun(2)
	var keys []Key
	var want int64
	for i := 0; i < 8; i++ {
		key := KeySpec{Kind: "scan-test", Name: "entry", SeedBase: int64(i)}.Key()
		keys = append(keys, key)
		payload := EncodeSeedRecord(&SeedRecord{Seed: int64(i), Run: run})
		want += int64(len(payload))
		if err := st.Put(key, payload); err != nil {
			t.Fatal(err)
		}
	}
	// An overwritten record counts once, at its last payload's size.
	sweepKey := KeySpec{Kind: "scan-test", Name: "sweep"}.Key()
	if err := st.Put(sweepKey, EncodeSweepRecord(&SweepRecord{Scenario: "first, and longer"})); err != nil {
		t.Fatal(err)
	}
	sweepPayload := EncodeSweepRecord(&SweepRecord{Scenario: "s"})
	want += int64(len(sweepPayload))
	if err := st.Put(sweepKey, sweepPayload); err != nil {
		t.Fatal(err)
	}
	keys = append(keys, sweepKey)
	// Files beside the log — foreign, or named like an old per-record
	// entry — are not part of the corpus.
	for _, name := range []string{"README.txt", keys[0].String() + ".bin"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("not a container"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	reopened, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}

	res := st.ScanShards(true)
	if again := reopened.ScanShards(true); !reflect.DeepEqual(again, res) {
		t.Fatalf("reopened census %+v differs from the live one %+v", again, res)
	}
	if res.Entries != len(keys) {
		t.Fatalf("scan counted %d entries, want %d", res.Entries, len(keys))
	}
	if res.Bytes != want {
		t.Fatalf("scan counted %d bytes, want %d", res.Bytes, want)
	}
	if res.Kinds["seed"] != len(keys)-1 || res.Kinds["sweep"] != 1 {
		t.Fatalf("kind census = %v, want %d seed + 1 sweep", res.Kinds, len(keys)-1)
	}

	// Shard attribution: every entry's shard must appear, in name order.
	byName := make(map[string]ShardInfo)
	for i, sh := range res.Shards {
		byName[sh.Shard] = sh
		if i > 0 && res.Shards[i-1].Shard >= sh.Shard {
			t.Fatalf("shards out of order: %+v", res.Shards)
		}
	}
	for _, key := range keys {
		shard := key.String()[:2]
		if byName[shard].Entries == 0 {
			t.Fatalf("shard %s missing from the scan (%+v)", shard, res.Shards)
		}
	}

	// A record that is not a store container is an "unknown" kind.
	if err := st.Put(KeySpec{Kind: "scan-test", Name: "foreign"}.Key(), []byte("not a container")); err != nil {
		t.Fatal(err)
	}
	if res := st.ScanShards(true); res.Kinds["unknown"] != 1 || res.Entries != len(keys)+1 {
		t.Fatalf("census with a foreign record = %+v", res)
	}

	// Kind classification off: same totals, no census.
	plain := reopened.ScanShards(false)
	if plain.Kinds != nil || plain.Entries != res.Entries {
		t.Fatalf("kind-less scan = %+v, want same totals and nil census", plain)
	}

	// Memory-only stores have nothing on disk to scan.
	mem, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res := mem.ScanShards(true); res.Entries != 0 {
		t.Fatalf("memory-only scan = %+v; want empty", res)
	}
}
