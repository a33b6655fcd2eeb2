package store

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/model"
)

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
	// Files in the root — foreign, or named like an entry — are not part of
	// the sharded layout: the scan must skip them.
	for _, name := range []string{"README.txt", keys[0].String() + ".bin"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("not a container"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sweepKey := KeySpec{Kind: "scan-test", Name: "sweep"}.Key()
	sweepPayload := EncodeSweepRecord(&SweepRecord{Scenario: "s"})
	want += int64(len(sweepPayload))
	if err := st.Put(sweepKey, sweepPayload); err != nil {
		t.Fatal(err)
	}
	keys = append(keys, sweepKey)

	res, err := st.ScanShards(true)
	if err != nil {
		t.Fatal(err)
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

	// Kind classification off: same totals, no census.
	plain, err := st.ScanShards(false)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Kinds != nil || plain.Entries != res.Entries {
		t.Fatalf("kind-less scan = %+v, want same totals and nil census", plain)
	}

	// Memory-only stores have nothing on disk to scan.
	mem, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := mem.ScanShards(true); err != nil || res.Entries != 0 {
		t.Fatalf("memory-only scan = %+v, %v; want empty", res, err)
	}
}
