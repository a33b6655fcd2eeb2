package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/workload"
)

// FuzzDecodeOutcome fuzzes the parser behind a sweep's per-seed corpus
// records — bytes read back from disk, which the daemon does not control.
// A mutated container almost never keeps a valid CRC, so every input is
// decoded twice: as it is (the framing checks) and sealed as the payload of a
// well-formed container (the field parser behind them).  Neither decode may
// panic or allocate beyond what reader.length allows, an accepted outcome
// must survive decode∘encode unchanged, and no single-bit flip of an accepted
// container may be accepted too.
func FuzzDecodeOutcome(f *testing.F) {
	for _, o := range []workload.RunOutcome{
		{},
		{Seed: 1, Stats: sim.Stats{Steps: 400, MessagesSent: 120, MessagesDelivered: 100, MessagesDropped: 20, DoEvents: 6, InitEvents: 6, LastEventTime: 399}},
		{Seed: -7919, Stats: sim.Stats{Steps: 10, CrashEvents: 2}, Violations: []model.Violation{{Rule: "R3", Detail: "p2 did a without init"}, {Rule: "udc"}}, LatencySum: 17, LatencyActions: 3},
	} {
		container := EncodeOutcome(o)
		f.Add(container)
		f.Add(container[5 : len(container)-4])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, container := range [][]byte{data, seal(KindOutcome, data)} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			o, err := DecodeOutcome(container)
			runtime.ReadMemStats(&after)
			// A violation count is bounded by the bytes that remain and a
			// Violation is two string headers, so the parser's own share is
			// under 33 bytes per input byte; the rest is slack for the error
			// value and whatever else the process allocates meanwhile.
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(container)+64<<10); got > limit {
				t.Fatalf("decoding %d bytes allocated %d, limit %d", len(container), got, limit)
			}
			if err != nil {
				continue
			}
			canonical := EncodeOutcome(o)
			again, err := DecodeOutcome(canonical)
			if err != nil || !reflect.DeepEqual(again, o) {
				t.Fatalf("decode∘encode is not the identity: %+v -> %+v (%v)", o, again, err)
			}
			// Quadratic in the container, so only at the size real records
			// have (a few dozen bytes, more with violations).
			flipped := append([]byte(nil), container...) // the engine owns data
			for bit := 0; len(flipped) <= 512 && bit < 8*len(flipped); bit++ {
				flipped[bit/8] ^= 1 << (bit % 8)
				if _, err := DecodeOutcome(flipped); err == nil {
					t.Fatalf("container accepted with bit %d flipped", bit)
				}
				flipped[bit/8] ^= 1 << (bit % 8)
			}
		}
	})
}

// FuzzDecodeSweepRecord fuzzes the parser behind every stored and served
// sweep window, which the daemon reads back from disk and clients read off
// the wire.  Its shape is FuzzDecodeOutcome's: every input is decoded as it is
// and sealed as a payload; neither decode may panic or allocate more than
// reader.length allows, an accepted record must survive decode∘encode
// unchanged, and no single-bit flip of an accepted container may be accepted
// too.  Every input is also decoded into one recycled record, which still
// holds the previous input's decode (whole, partial or failed): it must fail
// exactly when a fresh decode fails and otherwise equal it.  The seeds are
// two-seed sweeps of every catalogued scenario and hand-built records with an
// adversary and violations.
func FuzzDecodeSweepRecord(f *testing.F) {
	recs := []*SweepRecord{
		{Scenario: "empty", Check: "udc", SeedBase: 1},
		{Scenario: "adv", Check: "nudc", Adversary: "burst-loss", SeedBase: -5, Outcomes: []workload.RunOutcome{
			{Seed: -5, Stats: sim.Stats{Steps: 10, CrashEvents: 2}, Violations: []model.Violation{{Rule: "R3", Detail: "p2 did a without init"}, {Rule: "udc"}}, LatencySum: 17, LatencyActions: 3},
			{Seed: -4, Violations: []model.Violation{{Rule: "udc", Detail: "p1"}}},
			{Seed: -3, Stats: sim.Stats{Steps: 400, MessagesSent: 120}},
		}},
	}
	for _, sc := range registry.Scenarios() {
		res, err := workload.Sweep(sc.Spec, workload.Seeds(1, 2), sc.Eval)
		if err != nil {
			f.Fatal(err)
		}
		recs = append(recs, NewSweepRecord(sc.Name, sc.Check, "", 1, res))
	}
	for _, rec := range recs {
		container := EncodeSweepRecord(rec)
		f.Add(container)
		f.Add(container[5 : len(container)-4])
	}
	var recycled SweepRecord
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, container := range [][]byte{data, seal(KindSweep, data)} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rec, err := DecodeSweepRecord(container)
			runtime.ReadMemStats(&after)
			// An outcome count is bounded by the bytes that remain and a
			// RunOutcome is 136 bytes; each violation list is bounded the
			// same way at 32 bytes an entry, and the strings copy input
			// bytes: under 256 bytes per input byte, plus slack for the
			// error value and whatever else the process allocates meanwhile.
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(256*len(container)+64<<10); got > limit {
				t.Fatalf("decoding %d bytes allocated %d, limit %d", len(container), got, limit)
			}
			if rerr := DecodeSweepRecordInto(&recycled, container); (rerr == nil) != (err == nil) {
				t.Fatalf("recycled decode: %v, fresh decode: %v", rerr, err)
			}
			if err != nil {
				continue
			}
			if !reflect.DeepEqual(&recycled, rec) {
				t.Fatalf("recycled decode differs from a fresh one:\n%+v\n%+v", recycled, *rec)
			}
			canonical := EncodeSweepRecord(rec)
			again, err := DecodeSweepRecord(canonical)
			if err != nil || !reflect.DeepEqual(again, rec) {
				t.Fatalf("decode∘encode is not the identity: %+v -> %+v (%v)", rec, again, err)
			}
			flipped := append([]byte(nil), container...) // the engine owns data
			for bit := 0; len(flipped) <= 512 && bit < 8*len(flipped); bit++ {
				flipped[bit/8] ^= 1 << (bit % 8)
				if _, err := DecodeSweepRecord(flipped); err == nil {
					t.Fatalf("container accepted with bit %d flipped", bit)
				}
				flipped[bit/8] ^= 1 << (bit % 8)
			}
		}
	})
}

// FuzzDecodeRun fuzzes the run parser behind every run-carrying container —
// the seed records of extraction sources, and run files — which the daemon
// and udcsim read from disk.  Its shape is FuzzDecodeOutcome's: every input
// is decoded as it is and sealed as a payload; neither decode may panic or
// allocate more than the input's length allows, an accepted run must survive
// decode∘encode unchanged, and no single-bit flip of an accepted container
// may be accepted too.  The seeds are recorded runs of every catalogued
// scenario and the events TestDecodeRejectsImpossibleEvents rejects.  Input
// that invents message kinds fills the bounded intern table and then fails
// to decode; TestKindInterning pins that bound.
func FuzzDecodeRun(f *testing.F) {
	for _, run := range SampleRuns(f) {
		container := EncodeRun(run)
		f.Add(container)
		f.Add(container[5 : len(container)-4])
	}
	for _, c := range impossibleEvents {
		container := c.container()
		f.Add(container)
		f.Add(container[5 : len(container)-4])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, container := range [][]byte{data, seal(KindRun, data)} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run, err := DecodeRun(container)
			runtime.ReadMemStats(&after)
			// An event costs at least one byte of the count it is read
			// under and lands in an 80-byte slab that may have doubled, and
			// the returned run is one more slab: under 256 bytes per input
			// byte, plus slack for the error value and whatever else the
			// process allocates meanwhile.
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(256*len(container)+64<<10); got > limit {
				t.Fatalf("decoding %d bytes allocated %d, limit %d", len(container), got, limit)
			}
			if err != nil {
				continue
			}
			canonical := EncodeRun(run)
			again, err := DecodeRun(canonical)
			if err != nil || !reflect.DeepEqual(again, run) || !bytes.Equal(EncodeRun(again), canonical) {
				t.Fatalf("decode∘encode is not the identity (%v)", err)
			}
			flipped := append([]byte(nil), container...) // the engine owns data
			for bit := 0; len(flipped) <= 512 && bit < 8*len(flipped); bit++ {
				flipped[bit/8] ^= 1 << (bit % 8)
				if _, err := DecodeRun(flipped); err == nil {
					t.Fatalf("container accepted with bit %d flipped", bit)
				}
				flipped[bit/8] ^= 1 << (bit % 8)
			}
		}
	})
}

// FuzzOpenLog fuzzes Open's scan of the log, which reads bytes the daemon
// does not control, and the reads that follow it.  The input is the whole
// log file.  Open must neither panic nor fail (a bad tail is cut off, not
// refused), a hostile length field must not make Open, GetMulti or Get
// allocate beyond what the file's size allows, a batched read must serve and
// count exactly what single reads do, and every payload served must pass
// Check and sit in the input under a whole, CRC-clean header naming the
// requested key.  The seeds are logs written by PutMulti, torn inside their
// last frame and with single bits flipped in a frame's length, key and
// payload.
func FuzzOpenLog(f *testing.F) {
	s, err := Open(f.TempDir(), Options{})
	if err != nil {
		f.Fatal(err)
	}
	keys := []Key{KeySpec{Kind: "fuzz", Name: "a"}.Key(), KeySpec{Kind: "fuzz", Name: "b"}.Key(), KeySpec{Kind: "fuzz", Name: "c"}.Key()}
	payloads := [][]byte{
		EncodeOutcome(workload.RunOutcome{Seed: 1, Stats: sim.Stats{Steps: 400}}),
		EncodeSweepRecord(&SweepRecord{Scenario: "s", Check: "udc", SeedBase: 1}),
		[]byte("not a container"),
	}
	if failed, err := s.PutMulti(keys, payloads); failed != 0 {
		f.Fatal(err)
	}
	log, err := os.ReadFile(s.LogPath())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(log)
	f.Add([]byte{})
	middle, last := s.index[keys[1]], s.index[keys[2]]
	for _, cut := range []int64{last.off - FrameHeaderSize + 10, last.off + 4, int64(len(log)) - 1} {
		f.Add(log[:cut])
	}
	for _, pos := range []int64{middle.off - FrameHeaderSize, middle.off - FrameHeaderSize + 4, middle.off + 4} {
		flipped := append([]byte(nil), log...)
		flipped[pos] ^= 0x10
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Open(dir, Options{MaxMemEntries: -1})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		// The scan's buffer is at most the file, and each indexed frame —
		// at least FrameHeaderSize bytes of input — costs an index slot of
		// under 128 bytes counting the map's growth: under 4 bytes per
		// input byte, plus slack for the file handle and whatever else the
		// process allocates meanwhile.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(data)+64<<10); got > limit {
			t.Fatalf("opening a %d-byte log allocated %d, limit %d", len(data), got, limit)
		}
		// Every indexed key is read twice: all of them in one GetMulti here,
		// and each with its own Get on a second Open of the same bytes (the
		// first one cut any bad tail off).  Per slot the two must agree on
		// the payload, on hit or miss, and on whether the miss was corrupt.
		keys := make([]Key, 0, len(s.index))
		for key := range s.index {
			keys = append(keys, key)
		}
		opened := s.Stats().CorruptEntries
		runtime.ReadMemStats(&before)
		batch := s.GetMulti(keys)
		runtime.ReadMemStats(&after)
		// The result and the pending list cost under 64 bytes a key, and each
		// key stands for at least FrameHeaderSize bytes of input; the frames
		// read on their own and the read scratch are at most the file
		// together, and so is the slab.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(data)+16<<10); got > limit {
			t.Fatalf("batch-reading %d keys of a %d-byte log allocated %d, limit %d", len(keys), len(data), got, limit)
		}
		single, err := Open(dir, Options{MaxMemEntries: -1})
		if err != nil {
			t.Fatal(err)
		}
		var singleCorrupt uint64
		for j, key := range keys {
			was := single.Stats().CorruptEntries
			runtime.ReadMemStats(&before)
			payload, ok := single.Get(key)
			runtime.ReadMemStats(&after)
			if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(data)+16<<10); got > limit {
				t.Fatalf("reading a record of a %d-byte log allocated %d, limit %d", len(data), got, limit)
			}
			corrupt := single.Stats().CorruptEntries - was
			singleCorrupt += corrupt
			if ok != (batch[j] != nil) || !bytes.Equal(payload, batch[j]) || (corrupt != 0) == ok {
				t.Fatalf("key %d: Get = %d bytes (hit %v, corrupt %d), GetMulti = %d bytes", j, len(payload), ok, corrupt, len(batch[j]))
			}
			if !ok {
				continue
			}
			if err := Check(payload); err != nil {
				t.Fatalf("served a payload that fails Check: %v", err)
			}
			l := s.index[key]
			header := data[l.off-FrameHeaderSize : l.off]
			if Key(header[4:36]) != key || binary.LittleEndian.Uint32(header) != uint32(len(payload)) ||
				crc32.Checksum(header[:36], crcTable) != binary.LittleEndian.Uint32(header[36:]) ||
				!bytes.Equal(data[l.off:l.off+int64(len(payload))], payload) {
				t.Fatalf("payload at %d served under a key it was not framed under", l.off)
			}
		}
		if batchCorrupt := s.Stats().CorruptEntries - opened; batchCorrupt != singleCorrupt {
			t.Fatalf("GetMulti counted %d corrupt entries, single Gets %d", batchCorrupt, singleCorrupt)
		}
		kept, err := os.ReadFile(filepath.Join(dir, logName))
		if err != nil || !bytes.Equal(kept, data[:len(kept)]) {
			t.Fatalf("the log was rewritten, not cut back (%v)", err)
		}
	})
}
