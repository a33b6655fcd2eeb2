package store_test

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"repro/internal/store"
)

// writeLog fills a fresh store in dir with n records, the last one appended
// on its own, and returns the store, keys, payloads and the log's bytes.
func writeLog(t *testing.T, dir string, n int) (*store.Store, []store.Key, [][]byte, []byte) {
	t.Helper()
	s, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]store.Key, n)
	payloads := make([][]byte, n)
	for i := range keys {
		keys[i] = keyOf(i)
		payloads[i] = payloadOf(fmt.Sprintf("record-%d", i))
	}
	if failed, err := s.PutMulti(keys[:n-1], payloads[:n-1]); failed != 0 || err != nil {
		t.Fatalf("PutMulti: failed=%d err=%v", failed, err)
	}
	if err := s.Put(keys[n-1], payloads[n-1]); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(s.LogPath())
	if err != nil {
		t.Fatal(err)
	}
	return s, keys, payloads, log
}

// TestLogTornTail is the crash test: the log cut at every byte inside its
// last frame, as a crash mid-append leaves it.  Every earlier record is
// served byte-equal, the torn one is a miss, Open cuts the file back to the
// last whole frame and counts the dropped tail once, and a following Put is
// served after another reopen.
func TestLogTornTail(t *testing.T) {
	dir := t.TempDir()
	s, keys, payloads, log := writeLog(t, dir, 5)
	last := len(keys) - 1
	off, n, _ := s.Locate(keys[last])
	start, end := off-store.FrameHeaderSize, off+int64(n)
	if end != int64(len(log)) {
		t.Fatalf("last frame ends at %d, log is %d bytes", end, len(log))
	}
	for cut := start + 1; cut < end; cut++ {
		if err := os.WriteFile(s.LogPath(), log[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		torn, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if info, err := os.Stat(s.LogPath()); err != nil || info.Size() != start {
			t.Fatalf("cut at %d: log not cut back to %d (%v, %v)", cut, start, info.Size(), err)
		}
		got := torn.GetMulti(keys)
		for i := range keys[:last] {
			if !bytes.Equal(got[i], payloads[i]) {
				t.Fatalf("cut at %d: record %d not served byte-equal", cut, i)
			}
		}
		if got[last] != nil {
			t.Fatalf("cut at %d: torn record served", cut)
		}
		if st := torn.Stats(); st.CorruptEntries != 1 || st.DiskHits != uint64(last) || st.Misses != 1 {
			t.Fatalf("cut at %d: stats %+v", cut, st)
		}

		if err := torn.Put(keys[last], payloads[last]); err != nil {
			t.Fatal(err)
		}
		again, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := again.Get(keys[last]); !ok || !bytes.Equal(got, payloads[last]) {
			t.Fatalf("cut at %d: record put after the tear not served", cut)
		}
		if st := again.Stats(); st.CorruptEntries != 0 {
			t.Fatalf("cut at %d: repaired log still counts corruption: %+v", cut, st)
		}
	}
}

// TestLogBitFlips flips every bit of a middle frame — its length, key, header
// CRC and payload — one at a time.  No case serves a payload under a key it
// was not written under.  A payload flip costs exactly that record, caught
// by its checksum on read; a header flip ends Open's scan there, so that
// record and the ones after it are misses and the log is cut back to the
// frame before.
func TestLogBitFlips(t *testing.T) {
	dir := t.TempDir()
	s, keys, payloads, log := writeLog(t, dir, 3)
	off, n, _ := s.Locate(keys[1])
	frame := off - store.FrameHeaderSize
	for pos := frame; pos < off+int64(n); pos++ {
		for bit := 0; bit < 8; bit++ {
			flipped := append([]byte(nil), log...)
			flipped[pos] ^= 1 << bit
			if err := os.WriteFile(s.LogPath(), flipped, 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatalf("byte %d bit %d: %v", pos, bit, err)
			}
			got := r.GetMulti(keys)
			for i := range keys {
				if got[i] != nil && !bytes.Equal(got[i], payloads[i]) {
					t.Fatalf("byte %d bit %d: record %d served another payload", pos, bit, i)
				}
			}
			if inKey := pos - frame - 4; inKey >= 0 && inKey < int64(len(keys[1])) {
				phantom := keys[1]
				phantom[inKey] ^= 1 << bit
				if _, ok := r.Get(phantom); ok {
					t.Fatalf("byte %d bit %d: a payload served under the flipped key", pos, bit)
				}
			}
			want := []bool{true, false, pos >= off}
			for i, served := range want {
				if (got[i] != nil) != served {
					t.Fatalf("byte %d bit %d: record %d served=%v, want %v", pos, bit, i, got[i] != nil, served)
				}
			}
			if st := r.Stats(); st.CorruptEntries != 1 {
				t.Fatalf("byte %d bit %d: stats %+v, want the damage counted once", pos, bit, st)
			}
			if info, err := os.Stat(s.LogPath()); err != nil || (pos < off) != (info.Size() == frame) {
				t.Fatalf("byte %d bit %d: log is %d bytes (%v); a header flip, and only one, cuts it to %d", pos, bit, info.Size(), err, frame)
			}
		}
	}
}
