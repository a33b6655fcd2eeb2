package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sync"

	"repro/internal/model"
	"repro/internal/trace"
)

// The binary codec serialises recorded runs and sweep/extraction records into
// a compact, deterministic container: a fixed magic, a format version, a kind
// byte, a varint-encoded payload, and a trailing CRC-32 of everything before
// it.  Encoding the same value always yields the same bytes, decoding is
// allocation-light, and any truncation or bit flip fails the checksum (or a
// bounds check) instead of producing a plausible-looking wrong value.  The
// codec preserves every field of every event, so a decoded run re-encodes to
// byte-identical JSON under trace.EncodeJSON.

// CodecVersion is the binary format version.  It participates in cache keys,
// so bumping it invalidates every stored entry.
const CodecVersion = 1

// Container kinds.
const (
	// KindRun is a single recorded model.Run.
	KindRun byte = 1
	// KindSystem is an ordered sequence of recorded runs.
	KindSystem byte = 2
	// KindSweep is a SweepRecord.
	KindSweep byte = 3
	// KindExtraction is an ExtractionRecord.
	KindExtraction byte = 4
	// KindSeed is a SeedRecord: one seed's recorded run plus the simulator's
	// counters.  Older daemons stored one per extraction source seed; the
	// daemon no longer writes or reads them.
	KindSeed byte = 5
	// KindOutcome is a single workload.RunOutcome: the per-seed corpus record
	// of a sweep (nothing in the scenario namespace reads a run, so none is
	// stored) and, framed, the per-seed unit of a binary sweep stream.
	KindOutcome byte = 6
	// KindError is a stream error trailer: the terminal frame of a binary
	// stream whose computation failed after records were already written.
	// Wire-only: error containers are never stored.
	KindError byte = 7
)

var magic = [4]byte{'U', 'D', 'C', CodecVersion}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// writer accumulates the varint-encoded payload.  Writers come from writers
// and go back when their payload is sealed, so an Encode* call's only
// allocation is its sealed copy.
type writer struct {
	buf []byte
}

var writers = sync.Pool{New: func() any { return new(writer) }}

// maxPooledWriter bounds the buffer a pooled writer keeps: runs and
// extraction records can be large, and one must not pin its buffer for every
// small outcome after it.
const maxPooledWriter = 256 << 10

func newWriter() *writer {
	w := writers.Get().(*writer)
	w.buf = w.buf[:0]
	return w
}

// seal returns the payload sealed as a container of kind and puts w back.
func (w *writer) seal(kind byte) []byte {
	out := seal(kind, w.buf)
	if cap(w.buf) <= maxPooledWriter {
		writers.Put(w)
	}
	return out
}

func (w *writer) uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

func (w *writer) svarint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

func (w *writer) int(v int) { w.svarint(int64(v)) }

func (w *writer) bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// reader decodes a varint payload.  The first malformed field latches err and
// every subsequent read returns a zero value, so decode functions only need
// one error check at the end.
type reader struct {
	data []byte
	pos  int
	err  error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// uvarint and svarint inline the one- and two-byte cases — event kinds,
// presence masks, counts, and step times up to 16383 — and fall back to the
// full decoder for longer values.

func (r *reader) uvarint() uint64 {
	if r.err == nil && r.pos < len(r.data) {
		if b := r.data[r.pos]; b < 0x80 {
			r.pos++
			return uint64(b)
		} else if r.pos+1 < len(r.data) {
			if b2 := r.data[r.pos+1]; b2 < 0x80 {
				r.pos += 2
				return uint64(b&0x7f) | uint64(b2)<<7
			}
		}
	}
	return r.uvarintSlow()
}

func (r *reader) uvarintSlow() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.fail("store: truncated uvarint at offset %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) svarint() int64 {
	if r.err == nil && r.pos < len(r.data) {
		if b := r.data[r.pos]; b < 0x80 {
			r.pos++
			v := int64(b >> 1)
			if b&1 != 0 {
				v = ^v
			}
			return v
		} else if r.pos+1 < len(r.data) {
			if b2 := r.data[r.pos+1]; b2 < 0x80 {
				r.pos += 2
				ux := uint64(b&0x7f) | uint64(b2)<<7
				v := int64(ux >> 1)
				if ux&1 != 0 {
					v = ^v
				}
				return v
			}
		}
	}
	return r.svarintSlow()
}

func (r *reader) svarintSlow() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		r.fail("store: truncated varint at offset %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) int() int { return int(r.svarint()) }

// length reads a count that will size an allocation and bounds it by the
// bytes remaining, so corrupt counts cannot force huge allocations.
func (r *reader) length(what string) int {
	v := r.uvarint()
	if r.err == nil && v > uint64(len(r.data)-r.pos) {
		r.fail("store: %s count %d exceeds remaining %d bytes", what, v, len(r.data)-r.pos)
		return 0
	}
	return int(v)
}

func (r *reader) bool() bool {
	if r.err != nil {
		return false
	}
	if r.pos >= len(r.data) {
		r.fail("store: truncated bool at offset %d", r.pos)
		return false
	}
	b := r.data[r.pos]
	r.pos++
	return b != 0
}

func (r *reader) str() string { return r.strOver("") }

// strOver reads a string like str, but returns old itself when the bytes
// spell it, so a recycled record's unchanged strings cost no allocation.
func (r *reader) strOver(old string) string {
	n := r.length("string")
	if r.err != nil {
		return ""
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	if string(b) == old {
		return old
	}
	return string(b)
}

// kind reads a message kind's name, written like a string, and interns it:
// a known kind costs a map probe and no allocation, and a kind the bounded
// table has no room for fails the decode.
func (r *reader) kind() model.MsgKind {
	n := r.length("string")
	if r.err != nil || n == 0 {
		return 0
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	k, err := model.InternKind(b)
	if err != nil {
		r.fail("store: %v", err)
	}
	return k
}

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.data) {
		return fmt.Errorf("store: %d trailing bytes after payload", len(r.data)-r.pos)
	}
	return nil
}

// seal wraps a payload in the container framing: magic, kind, payload,
// trailing CRC-32C of everything before it.
func seal(kind byte, payload []byte) []byte {
	out := make([]byte, 0, len(magic)+1+len(payload)+4)
	out = append(out, magic[:]...)
	out = append(out, kind)
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
}

// unseal verifies the container framing and returns the payload.
func unseal(data []byte, wantKind byte) ([]byte, error) {
	if err := Check(data); err != nil {
		return nil, err
	}
	if data[4] != wantKind {
		return nil, fmt.Errorf("store: container kind %d, want %d", data[4], wantKind)
	}
	return data[5 : len(data)-4], nil
}

// Check verifies the container framing — magic, version, a known kind and the
// trailing checksum — without decoding the payload.  It is what the on-disk
// store uses to detect corrupt or truncated entries.
func Check(data []byte) error {
	if len(data) < len(magic)+1+4 {
		return fmt.Errorf("store: container truncated to %d bytes", len(data))
	}
	if [4]byte(data[:4]) != magic {
		return fmt.Errorf("store: bad magic %q (version mismatch or not a store container)", data[:4])
	}
	if kind := data[4]; kind < KindRun || kind > KindError {
		return fmt.Errorf("store: unknown container kind %d", kind)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.Checksum(body, crcTable), binary.LittleEndian.Uint32(tail); got != want {
		return fmt.Errorf("store: checksum mismatch (got %08x, want %08x)", got, want)
	}
	return nil
}

// Kind returns the container kind byte of a framed blob, or an error if the
// framing is invalid.
func Kind(data []byte) (byte, error) {
	if err := Check(data); err != nil {
		return 0, err
	}
	return data[4], nil
}

// KindName names a container kind for human-facing output (the corpus census
// groups entries by it).  Unknown bytes render as "unknown".
func KindName(kind byte) string {
	switch kind {
	case KindRun:
		return "run"
	case KindSystem:
		return "system"
	case KindSweep:
		return "sweep"
	case KindExtraction:
		return "extraction"
	case KindSeed:
		return "seed"
	case KindOutcome:
		return "outcome"
	case KindError:
		return "error"
	}
	return "unknown"
}

// --- model value encoding -------------------------------------------------

// Field-presence masks keep non-message events to a couple of bytes each
// while still preserving every field exactly.  An event is written with its
// message, action and report side by side, the layout the format was
// defined on; a recorded event has only the one its kind carries, and the
// decoder rejects any other (model.Event.SetParts).

func (w *writer) action(a model.ActionID) {
	w.svarint(int64(a.Initiator))
	w.int(a.Seq)
}

func (r *reader) action() model.ActionID {
	return model.ActionID{Initiator: model.ProcID(r.svarint()), Seq: r.int()}
}

func (w *writer) message(m *model.Message) {
	var mask uint64
	if m.Kind != 0 {
		mask |= 1 << 0
	}
	if !m.Action.IsZero() {
		mask |= 1 << 1
	}
	if m.Round != 0 {
		mask |= 1 << 2
	}
	if m.Phase != 0 {
		mask |= 1 << 3
	}
	if m.Value != 0 {
		mask |= 1 << 4
	}
	if m.Aux != 0 {
		mask |= 1 << 5
	}
	if m.Suspects != 0 {
		mask |= 1 << 6
	}
	if m.KnownCrashed != 0 {
		mask |= 1 << 7
	}
	if m.KnownInits {
		mask |= 1 << 8
	}
	w.uvarint(mask)
	if mask&(1<<0) != 0 {
		w.str(m.Kind.String())
	}
	if mask&(1<<1) != 0 {
		w.action(m.Action)
	}
	if mask&(1<<2) != 0 {
		w.int(m.Round)
	}
	if mask&(1<<3) != 0 {
		w.int(m.Phase)
	}
	if mask&(1<<4) != 0 {
		w.int(m.Value)
	}
	if mask&(1<<5) != 0 {
		w.int(m.Aux)
	}
	if mask&(1<<6) != 0 {
		w.uvarint(uint64(m.Suspects))
	}
	if mask&(1<<7) != 0 {
		w.uvarint(uint64(m.KnownCrashed))
	}
	// KnownInits is fully carried by its mask bit.
}

// messageInto decodes a message into *m, which must be zero on entry;
// writing through the pointer keeps the hot decode loop free of large struct
// copies.
func (r *reader) messageInto(m *model.Message) {
	mask := r.uvarint()
	if mask&(1<<0) != 0 {
		m.Kind = r.kind()
	}
	if mask&(1<<1) != 0 {
		m.Action = r.action()
	}
	if mask&(1<<2) != 0 {
		m.Round = r.int()
	}
	if mask&(1<<3) != 0 {
		m.Phase = r.int()
	}
	if mask&(1<<4) != 0 {
		m.Value = r.int()
	}
	if mask&(1<<5) != 0 {
		m.Aux = r.int()
	}
	if mask&(1<<6) != 0 {
		m.Suspects = model.ProcSet(r.uvarint())
	}
	if mask&(1<<7) != 0 {
		m.KnownCrashed = model.ProcSet(r.uvarint())
	}
	m.KnownInits = mask&(1<<8) != 0
}

func (w *writer) report(rep *model.SuspectReport) {
	var mask uint64
	if rep.Suspects != 0 {
		mask |= 1 << 0
	}
	if rep.Generalized {
		mask |= 1 << 1
	}
	if rep.Group != 0 {
		mask |= 1 << 2
	}
	if rep.MinFaulty != 0 {
		mask |= 1 << 3
	}
	if rep.CorrectReport {
		mask |= 1 << 4
	}
	if rep.Correct != 0 {
		mask |= 1 << 5
	}
	w.uvarint(mask)
	if mask&(1<<0) != 0 {
		w.uvarint(uint64(rep.Suspects))
	}
	if mask&(1<<2) != 0 {
		w.uvarint(uint64(rep.Group))
	}
	if mask&(1<<3) != 0 {
		w.int(rep.MinFaulty)
	}
	if mask&(1<<5) != 0 {
		w.uvarint(uint64(rep.Correct))
	}
}

// reportInto decodes a suspect report into *rep, which must be zero on entry.
func (r *reader) reportInto(rep *model.SuspectReport) {
	mask := r.uvarint()
	if mask&(1<<0) != 0 {
		rep.Suspects = model.ProcSet(r.uvarint())
	}
	rep.Generalized = mask&(1<<1) != 0
	if mask&(1<<2) != 0 {
		rep.Group = model.ProcSet(r.uvarint())
	}
	if mask&(1<<3) != 0 {
		rep.MinFaulty = r.int()
	}
	rep.CorrectReport = mask&(1<<4) != 0
	if mask&(1<<5) != 0 {
		rep.Correct = model.ProcSet(r.uvarint())
	}
}

func (w *writer) event(e *model.Event) {
	var mask uint64
	if e.Peer != 0 {
		mask |= 1 << 0
	}
	msg, action, rep := e.Msg(), e.Action(), e.Report()
	hasMsg := msg != (model.Message{})
	if hasMsg {
		mask |= 1 << 1
	}
	if !action.IsZero() {
		mask |= 1 << 2
	}
	hasReport := rep != (model.SuspectReport{})
	if hasReport {
		mask |= 1 << 3
	}
	w.uvarint(uint64(e.Kind))
	w.uvarint(mask)
	if mask&(1<<0) != 0 {
		w.svarint(int64(e.Peer))
	}
	if hasMsg {
		w.message(&msg)
	}
	if mask&(1<<2) != 0 {
		w.action(action)
	}
	if hasReport {
		w.report(&rep)
	}
}

// eventInto decodes an event into *e, which must be zero on entry; the
// decode loop works through pointers into the destination slab, and the
// parts are stored by SetParts, which rejects an event no run can contain.
func (r *reader) eventInto(e *model.Event) {
	kind := r.uvarint()
	if kind > math.MaxUint8 {
		r.fail("store: event kind %d out of range", kind)
	}
	e.Kind = model.EventKind(kind)
	mask := r.uvarint()
	if mask&(1<<0) != 0 {
		e.Peer = model.ProcID(r.svarint())
	}
	var (
		msg    *model.Message
		action *model.ActionID
		rep    *model.SuspectReport
	)
	if mask&(1<<1) != 0 {
		msg = new(model.Message)
		r.messageInto(msg)
	}
	if mask&(1<<2) != 0 {
		a := r.action()
		action = &a
	}
	if mask&(1<<3) != 0 {
		rep = new(model.SuspectReport)
		r.reportInto(rep)
	}
	if r.err == nil {
		if err := e.SetParts(msg, action, rep); err != nil {
			r.fail("store: %v", err)
		}
	}
}

func (w *writer) run(r *model.Run) {
	w.int(r.N)
	w.int(r.Horizon)
	for _, evs := range r.Events {
		w.uvarint(uint64(len(evs)))
		for i := range evs {
			w.int(evs[i].Time)
			w.event(&evs[i].Event)
		}
	}
}

// EncodeRun serialises one recorded run.
func EncodeRun(run *model.Run) []byte {
	w := newWriter()
	w.run(run)
	return w.seal(KindRun)
}

// DecodeRun deserialises a run encoded by EncodeRun, validating the container
// framing, the payload bounds, and — like trace.DecodeJSON — the run's
// structural invariants, so a well-framed container holding an impossible run
// shape (negative horizon, non-monotone event times) is rejected rather than
// handed to the evaluators.  The returned run is an independent compact copy;
// decoding goes through the shared decoder pool, so repeated calls reuse warm
// buffers and intern message kinds.
func DecodeRun(data []byte) (*model.Run, error) {
	d := Decoders.Get()
	defer Decoders.Put(d)
	run, err := d.DecodeRun(data)
	if err != nil {
		return nil, err
	}
	return run.CompactClone(), nil
}

// EncodeSystem serialises an ordered sequence of recorded runs.
func EncodeSystem(runs model.System) []byte {
	w := newWriter()
	w.uvarint(uint64(len(runs)))
	for _, run := range runs {
		w.run(run)
	}
	return w.seal(KindSystem)
}

// DecodeSystem deserialises a sequence encoded by EncodeSystem; every run is
// an independent compact copy.
func DecodeSystem(data []byte) (model.System, error) {
	payload, err := unseal(data, KindSystem)
	if err != nil {
		return nil, err
	}
	d := Decoders.Get()
	defer Decoders.Put(d)
	r := reader{data: payload}
	count := r.length("run")
	if r.err != nil {
		return nil, r.err
	}
	runs := make(model.System, count)
	for i := range runs {
		// The transient run aliases d's buffers, which the next iteration
		// reuses, so each element is compacted into owned storage here.
		if transient := r.runInto(d); transient != nil {
			runs[i] = transient.CompactClone()
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	for i, run := range runs {
		if err := trace.ValidateStructure(run); err != nil {
			return nil, fmt.Errorf("run %d: %w", i, err)
		}
	}
	return runs, nil
}

func (w *writer) violations(vs []model.Violation) {
	w.uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.str(v.Rule)
		w.str(v.Detail)
	}
}

func (r *reader) violations() []model.Violation { return r.violationsOver(nil) }

// violationsOver reads a violation list like violations, but into old's
// backing array when it has room, keeping old's strings where they are
// unchanged.  An empty list is nil either way.
func (r *reader) violationsOver(old []model.Violation) []model.Violation {
	count := r.length("violation")
	if r.err != nil || count == 0 {
		return nil
	}
	vs := old[:cap(old)]
	if len(vs) < count {
		vs = make([]model.Violation, count)
	}
	vs = vs[:count]
	for i := range vs {
		vs[i] = model.Violation{Rule: r.strOver(vs[i].Rule), Detail: r.strOver(vs[i].Detail)}
	}
	return vs
}
