package store

import (
	"sync"

	"repro/internal/model"
	"repro/internal/trace"
)

// Pooled decoding.  A RunDecoder owns the reusable buffers a decode needs —
// one contiguous event slab and the per-process span table — so draining a batch of containers through one
// decoder performs no per-event allocation once the buffers have grown to the
// batch's high-water mark.  The package-level DecodeRun/DecodeSystem/
// DecodeSeedRecord functions borrow a decoder from the shared pool and return
// compact owning copies; callers on hot paths (the scheduler's partial-hit
// assembly, the run-file transcoder) hold a decoder and use the transient
// methods directly.

// RunDecoder decodes binary containers into reusable buffers.  The transient
// DecodeRun/DecodeSeedRecord methods return values that alias the decoder's
// buffers: they are valid only until the next call on the same decoder, and
// callers that retain a run beyond that must take a CompactClone first.  A
// RunDecoder is not safe for concurrent use; use a DecoderPool to share.
type RunDecoder struct {
	slab    []model.TimedEvent
	spans   [][]model.TimedEvent
	offsets []int
	run     model.Run
	rec     SeedRecord
}

// NewRunDecoder returns an empty decoder ready for use.
func NewRunDecoder() *RunDecoder { return &RunDecoder{} }

// DecodeRun decodes a run container (EncodeRun) into the decoder's reusable
// buffers.  The returned run aliases them and is valid until the next call on
// this decoder; it performs no allocation once the buffers are warm.
func (d *RunDecoder) DecodeRun(data []byte) (*model.Run, error) {
	payload, err := unseal(data, KindRun)
	if err != nil {
		return nil, err
	}
	r := reader{data: payload}
	run := r.runInto(d)
	if err := r.done(); err != nil {
		return nil, err
	}
	if err := trace.ValidateStructure(run); err != nil {
		return nil, err
	}
	return run, nil
}

// DecodeSeedRecord decodes a seed-record container (EncodeSeedRecord) into
// the decoder's reusable buffers.  The returned record and its embedded run
// alias them and are valid until the next call on this decoder; the
// Violations slice (when present) is freshly allocated and may be retained.
func (d *RunDecoder) DecodeSeedRecord(data []byte) (*SeedRecord, error) {
	payload, err := unseal(data, KindSeed)
	if err != nil {
		return nil, err
	}
	r := reader{data: payload}
	rec := &d.rec
	*rec = SeedRecord{
		Seed:   r.svarint(),
		Stats:  r.stats(),
		Scored: r.bool(),
	}
	rec.Violations = r.violations()
	rec.LatencySum = r.int()
	rec.LatencyActions = r.int()
	rec.Run = r.runInto(d)
	if err := r.done(); err != nil {
		return nil, err
	}
	if err := trace.ValidateStructure(rec.Run); err != nil {
		return nil, err
	}
	return rec, nil
}

// runInto decodes one run payload into d's buffers: every event lands in one
// contiguous slab and the per-process histories become capacity-clipped spans
// of it, replacing the per-process allocations of the historical decode path.
func (r *reader) runInto(d *RunDecoder) *model.Run {
	n := r.int()
	if r.err == nil && (n <= 0 || n > model.MaxProcs) {
		r.fail("store: run process count %d out of range (0, %d]", n, model.MaxProcs)
	}
	if r.err != nil {
		return nil
	}
	horizon := r.int()
	slab := d.slab[:0]
	if cap(d.offsets) < n+1 {
		d.offsets = make([]int, n+1)
	}
	offsets := d.offsets[:n+1]
	for p := 0; p < n; p++ {
		base := len(slab)
		offsets[p] = base
		count := r.length("event")
		if r.err != nil {
			d.slab = slab
			return nil
		}
		// Extend the slab by this process's (known) event count up front and
		// decode through pointers into it: eventInto requires zeroed targets,
		// so the reused extension is cleared in one pass.
		need := base + count
		if cap(slab) < need {
			capacity := 2 * cap(slab)
			if capacity < need {
				capacity = need
			}
			grown := make([]model.TimedEvent, need, capacity)
			copy(grown, slab)
			slab = grown
		} else {
			slab = slab[:need]
			clear(slab[base:need])
		}
		for i := base; i < need; i++ {
			te := &slab[i]
			te.Time = r.int()
			r.eventInto(&te.Event)
		}
	}
	offsets[n] = len(slab)
	d.slab = slab
	if cap(d.spans) < n {
		d.spans = make([][]model.TimedEvent, n)
	}
	spans := d.spans[:n]
	for p := 0; p < n; p++ {
		end := offsets[p+1]
		spans[p] = slab[offsets[p]:end:end]
	}
	d.spans = spans
	d.run = model.Run{N: n, Horizon: horizon, Events: spans}
	return &d.run
}

// DecoderPool is a free list of RunDecoders for concurrent users, so a burst
// of decodes reuses a few warm decoders instead of growing fresh buffers each.
type DecoderPool struct {
	pool sync.Pool
}

// Get borrows a decoder; return it with Put when every transient value
// decoded through it has been dropped or cloned.
func (dp *DecoderPool) Get() *RunDecoder {
	if d, ok := dp.pool.Get().(*RunDecoder); ok {
		return d
	}
	return NewRunDecoder()
}

// Put returns a decoder to the pool.
func (dp *DecoderPool) Put(d *RunDecoder) {
	if d != nil {
		dp.pool.Put(d)
	}
}

// Decoders is the package's shared decoder pool.
var Decoders DecoderPool
