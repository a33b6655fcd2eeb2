package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one traced interval, recorded from the benchmark's own side of a
// layer boundary: a timed round, one op inside it, a ladder probe, or one
// bench-timed call into a layer.  Times are nanoseconds since the tracer
// started.  Name's prefix (up to the first '.') is the layer entered.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	// Op is the op's index in its round's list (-1 for non-op spans).
	Op int `json:"op"`
	// TraceID links a serving op to the daemon's own trace (X-Trace-Id,
	// queryable at /debug/traces/<id> while the daemon lives).
	TraceID string `json:"traceId,omitempty"`
	// Cache and StagesUs are program-reported: the op's X-Cache grade and its
	// Server-Timing stages in microseconds.
	Cache    string             `json:"cache,omitempty"`
	StagesUs map[string]float64 `json:"stagesUs,omitempty"`
}

// tracer keeps spans in memory until flush.  A nil tracer records nothing,
// so untraced runs pay one nil check per boundary.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

const noSpan = 0

// begin opens a span and returns its id (ids start at 1; 0 is "no parent").
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, Op: -1})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == noSpan {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent int, fn func()) time.Duration {
	id := t.begin(name, parent)
	start := time.Now()
	fn()
	d := time.Since(start)
	t.end(id)
	return d
}

// addOps records a finished round's ops as child spans of the round.
func (t *tracer) addOps(name string, parent int, ops []opResult) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, op := range ops {
		start := op.start.Sub(t.t0).Nanoseconds()
		s := span{
			ID: len(t.spans) + 1, Parent: parent, Name: name, Op: i,
			Start: start, End: start + op.latency.Nanoseconds(),
			TraceID: op.traceID, Cache: op.cache,
		}
		if op.stages.total > 0 {
			s.StagesUs = op.stages.asMap()
		}
		t.spans = append(t.spans, s)
	}
}

// layerOf is a span name's layer: its prefix up to the first '.'.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes is each layer's self time: every span's duration minus the part
// of its interval that its child spans cover (children of a round run on
// several clients at once, so coverage is the union, not the sum).
func (t *tracer) selfTimes() map[string]time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		covered, reach := int64(0), s.Start
		for _, iv := range ivs {
			lo, hi := max(iv[0], reach), min(iv[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[layerOf(s.Name)] += time.Duration(s.End - s.Start - covered)
	}
	return self
}

// flush writes one JSON object per span, then one summary record with the
// self time per layer.
func (t *tracer) flush(path string) error {
	self := t.selfTimes()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err = enc.Encode(&t.spans[i]); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		selfMs := make(map[string]float64, len(self))
		for layer, d := range self {
			selfMs[layer] = float64(d) / float64(time.Millisecond)
		}
		err = enc.Encode(map[string]any{"selfMsPerLayer": selfMs})
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
