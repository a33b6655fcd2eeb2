// Package trace provides serialisation and summarisation of recorded runs:
// JSON encoding for offline analysis, per-process event statistics, and
// compact human-readable dumps used by the command-line tools.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/model"
)

// EncodeJSON writes the run as (indented) JSON.
func EncodeJSON(w io.Writer, r *model.Run) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("encode run: %w", err)
	}
	return nil
}

// DecodeJSON reads a run previously written by EncodeJSON.  Beyond JSON
// syntax it validates the run's structural invariants (ValidateStructure), so
// corrupt run files fail loudly here instead of deep inside the epistemic
// indexer.
func DecodeJSON(rd io.Reader) (*model.Run, error) {
	var run model.Run
	if err := json.NewDecoder(rd).Decode(&run); err != nil {
		return nil, fmt.Errorf("decode run: %w", err)
	}
	if err := ValidateStructure(&run); err != nil {
		return nil, err
	}
	return &run, nil
}

// ValidateStructure checks a deserialised run's structural invariants — a
// consistent process count, a non-negative horizon, per-process event times
// that are non-negative, nondecreasing (R2) and within the horizon, and
// events of a known kind whose peer and initiators are processes of the run
// (model.Event.Check, which model.Validate applies too).
// Every decode path (JSON and the binary store container) runs it, so a file
// with intact framing but an impossible run shape is rejected identically
// everywhere.
func ValidateStructure(run *model.Run) error {
	if run.N <= 0 || len(run.Events) != run.N {
		return fmt.Errorf("decode run: inconsistent process count n=%d with %d histories", run.N, len(run.Events))
	}
	if run.Horizon < 0 {
		return fmt.Errorf("decode run: negative horizon %d", run.Horizon)
	}
	for p, evs := range run.Events {
		last := 0
		for i := range evs {
			t := evs[i].Time
			if t < 0 {
				return fmt.Errorf("decode run: process %d event %d has negative time %d", p, i, t)
			}
			if t < last {
				return fmt.Errorf("decode run: process %d event times not monotone: %d after %d (R2)", p, t, last)
			}
			if t > run.Horizon {
				return fmt.Errorf("decode run: process %d event %d at time %d exceeds horizon %d", p, i, t, run.Horizon)
			}
			if err := evs[i].Event.Check(run.N); err != nil {
				return fmt.Errorf("decode run: process %d event %d: %w", p, i, err)
			}
			last = t
		}
	}
	return nil
}

// Counts aggregates per-kind event counts.
type Counts struct {
	Send, Recv, Init, Do, Crash, Suspect int
}

// Total returns the total number of events counted.
func (c Counts) Total() int { return c.Send + c.Recv + c.Init + c.Do + c.Crash + c.Suspect }

// add increments the counter for one event kind.
func (c *Counts) add(k model.EventKind) {
	switch k {
	case model.EventSend:
		c.Send++
	case model.EventRecv:
		c.Recv++
	case model.EventInit:
		c.Init++
	case model.EventDo:
		c.Do++
	case model.EventCrash:
		c.Crash++
	case model.EventSuspect:
		c.Suspect++
	}
}

// Count returns aggregate event counts for the whole run.
func Count(r *model.Run) Counts {
	var c Counts
	for _, evs := range r.Events {
		for i := range evs {
			c.add(evs[i].Event.Kind)
		}
	}
	return c
}

// CountByProcess returns per-process event counts.
func CountByProcess(r *model.Run) []Counts {
	out := make([]Counts, r.N)
	for p, evs := range r.Events {
		for i := range evs {
			out[p].add(evs[i].Event.Kind)
		}
	}
	return out
}

// Summary renders a compact human-readable summary of a run: horizon, faulty
// set, per-process event counts and the fate of every initiated action.
func Summary(r *model.Run) string {
	var b strings.Builder
	fmt.Fprintf(&b, "run: n=%d horizon=%d faulty=%s events=%d\n", r.N, r.Horizon, r.Faulty(), r.EventCount())
	perProc := CountByProcess(r)
	fmt.Fprintf(&b, "%-5s %6s %6s %5s %5s %6s %8s %7s\n", "proc", "send", "recv", "init", "do", "crash", "suspect", "total")
	for p, c := range perProc {
		fmt.Fprintf(&b, "p%-4d %6d %6d %5d %5d %6d %8d %7d\n", p, c.Send, c.Recv, c.Init, c.Do, c.Crash, c.Suspect, c.Total())
	}
	actions := r.InitiatedActions()
	if len(actions) > 0 {
		b.WriteString("actions:\n")
	}
	for _, a := range actions {
		initAt, _ := r.InitTime(a)
		performers := make([]string, 0, r.N)
		for p := model.ProcID(0); int(p) < r.N; p++ {
			if t, ok := r.DoTime(p, a); ok {
				performers = append(performers, fmt.Sprintf("p%d@%d", p, t))
			}
		}
		sort.Strings(performers)
		fmt.Fprintf(&b, "  %v init@%d performed-by [%s]\n", a, initAt, strings.Join(performers, " "))
	}
	return b.String()
}

// Timeline renders process p's history as one line per event, for debugging.
func Timeline(r *model.Run, p model.ProcID) string {
	var b strings.Builder
	evs := r.Events[p]
	for i := range evs {
		fmt.Fprintf(&b, "%5d  %s\n", evs[i].Time, evs[i].Event)
	}
	return b.String()
}
