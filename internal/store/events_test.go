package store

import (
	"strings"
	"testing"

	"repro/internal/model"
)

// TestDecodeRejectsImpossibleEvents writes three-process runs whose process 0
// holds one event no run can contain, field by field as the codec lays an
// event out (kind, presence mask, then the peer, message, action and report
// the mask names), in a well-framed container.  Each must fail to decode:
// the parts the union cannot hold in the reader (model.Event.SetParts), the
// rest in trace.ValidateStructure.  The control case checks the layout.
func TestDecodeRejectsImpossibleEvents(t *testing.T) {
	for _, c := range impossibleEvents {
		run, err := DecodeRun(c.container())
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want == "":
			if vs := model.Validate(run, model.ValidateOptions{}); len(vs) != 0 {
				t.Errorf("%s: decoded run fails validation: %v", c.name, vs)
			}
		case err == nil:
			t.Errorf("%s: decoded without error", c.name)
		case !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q does not name %q", c.name, err, c.want)
		}
	}
}

// alpha writes a message carrying the kind "alpha" alone.
func alpha(w *writer) {
	w.uvarint(1 << 0)
	w.str("alpha")
}

// impossibleEvent is one case of TestDecodeRejectsImpossibleEvents, and a
// seed of FuzzDecodeRun.
type impossibleEvent struct {
	name  string
	event func(w *writer)
	want  string // a substring of the decode error; "" for the control
}

// container seals a three-process run whose process 0 holds the one event.
func (c impossibleEvent) container() []byte {
	var w writer
	w.int(3)  // n
	w.int(10) // horizon
	w.uvarint(1)
	w.int(1) // the event's time
	c.event(&w)
	w.uvarint(0)
	w.uvarint(0)
	return seal(KindRun, w.buf)
}

var impossibleEvents = []impossibleEvent{
	{"control: send to 1", func(w *writer) {
		w.uvarint(uint64(model.EventSend))
		w.uvarint(1<<0 | 1<<1)
		w.svarint(1)
		alpha(w)
	}, ""},
	{"send to peer 70", func(w *writer) {
		w.uvarint(uint64(model.EventSend))
		w.uvarint(1<<0 | 1<<1)
		w.svarint(70)
		alpha(w)
	}, "peer 70"},
	{"event of kind 99", func(w *writer) {
		w.uvarint(99)
		w.uvarint(0)
	}, "unknown event kind 99"},
	{"event of kind 300", func(w *writer) {
		w.uvarint(300)
		w.uvarint(0)
	}, "event kind 300"},
	{"action initiated by -4", func(w *writer) {
		w.uvarint(uint64(model.EventInit))
		w.uvarint(1 << 2)
		w.action(model.ActionID{Initiator: -4, Seq: 1})
	}, "initiator -4"},
	{"action initiated by 5 of 3", func(w *writer) {
		w.uvarint(uint64(model.EventDo))
		w.uvarint(1 << 2)
		w.action(model.ActionID{Initiator: 5, Seq: 1})
	}, "initiated by 5"},
	{"message about an action initiated by 3", func(w *writer) {
		w.uvarint(uint64(model.EventSend))
		w.uvarint(1<<0 | 1<<1)
		w.svarint(1)
		w.uvarint(1<<0 | 1<<1)
		w.str("alpha")
		w.action(model.ActionID{Initiator: 3, Seq: 0})
	}, "initiated by 3"},
	{"recv carrying an action", func(w *writer) {
		w.uvarint(uint64(model.EventRecv))
		w.uvarint(1<<0 | 1<<1 | 1<<2)
		w.svarint(1)
		alpha(w)
		w.action(model.ActionID{Initiator: 0, Seq: 1})
	}, "recv event carries an action"},
	{"recv carrying a report", func(w *writer) {
		w.uvarint(uint64(model.EventRecv))
		w.uvarint(1<<0 | 1<<1 | 1<<3)
		w.svarint(1)
		alpha(w)
		w.uvarint(1 << 0)
		w.uvarint(uint64(model.SetOf(2)))
	}, "recv event carries a report"},
	{"crash carrying a message", func(w *writer) {
		w.uvarint(uint64(model.EventCrash))
		w.uvarint(1 << 1)
		alpha(w)
	}, "crash event carries a message"},
}
