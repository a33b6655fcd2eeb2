package model

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// EventKind enumerates the kinds of events that may appear in a process
// history (Section 2.1 of the paper).
type EventKind uint8

const (
	// EventSend records send_p(q, msg): p sends msg to q.
	EventSend EventKind = iota + 1
	// EventRecv records recv_p(q, msg): p receives msg from q.
	EventRecv
	// EventInit records init_p(alpha): p initiates coordination action alpha.
	EventInit
	// EventDo records do_p(alpha): p performs coordination action alpha.
	EventDo
	// EventCrash records crash_p: p fails.  It is always the last event in a
	// history (condition R4).
	EventCrash
	// EventSuspect records suspect_p(x): p obtains report x from its failure
	// detector.
	EventSuspect
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventSend:
		return "send"
	case EventRecv:
		return "recv"
	case EventInit:
		return "init"
	case EventDo:
		return "do"
	case EventCrash:
		return "crash"
	case EventSuspect:
		return "suspect"
	default:
		return "unknown(" + strconv.Itoa(int(k)) + ")"
	}
}

// ActionID identifies a coordination action.  The paper requires that the
// action sets A_p of different processes are disjoint; we enforce this by
// tagging every action with its unique initiator.  Only Initiator may initiate
// the action, but any process may perform (do) it.
type ActionID struct {
	Initiator ProcID `json:"initiator"`
	Seq       int    `json:"seq"`
}

// Action is shorthand for constructing an ActionID.
func Action(initiator ProcID, seq int) ActionID {
	return ActionID{Initiator: initiator, Seq: seq}
}

// IsZero reports whether a is the zero ActionID (meaning "no action").
func (a ActionID) IsZero() bool { return a == ActionID{} }

// String implements fmt.Stringer.
func (a ActionID) String() string {
	return fmt.Sprintf("a(%d,%d)", a.Initiator, a.Seq)
}

// Message is the payload carried by send and receive events.  Rather than an
// opaque interface, messages carry a small set of typed fields shared by all
// protocols in this repository; protocols interpret only the fields they use.
// Keeping messages comparable makes channel fairness (R5) and run validation
// (R3) straightforward.
type Message struct {
	// Kind is the protocol-level message type, e.g. "alpha", "ack",
	// "estimate", "decide", interned by Kind.
	Kind MsgKind `json:"kind"`
	// Action is the coordination action this message concerns, if any.
	Action ActionID `json:"action,omitempty"`
	// Round is a protocol round or phase number (consensus).
	Round int `json:"round,omitempty"`
	// Phase distinguishes sub-phases within a round (consensus).
	Phase int `json:"phase,omitempty"`
	// Value is a protocol value (consensus estimate, timestamps, payloads).
	Value int `json:"value,omitempty"`
	// Aux is a secondary integer value (e.g. an estimate's timestamp).
	Aux int `json:"aux,omitempty"`
	// Suspects piggybacks the sender's current suspicions; used by the
	// full-information-style protocols motivated by assumption A4 and by the
	// weak-to-strong detector conversion of Proposition 2.1.
	Suspects ProcSet `json:"suspects,omitempty"`
	// KnownCrashed piggybacks the set of processes the sender knows to have
	// crashed.
	KnownCrashed ProcSet `json:"knownCrashed,omitempty"`
	// KnownInits piggybacks whether the sender knows the action in Action was
	// initiated (trivially true for "alpha" messages).
	KnownInits bool `json:"knownInits,omitempty"`
}

// Key returns a stable identity string for the message content.  Two sends of
// "the same message" in the sense of fairness condition R5 have equal keys.
func (m Message) Key() string {
	var b strings.Builder
	b.WriteString(m.Kind.String())
	b.WriteByte('|')
	b.WriteString(m.Action.String())
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(m.Round))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(m.Phase))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(m.Value))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(m.Aux))
	return b.String()
}

// SuspectReport is the report emitted by a failure detector (Section 2.2).
// Standard reports carry a set of suspected processes.  Generalized reports
// (Section 4) carry a pair (Group, MinFaulty) meaning "at least MinFaulty
// processes in Group are faulty".  g-standard reports (Section 2.2's example,
// used by Aguilera-Toueg-Deianov) instead assert that the processes in Correct
// are correct; the mapping g sends such a report to the suspected set
// Proc - Correct.
type SuspectReport struct {
	// Suspects is the suspected set for standard reports.
	Suspects ProcSet `json:"suspects,omitempty"`
	// Generalized marks the report as a generalized (S, k) report.
	Generalized bool `json:"generalized,omitempty"`
	// Group is the set S of a generalized report.
	Group ProcSet `json:"group,omitempty"`
	// MinFaulty is the lower bound k of a generalized report.
	MinFaulty int `json:"minFaulty,omitempty"`
	// CorrectReport marks a g-standard report of the form "the processes in
	// Correct are correct".
	CorrectReport bool `json:"correctReport,omitempty"`
	// Correct is the asserted-correct set of a g-standard report.
	Correct ProcSet `json:"correct,omitempty"`
}

// StandardSuspects applies the paper's g mapping: for a standard report it
// returns the suspected set, for a g-standard "these are correct" report it
// returns the complement with respect to the n processes, and for a
// generalized report it returns ok=false (generalized reports do not identify
// individual suspects).
func (r SuspectReport) StandardSuspects(n int) (ProcSet, bool) {
	switch {
	case r.Generalized:
		return EmptySet(), false
	case r.CorrectReport:
		return FullSet(n).Diff(r.Correct), true
	default:
		return r.Suspects, true
	}
}

// String implements fmt.Stringer.
func (r SuspectReport) String() string {
	switch {
	case r.Generalized:
		return fmt.Sprintf("suspect(%s,%d)", r.Group, r.MinFaulty)
	case r.CorrectReport:
		return "correct" + r.Correct.String()
	default:
		return "suspect" + r.Suspects.String()
	}
}

// Event is a single occurrence in a process history.  Each kind carries one
// part: a send or recv its message, an init or do its action, a suspect its
// report, a crash nothing.  The parts share one body, so an event is a tag,
// a peer and seven words, and holds no pointer: the garbage collector never
// scans a history slab.
// The body is read through Msg, Action and Report (each zero unless it is
// the kind's part), or through the narrow accessors the hot readers use, and
// written through SetMsg, SetAction and SetReport.  An initiator is kept in a
// byte, so every action an event carries has 0 <= Initiator < MaxProcs.
type Event struct {
	Kind EventKind
	// flags holds Message.KnownInits, SuspectReport.Generalized and
	// SuspectReport.CorrectReport.
	flags uint8
	// initiator is the initiator of the event's action, or of its message's.
	initiator uint8
	msgKind   MsgKind
	// Peer is the destination of a send or the source of a receive.
	Peer ProcID
	// seq is the Seq of the event's action, or of its message's.
	seq int
	// word holds a message's Round, Phase, Value and Aux, or a report's
	// MinFaulty and Correct.
	word [4]int
	// set holds a message's Suspects and KnownCrashed, or a report's
	// Suspects and Group.
	set [2]ProcSet
}

const (
	flagKnownInits uint8 = 1 << iota
	flagGeneralized
	flagCorrectReport
)

// SendEvent returns send(to, m).
func SendEvent(to ProcID, m Message) Event {
	e := Event{Kind: EventSend, Peer: to}
	e.SetMsg(&m)
	return e
}

// RecvEvent returns recv(from, m).
func RecvEvent(from ProcID, m Message) Event {
	e := Event{Kind: EventRecv, Peer: from}
	e.SetMsg(&m)
	return e
}

// InitEvent returns init(a).
func InitEvent(a ActionID) Event {
	e := Event{Kind: EventInit}
	e.SetAction(a)
	return e
}

// DoEvent returns do(a).
func DoEvent(a ActionID) Event {
	e := Event{Kind: EventDo}
	e.SetAction(a)
	return e
}

// SuspectEvent returns suspect(rep).
func SuspectEvent(rep SuspectReport) Event {
	e := Event{Kind: EventSuspect}
	e.SetReport(&rep)
	return e
}

// hasMsg, hasAction and hasReport report which part e's kind carries.
func (e *Event) hasMsg() bool    { return e.Kind == EventSend || e.Kind == EventRecv }
func (e *Event) hasAction() bool { return e.Kind == EventInit || e.Kind == EventDo }
func (e *Event) hasReport() bool { return e.Kind == EventSuspect }

// setInitiator stores an initiator in its byte.
func (e *Event) setInitiator(p ProcID) {
	if uint(p) >= MaxProcs {
		panic(fmt.Sprintf("model: action initiator %d outside [0,%d)", p, MaxProcs))
	}
	e.initiator = uint8(p)
}

// SetMsg stores m as the event's message.  It does not change Kind.
func (e *Event) SetMsg(m *Message) {
	e.setInitiator(m.Action.Initiator)
	e.msgKind = m.Kind
	e.seq = m.Action.Seq
	e.word = [4]int{m.Round, m.Phase, m.Value, m.Aux}
	e.set = [2]ProcSet{m.Suspects, m.KnownCrashed}
	e.flags = 0
	if m.KnownInits {
		e.flags = flagKnownInits
	}
}

// SetAction stores a as the event's action.  It does not change Kind.
func (e *Event) SetAction(a ActionID) {
	e.setInitiator(a.Initiator)
	e.seq = a.Seq
}

// SetReport stores rep as the event's report.  It does not change Kind.
func (e *Event) SetReport(rep *SuspectReport) {
	e.set = [2]ProcSet{rep.Suspects, rep.Group}
	e.word = [4]int{rep.MinFaulty, int(rep.Correct)}
	e.flags = 0
	if rep.Generalized {
		e.flags |= flagGeneralized
	}
	if rep.CorrectReport {
		e.flags |= flagCorrectReport
	}
}

// SetParts stores the parts a serialised event carries — the form in which
// JSON and the binary codec write an event, with message, action and report
// side by side — given as pointers, nil for a part that is absent.  A part
// that does not belong to e.Kind, or an initiator outside [0, MaxProcs), is
// an error: the event could not be recorded.
func (e *Event) SetParts(m *Message, a *ActionID, rep *SuspectReport) error {
	switch {
	case m != nil && !e.hasMsg():
		return fmt.Errorf("model: %s event carries a message", e.Kind)
	case a != nil && !e.hasAction():
		return fmt.Errorf("model: %s event carries an action", e.Kind)
	case rep != nil && !e.hasReport():
		return fmt.Errorf("model: %s event carries a report", e.Kind)
	case m != nil && uint(m.Action.Initiator) >= MaxProcs:
		return fmt.Errorf("model: action initiator %d outside [0,%d)", m.Action.Initiator, MaxProcs)
	case a != nil && uint(a.Initiator) >= MaxProcs:
		return fmt.Errorf("model: action initiator %d outside [0,%d)", a.Initiator, MaxProcs)
	case m != nil:
		e.SetMsg(m)
	case a != nil:
		e.SetAction(*a)
	case rep != nil:
		e.SetReport(rep)
	}
	return nil
}

// Msg returns the message of a send or recv, and the zero Message for any
// other kind.
func (e *Event) Msg() Message {
	if !e.hasMsg() {
		return Message{}
	}
	return Message{
		Kind:         e.msgKind,
		Action:       ActionID{Initiator: ProcID(e.initiator), Seq: e.seq},
		Round:        e.word[0],
		Phase:        e.word[1],
		Value:        e.word[2],
		Aux:          e.word[3],
		Suspects:     e.set[0],
		KnownCrashed: e.set[1],
		KnownInits:   e.flags&flagKnownInits != 0,
	}
}

// MsgKind returns the kind of a send or recv's message, and 0 for any other
// kind of event.
func (e *Event) MsgKind() MsgKind {
	if !e.hasMsg() {
		return 0
	}
	return e.msgKind
}

// Action returns the action of an init or do, and the zero ActionID for any
// other kind.
func (e *Event) Action() ActionID {
	if !e.hasAction() {
		return ActionID{}
	}
	return ActionID{Initiator: ProcID(e.initiator), Seq: e.seq}
}

// actionIs reports whether the body's action is a, without building an
// ActionID; the caller has checked that e carries one.
func (e *Event) actionIs(a ActionID) bool {
	return ProcID(e.initiator) == a.Initiator && e.seq == a.Seq
}

// Report returns the report of a suspect event, and the zero SuspectReport
// for any other kind.
func (e *Event) Report() SuspectReport {
	if !e.hasReport() {
		return SuspectReport{}
	}
	return SuspectReport{
		Suspects:      e.set[0],
		Generalized:   e.flags&flagGeneralized != 0,
		Group:         e.set[1],
		MinFaulty:     e.word[0],
		CorrectReport: e.flags&flagCorrectReport != 0,
		Correct:       ProcSet(e.word[1]),
	}
}

// StandardSuspects applies SuspectReport.StandardSuspects to a suspect
// event's report in place; any other kind of event has no suspects.
func (e *Event) StandardSuspects(n int) (ProcSet, bool) {
	switch {
	case !e.hasReport():
		return EmptySet(), true
	case e.flags&flagGeneralized != 0:
		return EmptySet(), false
	case e.flags&flagCorrectReport != 0:
		return FullSet(n).Diff(ProcSet(e.word[1])), true
	default:
		return e.set[0], true
	}
}

// GeneralizedReport returns the (S, k) of a suspect event carrying a
// generalized report; ok is false for any other event.
func (e *Event) GeneralizedReport() (group ProcSet, minFaulty int, ok bool) {
	if !e.hasReport() || e.flags&flagGeneralized == 0 {
		return 0, 0, false
	}
	return e.set[1], e.word[0], true
}

// Check reports the first way e cannot be an event of a run over n
// processes: a kind outside [EventSend, EventSuspect], a peer outside
// [0, n), or an action — the event's, or its message's — initiated outside
// [0, n).
func (e *Event) Check(n int) error {
	if e.Kind < EventSend || e.Kind > EventSuspect {
		return fmt.Errorf("unknown event kind %d", e.Kind)
	}
	if e.Peer < 0 || int(e.Peer) >= n {
		return fmt.Errorf("%s event peer %d outside [0,%d)", e.Kind, e.Peer, n)
	}
	if (e.hasMsg() || e.hasAction()) && int(e.initiator) >= n {
		return fmt.Errorf("%s event action initiated by %d outside [0,%d)", e.Kind, e.initiator, n)
	}
	return nil
}

// eventJSON is an event's JSON form: the layout before the union, with
// message, action and report side by side and always present.
type eventJSON struct {
	Kind   EventKind     `json:"kind"`
	Peer   ProcID        `json:"peer,omitempty"`
	Msg    Message       `json:"msg"`
	Action ActionID      `json:"action"`
	Report SuspectReport `json:"report"`
}

// MarshalJSON implements json.Marshaler.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(eventJSON{Kind: e.Kind, Peer: e.Peer, Msg: e.Msg(), Action: e.Action(), Report: e.Report()})
}

// UnmarshalJSON implements json.Unmarshaler.  A zero part is absent, and a
// non-zero one is stored, or rejected, by SetParts.
func (e *Event) UnmarshalJSON(data []byte) error {
	var j eventJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*e = Event{Kind: j.Kind, Peer: j.Peer}
	var (
		m   *Message
		a   *ActionID
		rep *SuspectReport
	)
	if j.Msg != (Message{}) {
		m = &j.Msg
	}
	if !j.Action.IsZero() {
		a = &j.Action
	}
	if j.Report != (SuspectReport{}) {
		rep = &j.Report
	}
	return e.SetParts(m, a, rep)
}

// String implements fmt.Stringer.
func (e Event) String() string {
	switch e.Kind {
	case EventSend:
		return fmt.Sprintf("send(->%d,%s)", e.Peer, e.msgKind)
	case EventRecv:
		return fmt.Sprintf("recv(<-%d,%s)", e.Peer, e.msgKind)
	case EventInit:
		return "init(" + e.Action().String() + ")"
	case EventDo:
		return "do(" + e.Action().String() + ")"
	case EventCrash:
		return "crash"
	case EventSuspect:
		return e.Report().String()
	default:
		return "?" + strconv.Itoa(int(e.Kind))
	}
}
