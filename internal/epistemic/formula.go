package epistemic

import (
	"strings"

	"repro/internal/model"
)

// Formula is a formula of the logic of Section 2.3: primitive propositions
// closed under Boolean combinations, the temporal operators Box and Diamond,
// and the epistemic operators K_p.
type Formula interface {
	// Eval reports whether the formula holds at the given point of the
	// system.
	Eval(sys *System, pt Point) bool
	// String renders the formula for diagnostics.
	String() string
}

// Prop is a primitive proposition whose truth is determined by the cut, i.e.
// by the run and the time.
type Prop struct {
	Name  string
	Holds func(r *model.Run, m int) bool
}

// Eval implements Formula.
func (p Prop) Eval(sys *System, pt Point) bool { return p.Holds(sys.RunAt(pt.Run), pt.Time) }

// String implements Formula.
func (p Prop) String() string { return p.Name }

// True is the formula that always holds.
func True() Formula { return Prop{Name: "true", Holds: func(*model.Run, int) bool { return true }} }

// False is the formula that never holds.
func False() Formula { return Prop{Name: "false", Holds: func(*model.Run, int) bool { return false }} }

// Crashed is the primitive proposition crash(q).
func Crashed(q model.ProcID) Formula {
	return Prop{
		Name:  "crash(" + itoa(int(q)) + ")",
		Holds: func(r *model.Run, m int) bool { return r.CrashedBy(q, m) },
	}
}

// Initiated is the primitive proposition init_p(a).
func Initiated(a model.ActionID) Formula {
	return Prop{
		Name: "init(" + a.String() + ")",
		Holds: func(r *model.Run, m int) bool {
			t, ok := r.InitTime(a)
			return ok && t <= m
		},
	}
}

// Did is the primitive proposition do_p(a).
func Did(p model.ProcID, a model.ActionID) Formula {
	return Prop{
		Name: "do_" + itoa(int(p)) + "(" + a.String() + ")",
		Holds: func(r *model.Run, m int) bool {
			t, ok := r.DoTime(p, a)
			return ok && t <= m
		},
	}
}

// Sent is the primitive proposition send_p(q, msg-kind): p has sent a message
// of the given kind to q.
func Sent(p, q model.ProcID, kind model.MsgKind) Formula {
	return Prop{
		Name: "send_" + itoa(int(p)) + "(" + itoa(int(q)) + "," + kind.String() + ")",
		Holds: func(r *model.Run, m int) bool {
			return r.HistoryAt(p, m).Contains(func(e model.Event) bool {
				return e.Kind == model.EventSend && e.Peer == q && e.MsgKind() == kind
			})
		},
	}
}

// Received is the primitive proposition recv_p(q, msg-kind): p has received a
// message of the given kind from q.
func Received(p, q model.ProcID, kind model.MsgKind) Formula {
	return Prop{
		Name: "recv_" + itoa(int(p)) + "(" + itoa(int(q)) + "," + kind.String() + ")",
		Holds: func(r *model.Run, m int) bool {
			return r.HistoryAt(p, m).Contains(func(e model.Event) bool {
				return e.Kind == model.EventRecv && e.Peer == q && e.MsgKind() == kind
			})
		},
	}
}

// NotF is the negation of a formula.
type NotF struct{ F Formula }

// Not negates a formula.
func Not(f Formula) Formula { return NotF{F: f} }

// Eval implements Formula.
func (n NotF) Eval(sys *System, pt Point) bool { return !n.F.Eval(sys, pt) }

// String implements Formula.
func (n NotF) String() string { return "~" + n.F.String() }

// AndF is a conjunction.
type AndF struct{ Fs []Formula }

// And conjoins formulas.
func And(fs ...Formula) Formula { return AndF{Fs: fs} }

// Eval implements Formula.
func (a AndF) Eval(sys *System, pt Point) bool {
	for _, f := range a.Fs {
		if !f.Eval(sys, pt) {
			return false
		}
	}
	return true
}

// String implements Formula.
func (a AndF) String() string { return joinFormulas(a.Fs, " & ") }

// OrF is a disjunction.
type OrF struct{ Fs []Formula }

// Or disjoins formulas.
func Or(fs ...Formula) Formula { return OrF{Fs: fs} }

// Eval implements Formula.
func (o OrF) Eval(sys *System, pt Point) bool {
	for _, f := range o.Fs {
		if f.Eval(sys, pt) {
			return true
		}
	}
	return false
}

// String implements Formula.
func (o OrF) String() string { return joinFormulas(o.Fs, " | ") }

// ImpliesF is a material implication.
type ImpliesF struct{ A, B Formula }

// Implies builds A => B.
func Implies(a, b Formula) Formula { return ImpliesF{A: a, B: b} }

// Eval implements Formula.
func (i ImpliesF) Eval(sys *System, pt Point) bool {
	return !i.A.Eval(sys, pt) || i.B.Eval(sys, pt)
}

// String implements Formula.
func (i ImpliesF) String() string { return "(" + i.A.String() + " => " + i.B.String() + ")" }

// AlwaysF is the temporal operator Box: the formula holds from this point on
// (up to the run's horizon).
type AlwaysF struct{ F Formula }

// Always builds Box f.
func Always(f Formula) Formula { return AlwaysF{F: f} }

// Eval implements Formula.
func (a AlwaysF) Eval(sys *System, pt Point) bool {
	r := sys.RunAt(pt.Run)
	for m := pt.Time; m <= r.Horizon; m++ {
		if !a.F.Eval(sys, Point{Run: pt.Run, Time: m}) {
			return false
		}
	}
	return true
}

// String implements Formula.
func (a AlwaysF) String() string { return "[]" + a.F.String() }

// EventuallyF is the temporal operator Diamond: the formula holds at some
// point from now to the run's horizon.
type EventuallyF struct{ F Formula }

// Eventually builds Diamond f.
func Eventually(f Formula) Formula { return EventuallyF{F: f} }

// Eval implements Formula.
func (e EventuallyF) Eval(sys *System, pt Point) bool {
	r := sys.RunAt(pt.Run)
	for m := pt.Time; m <= r.Horizon; m++ {
		if e.F.Eval(sys, Point{Run: pt.Run, Time: m}) {
			return true
		}
	}
	return false
}

// String implements Formula.
func (e EventuallyF) String() string { return "<>" + e.F.String() }

// DistributedKnowsF is the distributed-knowledge operator D_S: the formula
// holds at every point that all the processes in S simultaneously consider
// possible.  The paper appeals to distributed knowledge in footnote 4 when
// discussing assumption A4 (conditions (a) and (c) there say the processes in
// S do not have distributed knowledge of the formula).
type DistributedKnowsF struct {
	Procs model.ProcSet
	F     Formula
}

// DistributedKnows builds D_S f.
func DistributedKnows(procs model.ProcSet, f Formula) Formula {
	return DistributedKnowsF{Procs: procs, F: f}
}

// Eval implements Formula.
func (d DistributedKnowsF) Eval(sys *System, pt Point) bool {
	holds := true
	sys.forEachGroupIndistinguishable(d.Procs, pt, func(other Point) bool {
		if !d.F.Eval(sys, other) {
			holds = false
			return false
		}
		return true
	})
	return holds
}

// String implements Formula.
func (d DistributedKnowsF) String() string {
	return "D_" + d.Procs.String() + "(" + d.F.String() + ")"
}

// KnowsF is the epistemic operator K_p.
type KnowsF struct {
	P model.ProcID
	F Formula
}

// Knows builds K_p f.
func Knows(p model.ProcID, f Formula) Formula { return KnowsF{P: p, F: f} }

// Eval implements Formula.
func (k KnowsF) Eval(sys *System, pt Point) bool {
	holds := true
	sys.forEachIndistinguishable(k.P, pt, func(other Point) bool {
		if !k.F.Eval(sys, other) {
			holds = false
			return false
		}
		return true
	})
	return holds
}

// String implements Formula.
func (k KnowsF) String() string { return "K_" + itoa(int(k.P)) + "(" + k.F.String() + ")" }

func joinFormulas(fs []Formula, sep string) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.String()
	}
	return "(" + strings.Join(parts, sep) + ")"
}

func itoa(v int) string {
	// Small helper to avoid importing strconv in every file.
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
