package sim

import (
	"errors"
	"fmt"

	"repro/internal/adversary"
	"repro/internal/fd"
	"repro/internal/model"
)

// Protocol is the behaviour of one process.  The simulator invokes the
// handlers; all interaction with the outside world goes through the Context.
// Handlers must be deterministic functions of the process's state and the
// handler arguments.
type Protocol interface {
	// Init is called once at time 0.
	Init(ctx Context)
	// OnInitiate is called when the workload initiates coordination action a
	// at this process (the init event has already been recorded).
	OnInitiate(ctx Context, a model.ActionID)
	// OnMessage is called when a message is delivered (the recv event has
	// already been recorded).
	OnMessage(ctx Context, from model.ProcID, msg model.Message)
	// OnSuspect is called when the failure detector emits a report (the
	// suspect event has already been recorded).
	OnSuspect(ctx Context, rep model.SuspectReport)
	// OnTick is called periodically (every Config.TickEvery steps) and is the
	// place for retransmissions.
	OnTick(ctx Context)
}

// ProtocolFactory builds the protocol instance for one process.
type ProtocolFactory func(id model.ProcID, n int) Protocol

// Context is the interface through which a protocol instance acts.
type Context interface {
	// ID returns this process's identifier.
	ID() model.ProcID
	// N returns the number of processes.
	N() int
	// Now returns the current global time.
	Now() int
	// Send sends msg to process to (recording a send event).
	Send(to model.ProcID, msg model.Message)
	// Broadcast sends msg to every other process.
	Broadcast(msg model.Message)
	// Do performs coordination action a (recording a do event).  Repeated
	// calls for the same action are idempotent.
	Do(a model.ActionID)
	// HasDone reports whether this process has already performed a.
	HasDone(a model.ActionID) bool
	// Initiations returns the number of initiations in the run's workload,
	// which bounds the coordination actions a process can learn of.
	Initiations() int
}

// NetworkConfig describes the channel behaviour.
type NetworkConfig struct {
	// Reliable channels never drop messages.  When false, channels are
	// fair-lossy.
	Reliable bool
	// DropProbability is the per-message drop probability on fair-lossy
	// channels.
	DropProbability float64
	// MaxDelay is the maximum extra delivery delay in steps (the minimum
	// delay is one step).
	MaxDelay int
	// FairnessBound caps the number of consecutive drops of the same message
	// (same sender, receiver and content) before a delivery is forced,
	// realising fairness condition R5 on finite traces.  Zero means 8.
	FairnessBound int
}

// ReliableNetwork returns a reliable-channel configuration with small random
// delays.
func ReliableNetwork() NetworkConfig {
	return NetworkConfig{Reliable: true, MaxDelay: 3}
}

// FairLossyNetwork returns an unreliable-but-fair configuration with the given
// drop probability.
func FairLossyNetwork(dropProbability float64) NetworkConfig {
	return NetworkConfig{DropProbability: dropProbability, MaxDelay: 5, FairnessBound: 8}
}

// Initiation schedules init_p(a) at a global time.
type Initiation struct {
	Time   int
	Proc   model.ProcID
	Action model.ActionID
}

// CrashEvent schedules the crash of a process at a global time.
type CrashEvent struct {
	Time int
	Proc model.ProcID
}

// Config fully describes a simulation.
type Config struct {
	// N is the number of processes (1..model.MaxProcs).
	N int
	// Seed drives all randomness in the simulation.
	Seed int64
	// MaxSteps is the horizon of the run.
	MaxSteps int
	// TickEvery is the period of OnTick callbacks.  Zero means 1.
	TickEvery int
	// SuspectEvery is the period of failure-detector queries.  Zero means 1.
	SuspectEvery int
	// Network is the channel behaviour.
	Network NetworkConfig
	// Shaper lets an adversary shape per-link delivery (drops, extra delay,
	// duplicate copies) on top of Network's base loss model; nil means no
	// shaping.  Shaper drops share the fairness accounting of condition R5
	// with the base loss model, so shaped channels remain fair-lossy.
	Shaper adversary.ChannelShaper
	// Crashes is the failure pattern of the run.
	Crashes []CrashEvent
	// Initiations is the workload.
	Initiations []Initiation
	// Protocol builds each process's behaviour.
	Protocol ProtocolFactory
	// Oracle is the failure detector; nil means no failure detector.
	Oracle fd.Oracle
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.N <= 0 || c.N > model.MaxProcs {
		return fmt.Errorf("config: N=%d out of range [1,%d]", c.N, model.MaxProcs)
	}
	if c.MaxSteps <= 0 {
		return errors.New("config: MaxSteps must be positive")
	}
	if c.Protocol == nil {
		return errors.New("config: Protocol factory is required")
	}
	if c.Network.DropProbability < 0 || c.Network.DropProbability >= 1 {
		return fmt.Errorf("config: DropProbability %v out of range [0,1)", c.Network.DropProbability)
	}
	for _, cr := range c.Crashes {
		if int(cr.Proc) < 0 || int(cr.Proc) >= c.N {
			return fmt.Errorf("config: crash of process %d out of range", cr.Proc)
		}
	}
	for _, in := range c.Initiations {
		if int(in.Proc) < 0 || int(in.Proc) >= c.N {
			return fmt.Errorf("config: initiation at process %d out of range", in.Proc)
		}
		if in.Action.Initiator != in.Proc {
			return fmt.Errorf("config: action %v may only be initiated by process %d", in.Action, in.Action.Initiator)
		}
	}
	return nil
}

// Stats aggregates counters from a simulation.
type Stats struct {
	Steps             int
	MessagesSent      int
	MessagesDelivered int
	MessagesDropped   int
	MessagesToCrashed int
	// MessagesDuplicated counts the extra copies injected by a channel
	// shaper (each also counts as delivered or to-crashed on arrival).
	MessagesDuplicated int
	DoEvents           int
	InitEvents         int
	SuspectEvents      int
	CrashEvents        int
	// LastEventTime is the time of the last recorded event, a cheap
	// quiescence indicator.
	LastEventTime int
}

// Result is the outcome of a simulation.
type Result struct {
	Run   *model.Run
	Stats Stats
}
