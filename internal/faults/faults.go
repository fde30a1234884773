// Package faults models the fault classes and fault injectors used
// throughout the reproduction.
//
// The paper's strategies hinge on *which class* of fault the environment
// produces: §3.2 discriminates transient from permanent/intermittent
// faults with an alpha-count filter; §3.3 reacts to time-varying
// disturbance levels. This package provides the taxonomy (Class, Effect),
// the stochastic models that generate faults over virtual time
// (Bernoulli, Gilbert–Elliott bursts, phase-scheduled campaigns), and a
// latch for permanent faults.
package faults

import (
	"fmt"

	"aft/internal/xrand"
)

// Class is the temporal behaviour of a fault, following the taxonomy of
// Bondavalli et al. (the paper's alpha-count reference): transient faults
// vanish on their own, intermittent faults recur, permanent faults
// persist until repair.
type Class int

// Fault classes.
const (
	Transient Class = iota + 1
	Intermittent
	Permanent
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Transient:
		return "transient"
	case Intermittent:
		return "intermittent"
	case Permanent:
		return "permanent"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Effect is the manifestation of a fault on the affected component. The
// single-event effects (SEU, SEL, SFI) are the SDRAM failure modes the
// paper's §3.1 cites from Ladbury (2002).
type Effect int

// Fault effects.
const (
	// BitFlip is a generic soft error flipping one stored bit (an SEU).
	BitFlip Effect = iota + 1
	// StuckAt permanently forces a bit to a fixed value.
	StuckAt
	// LatchUp is a single-event latch-up (SEL): loss of all data stored
	// on the affected chip.
	LatchUp
	// FunctionalInterrupt is a single-event functional interrupt (SFI):
	// the device halts or enters a test/undefined state and requires a
	// power reset to recover.
	FunctionalInterrupt
	// WrongValue is a computation producing an incorrect result (the
	// fault model of the voting experiments).
	WrongValue
	// Crash is a component stopping without producing output (the fault
	// model of the watchdog experiments).
	Crash
)

// String returns the effect name.
func (e Effect) String() string {
	switch e {
	case BitFlip:
		return "bit-flip (SEU)"
	case StuckAt:
		return "stuck-at"
	case LatchUp:
		return "latch-up (SEL)"
	case FunctionalInterrupt:
		return "functional interrupt (SFI)"
	case WrongValue:
		return "wrong value"
	case Crash:
		return "crash"
	default:
		return fmt.Sprintf("Effect(%d)", int(e))
	}
}

// Fault describes one injected fault.
type Fault struct {
	Class  Class
	Effect Effect
	Target string
}

// String renders the fault for transcripts.
func (f Fault) String() string {
	return fmt.Sprintf("%s %s on %s", f.Class, f.Effect, f.Target)
}

// Model generates fault strikes over virtual time. Step is called once
// per simulated time unit and reports whether a fault strikes during that
// unit. Models may be stateful; they must be deterministic given the
// provided generator.
type Model interface {
	Step(rng *xrand.Rand) bool
}

// Never is a Model that never strikes.
type Never struct{}

// Step implements Model.
func (Never) Step(*xrand.Rand) bool { return false }

// Always is a Model that strikes every step.
type Always struct{}

// Step implements Model.
func (Always) Step(*xrand.Rand) bool { return true }

// Bernoulli strikes independently each step with probability P.
type Bernoulli struct {
	P float64
}

// Step implements Model.
func (b Bernoulli) Step(rng *xrand.Rand) bool { return rng.Bool(b.P) }

// Burst is a two-state Gilbert–Elliott model: in the Good state faults
// strike with probability PGood, in the Bad state with probability PBad.
// Each step the state switches Good→Bad with probability GoodToBad and
// Bad→Good with probability BadToGood. This reproduces the bursty
// disturbance phases visible in the paper's Fig. 6.
type Burst struct {
	PGood, PBad          float64
	GoodToBad, BadToGood float64

	bad bool
}

// Step implements Model.
func (b *Burst) Step(rng *xrand.Rand) bool {
	if b.bad {
		if rng.Bool(b.BadToGood) {
			b.bad = false
		}
	} else {
		if rng.Bool(b.GoodToBad) {
			b.bad = true
		}
	}
	if b.bad {
		return rng.Bool(b.PBad)
	}
	return rng.Bool(b.PGood)
}

// InBadState reports whether the model is currently in its bursty state.
func (b *Burst) InBadState() bool { return b.bad }

// Phase is one segment of a scheduled campaign: from Start (inclusive)
// the campaign delegates to Model until the next phase begins.
type Phase struct {
	Start int64
	Model Model
}

// Campaign schedules different fault models over virtual time. It is the
// "simulated environmental changes" driver behind Fig. 6: quiet phases
// alternating with disturbance phases.
type Campaign struct {
	phases []Phase
	step   int64
}

// NewCampaign builds a campaign from phases, which must be sorted by
// ascending Start and begin at 0.
func NewCampaign(phases ...Phase) (*Campaign, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("faults: campaign needs at least one phase")
	}
	if phases[0].Start != 0 {
		return nil, fmt.Errorf("faults: first phase must start at 0, got %d", phases[0].Start)
	}
	for i := 1; i < len(phases); i++ {
		if phases[i].Start <= phases[i-1].Start {
			return nil, fmt.Errorf("faults: phases must have strictly increasing starts")
		}
	}
	ps := make([]Phase, len(phases))
	copy(ps, phases)
	return &Campaign{phases: ps}, nil
}

// Step implements Model, delegating to the phase active at the current
// internal step counter.
func (c *Campaign) Step(rng *xrand.Rand) bool {
	m := c.active()
	c.step++
	return m.Step(rng)
}

// Now reports the campaign's internal step counter.
func (c *Campaign) Now() int64 { return c.step }

func (c *Campaign) active() Model {
	cur := c.phases[0].Model
	for _, p := range c.phases[1:] {
		if c.step >= p.Start {
			cur = p.Model
		} else {
			break
		}
	}
	return cur
}

// Scripted strikes exactly at the listed step indices (0-based). It is
// meant for tests that need precise fault placement.
type Scripted struct {
	Strikes map[int64]bool

	step int64
}

// NewScripted builds a Scripted model striking at the given steps.
func NewScripted(steps ...int64) *Scripted {
	m := &Scripted{Strikes: make(map[int64]bool, len(steps))}
	for _, s := range steps {
		m.Strikes[s] = true
	}
	return m
}

// Step implements Model.
func (s *Scripted) Step(*xrand.Rand) bool {
	hit := s.Strikes[s.step]
	s.step++
	return hit
}

// Latch models a permanent fault: once tripped it stays tripped until
// Repair is called. Intermittent behaviour is modelled by tripping with a
// recurrence model while latched=false.
type Latch struct {
	tripped bool
}

// Trip latches the fault.
func (l *Latch) Trip() { l.tripped = true }

// Repair clears the fault.
func (l *Latch) Repair() { l.tripped = false }

// Tripped reports whether the fault is latched.
func (l *Latch) Tripped() bool { return l.tripped }

// ClassMix draws fault classes with the given probabilities, which must
// sum to at most 1; the remainder is Transient. Call Validate before
// the first Draw: a mix whose probabilities are negative or sum past 1
// silently skews Draw (a negative PPermanent can never fire; a sum
// past 1 starves Transient entirely).
type ClassMix struct {
	PIntermittent float64
	PPermanent    float64
}

// Validate rejects mixes Draw cannot sample faithfully: each
// probability must lie in [0,1] and together they must sum to at most
// 1, so the Transient remainder is never negative.
func (m ClassMix) Validate() error {
	if m.PIntermittent < 0 || m.PIntermittent > 1 {
		return fmt.Errorf("faults: intermittent probability %v outside [0,1]", m.PIntermittent)
	}
	if m.PPermanent < 0 || m.PPermanent > 1 {
		return fmt.Errorf("faults: permanent probability %v outside [0,1]", m.PPermanent)
	}
	if sum := m.PIntermittent + m.PPermanent; sum > 1 {
		return fmt.Errorf("faults: class probabilities sum to %v, must be at most 1", sum)
	}
	return nil
}

// Draw samples a fault class.
func (m ClassMix) Draw(rng *xrand.Rand) Class {
	u := rng.Float64()
	switch {
	case u < m.PPermanent:
		return Permanent
	case u < m.PPermanent+m.PIntermittent:
		return Intermittent
	default:
		return Transient
	}
}
