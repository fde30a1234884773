// Package scenario is the deterministic cross-strategy chaos harness:
// scripted fault-injection campaigns composed from internal/faults
// models, driven on internal/simclock, hitting the three strategy
// implementations at once — the §3.3 redundancy organ (a voting.Farm
// behind a redundancy.Switchboard the runner builds and steps itself),
// a §3.2 accada.AdaptiveExecutor, and watchdog timers.
//
// A Scenario is a declarative, JSON-serializable spec: named phases of
// fault campaigns, each phase steering a stochastic model (Bernoulli,
// Gilbert–Elliott bursts, scripted strikes) at any combination of the
// targets — replica corruption, executor upsets, a permanent-fault
// latch, heartbeat suppression. The Runner executes a spec from a seed
// and emits a canonical, byte-stable event transcript (trace-backed);
// the golden-transcript tests commit one transcript per builtin
// scenario and replay them on every run. Invariant checkers evaluate
// the paper's safety properties every simulated step, and the
// differential mode replays each scenario's organ track on two
// switchboards, one on the fused engine's reusable-buffer voting path
// and one on the reference loop's heap-ballot path, asserting they
// agree round for round.
package scenario

import (
	"encoding/json"
	"fmt"
	"os"

	"aft/internal/faults"
	"aft/internal/redundancy"
)

// ModelSpec declares a fault model from internal/faults in a
// serializable form, so scenario files can be loaded from disk by
// cmd/aft-chaos. Exactly the fields for the chosen Kind are consulted.
type ModelSpec struct {
	// Kind is one of "never", "always", "bernoulli", "burst",
	// "scripted".
	Kind string `json:"kind"`
	// P is the per-step strike probability (bernoulli).
	P float64 `json:"p,omitempty"`
	// PGood/PBad/GoodToBad/BadToGood parameterize the Gilbert–Elliott
	// burst model.
	PGood     float64 `json:"p_good,omitempty"`
	PBad      float64 `json:"p_bad,omitempty"`
	GoodToBad float64 `json:"good_to_bad,omitempty"`
	BadToGood float64 `json:"bad_to_good,omitempty"`
	// Strikes are phase-relative step indices (scripted): strike i
	// fires on the i-th step the phase is active, counting from 0.
	Strikes []int64 `json:"strikes,omitempty"`
}

// Build constructs the fault model. Models are stateful; build one per
// run.
func (m ModelSpec) Build() (faults.Model, error) {
	switch m.Kind {
	case "never":
		return faults.Never{}, nil
	case "always":
		return faults.Always{}, nil
	case "bernoulli":
		if m.P < 0 || m.P > 1 {
			return nil, fmt.Errorf("scenario: bernoulli p %v outside [0,1]", m.P)
		}
		return faults.Bernoulli{P: m.P}, nil
	case "burst":
		for _, p := range []float64{m.PGood, m.PBad, m.GoodToBad, m.BadToGood} {
			if p < 0 || p > 1 {
				return nil, fmt.Errorf("scenario: burst probability %v outside [0,1]", p)
			}
		}
		return &faults.Burst{
			PGood: m.PGood, PBad: m.PBad,
			GoodToBad: m.GoodToBad, BadToGood: m.BadToGood,
		}, nil
	case "scripted":
		for _, st := range m.Strikes {
			if st < 0 {
				return nil, fmt.Errorf("scenario: scripted strike %d is negative and can never fire", st)
			}
		}
		return faults.NewScripted(m.Strikes...), nil
	default:
		return nil, fmt.Errorf("scenario: unknown model kind %q", m.Kind)
	}
}

// Phase is one segment of the campaign: from Start (a simulated step,
// inclusive) the phase's model is stepped once per simulated step until
// the next phase begins, and each strike is applied to the phase's
// targets. Only the active phase's model advances, so scripted strike
// indices are phase-relative.
type Phase struct {
	// Name labels the phase in transcripts.
	Name string `json:"name"`
	// Start is the simulated step at which the phase becomes active.
	Start int64 `json:"start"`
	// Model generates the phase's strikes.
	Model ModelSpec `json:"model"`
	// Corrupt is the number of organ replicas a strike corrupts this
	// step (0: the phase does not touch the organ).
	Corrupt int `json:"corrupt,omitempty"`
	// Upset makes a strike fail the executor's active version for the
	// whole step (transient/intermittent faults).
	Upset bool `json:"upset,omitempty"`
	// Latch makes a strike trip the permanent-fault latch: the
	// executor's primary version fails on every later step, with no
	// repair.
	Latch bool `json:"latch,omitempty"`
	// Crash suppresses the watched tasks' heartbeats on every step the
	// model strikes (watchdog target).
	Crash bool `json:"crash,omitempty"`
	// Collude makes the Corrupt replicas a colluding (Byzantine) group
	// on every strike: instead of failing independently with distinct
	// wrong values, they all vote one shared wrong value — the worst
	// case for majority voting. Only meaningful with Corrupt > 0.
	Collude bool `json:"collude,omitempty"`
	// Partition severs the organ↔controller message link on every step
	// the model strikes: the voting round still runs, but its outcome
	// never reaches the redundancy controller and no resize can be
	// issued that step (message-loss fault model).
	Partition bool `json:"partition,omitempty"`
	// Skew runs the watchdogs' local clocks this many steps ahead on
	// every step the model strikes: heartbeats age prematurely, and a
	// skew past a watchdog's deadline slack fires it on a healthy task.
	Skew int64 `json:"skew,omitempty"`
}

// WatchdogSpec declares one watchdog timer observing the scenario's
// simulated task.
type WatchdogSpec struct {
	Name string `json:"name"`
	// Interval is the period between checks, Deadline the tolerated
	// silence, both in simulated steps.
	Interval int64 `json:"interval"`
	Deadline int64 `json:"deadline"`
}

// ExecutorSpec declares the §3.2 adaptive-executor target. The
// alpha-count oracle runs the paper's Fig. 4 configuration
// (alphacount.DefaultConfig).
type ExecutorSpec struct {
	// Spares is the number of spare versions behind the primary.
	Spares int `json:"spares"`
	// MaxRetries bounds the redoing regime's retries per invocation.
	MaxRetries int `json:"max_retries"`
}

// Attack kinds for ReplaySpec.
const (
	// AttackReplay re-sends a correctly signed resize request with a
	// stale nonce (a captured legitimate message played back).
	AttackReplay = "replay"
	// AttackForge sends a resize request signed with the wrong key.
	AttackForge = "forge"
	// AttackOutOfBand sends a correctly signed, fresh-nonce request for
	// a dimensioning outside the policy band.
	AttackOutOfBand = "out-of-band"
)

// ReplaySpec injects one adversarial resize message into the organ's
// switchboard at the given simulated step. Every attack must be
// rejected; an accepted attack shows up as a transcript difference and
// a nonce/band invariant violation.
type ReplaySpec struct {
	At   int64  `json:"at"`
	Kind string `json:"kind"`
}

// Spec is a complete scenario.
type Spec struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	// Seed is the default seed; runners may override it.
	Seed uint64 `json:"seed"`
	// Horizon is the number of simulated steps (one voting round, one
	// executor invocation, one heartbeat opportunity per step).
	Horizon int64 `json:"horizon"`
	// Organ enables the §3.3 redundancy target with this policy.
	Organ bool `json:"organ"`
	// Policy is the switchboard policy (zero value: DefaultPolicy).
	Policy redundancy.Policy `json:"policy"`
	// TeardownAt, when positive, tears the voting farm down at that
	// step: no voting round may run at or after it.
	TeardownAt int64 `json:"teardown_at,omitempty"`
	// Executor enables the §3.2 adaptive-executor target.
	Executor *ExecutorSpec `json:"executor,omitempty"`
	// Watchdogs are the watchdog-timer targets.
	Watchdogs []WatchdogSpec `json:"watchdogs,omitempty"`
	// Phases is the fault campaign; the first phase must start at 0 and
	// starts must be strictly increasing.
	Phases []Phase `json:"phases"`
	// Replays are adversarial resize injections (organ scenarios only).
	Replays []ReplaySpec `json:"replays,omitempty"`
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: empty name")
	}
	if s.Horizon <= 0 {
		return fmt.Errorf("scenario: horizon %d must be positive", s.Horizon)
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("scenario: at least one phase required")
	}
	if s.Phases[0].Start != 0 {
		return fmt.Errorf("scenario: first phase must start at 0, got %d", s.Phases[0].Start)
	}
	for i, p := range s.Phases {
		if i > 0 && p.Start <= s.Phases[i-1].Start {
			return fmt.Errorf("scenario: phase %q start %d does not increase", p.Name, p.Start)
		}
		if p.Corrupt < 0 {
			return fmt.Errorf("scenario: phase %q negative corrupt %d", p.Name, p.Corrupt)
		}
		if p.Skew < 0 {
			return fmt.Errorf("scenario: phase %q negative skew %d", p.Name, p.Skew)
		}
		if p.Collude && p.Corrupt == 0 {
			return fmt.Errorf("scenario: phase %q colludes but corrupts no replicas", p.Name)
		}
		if _, err := p.Model.Build(); err != nil {
			return fmt.Errorf("phase %q: %w", p.Name, err)
		}
		if p.Model.Kind == "scripted" {
			for _, st := range p.Model.Strikes {
				if p.Start+st >= s.Horizon {
					return fmt.Errorf("scenario: phase %q scripted strike %d lands at step %d, at or beyond horizon %d, and can never fire",
						p.Name, st, p.Start+st, s.Horizon)
				}
			}
		}
		if (p.Corrupt > 0 || p.Upset || p.Latch || p.Crash || p.Partition || p.Skew > 0) == false &&
			p.Model.Kind != "never" {
			return fmt.Errorf("scenario: phase %q has a striking model but no target", p.Name)
		}
	}
	if s.Organ {
		if err := s.Policy.Validate(); err != nil {
			return err
		}
	} else {
		for _, p := range s.Phases {
			if p.Corrupt > 0 {
				return fmt.Errorf("scenario: phase %q corrupts replicas but the organ is disabled", p.Name)
			}
			if p.Partition {
				return fmt.Errorf("scenario: phase %q partitions the organ link but the organ is disabled", p.Name)
			}
		}
		if len(s.Replays) > 0 {
			return fmt.Errorf("scenario: replay attacks need the organ enabled")
		}
		if s.TeardownAt > 0 {
			return fmt.Errorf("scenario: teardown needs the organ enabled")
		}
	}
	if s.TeardownAt < 0 || s.TeardownAt > s.Horizon {
		return fmt.Errorf("scenario: teardown step %d outside [0, horizon] (0 disables teardown)", s.TeardownAt)
	}
	if s.Executor != nil {
		if s.Executor.Spares < 0 || s.Executor.MaxRetries < 0 {
			return fmt.Errorf("scenario: negative executor spares or retries")
		}
	} else {
		for _, p := range s.Phases {
			if p.Upset || p.Latch {
				return fmt.Errorf("scenario: phase %q upsets the executor but none is declared", p.Name)
			}
		}
	}
	if len(s.Watchdogs) == 0 {
		for _, p := range s.Phases {
			if p.Crash {
				return fmt.Errorf("scenario: phase %q crashes the task but no watchdog is declared", p.Name)
			}
			if p.Skew > 0 {
				return fmt.Errorf("scenario: phase %q skews the watchdog clocks but no watchdog is declared", p.Name)
			}
		}
	}
	for _, w := range s.Watchdogs {
		if w.Name == "" || w.Interval <= 0 || w.Deadline <= 0 {
			return fmt.Errorf("scenario: watchdog %+v needs a name and positive interval/deadline", w)
		}
	}
	for _, r := range s.Replays {
		if r.At < 0 || r.At >= s.Horizon {
			return fmt.Errorf("scenario: replay at %d outside [0, horizon)", r.At)
		}
		switch r.Kind {
		case AttackReplay, AttackForge, AttackOutOfBand:
		default:
			return fmt.Errorf("scenario: unknown attack kind %q", r.Kind)
		}
	}
	return nil
}

// OrganRounds reports how many voting rounds the organ runs: the
// horizon, cut short by a teardown.
func (s Spec) OrganRounds() int64 {
	if !s.Organ {
		return 0
	}
	if s.TeardownAt > 0 && s.TeardownAt < s.Horizon {
		return s.TeardownAt
	}
	return s.Horizon
}

// Load reads a scenario spec from a JSON file.
func Load(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return Spec{}, fmt.Errorf("scenario: parse %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Encode renders the spec as indented JSON, the format Load accepts.
func (s Spec) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// --- Builtin scenarios -------------------------------------------------

// Builtin returns the committed scenario with the given name.
func Builtin(name string) (Spec, bool) {
	for _, s := range Builtins() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// Names lists the builtin scenario names in suite order — the same
// increasing-adversity progression Builtins returns.
func Names() []string {
	specs := Builtins()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// Builtins returns the committed scenario suite, in increasing
// adversity: quiet baseline, transient bursts, intermittent flapping,
// a permanent-fault latch, a ramping storm, storm plus resize-replay
// attack, a watchdog-expiry cascade, and a mid-run farm teardown. Each
// has a committed golden transcript under testdata/golden.
func Builtins() []Spec {
	defaultExec := &ExecutorSpec{Spares: 2, MaxRetries: 2}
	defaultDogs := []WatchdogSpec{{Name: "wd-fast", Interval: 5, Deadline: 10}}
	quiet := func(name string, start int64) Phase {
		return Phase{Name: name, Start: start, Model: ModelSpec{Kind: "never"}}
	}
	return []Spec{
		{
			Name:        "quiet",
			Description: "no faults at all: the organ idles at minimal redundancy, the executor never retries, the watchdog never fires",
			Seed:        1906,
			Horizon:     4000,
			Organ:       true,
			Policy:      redundancy.DefaultPolicy(),
			Executor:    defaultExec,
			Watchdogs:   defaultDogs,
			Phases:      []Phase{quiet("calm", 0)},
		},
		{
			Name:        "transient-burst",
			Description: "a single window of independent transient faults: single-replica corruption plus executor upsets, then calm again",
			Seed:        1906,
			Horizon:     6000,
			Organ:       true,
			Policy:      redundancy.DefaultPolicy(),
			Executor:    defaultExec,
			Watchdogs:   defaultDogs,
			Phases: []Phase{
				quiet("calm", 0),
				{Name: "burst", Start: 1000, Model: ModelSpec{Kind: "bernoulli", P: 0.3},
					Corrupt: 1, Upset: true},
				quiet("aftermath", 2000),
			},
		},
		{
			Name:        "flapping",
			Description: "Gilbert–Elliott intermittent faults: bursty upsets flap the alpha-count verdict while the organ absorbs single corruptions",
			Seed:        1906,
			Horizon:     8000,
			Organ:       true,
			Policy:      redundancy.DefaultPolicy(),
			Executor:    defaultExec,
			Watchdogs:   defaultDogs,
			Phases: []Phase{
				quiet("calm", 0),
				{Name: "flap", Start: 500,
					Model: ModelSpec{Kind: "burst", PGood: 0.01, PBad: 0.8,
						GoodToBad: 0.005, BadToGood: 0.02},
					Corrupt: 1, Upset: true},
				quiet("aftermath", 6000),
			},
		},
		{
			Name:        "permanent-latch",
			Description: "one scripted strike trips the permanent-fault latch: redoing livelocks, the verdict turns permanent, reconfiguration moves to a spare",
			Seed:        1906,
			Horizon:     5000,
			Organ:       true,
			Policy:      redundancy.DefaultPolicy(),
			Executor:    defaultExec,
			Watchdogs:   defaultDogs,
			Phases: []Phase{
				quiet("calm", 0),
				{Name: "latch", Start: 1500,
					Model: ModelSpec{Kind: "scripted", Strikes: []int64{0}}, Latch: true},
			},
		},
		{
			Name:        "storm-ramp",
			Description: "a ramping disturbance storm: corruption intensity climbs 1..4 replicas, the controller raises to the band ceiling, then quiet decay lowers it back",
			Seed:        1906,
			Horizon:     9000,
			Organ:       true,
			Policy:      redundancy.DefaultPolicy(),
			Executor:    defaultExec,
			Watchdogs:   defaultDogs,
			Phases: []Phase{
				quiet("calm", 0),
				{Name: "level-1", Start: 1000, Model: ModelSpec{Kind: "bernoulli", P: 0.5}, Corrupt: 1},
				{Name: "level-2", Start: 1400, Model: ModelSpec{Kind: "bernoulli", P: 0.5}, Corrupt: 2},
				{Name: "level-3", Start: 1800, Model: ModelSpec{Kind: "bernoulli", P: 0.5}, Corrupt: 3},
				{Name: "level-4", Start: 2200, Model: ModelSpec{Kind: "bernoulli", P: 0.5}, Corrupt: 4},
				quiet("decay", 2600),
			},
		},
		{
			Name:        "storm-replay",
			Description: "the storm ramp with an adversary on the resize channel: a replayed stale nonce, a forged MAC, and an out-of-band dimensioning, all rejected",
			Seed:        1906,
			Horizon:     9000,
			Organ:       true,
			Policy:      redundancy.DefaultPolicy(),
			Executor:    defaultExec,
			Watchdogs:   defaultDogs,
			Phases: []Phase{
				quiet("calm", 0),
				{Name: "level-1", Start: 1000, Model: ModelSpec{Kind: "bernoulli", P: 0.5}, Corrupt: 1},
				{Name: "level-2", Start: 1400, Model: ModelSpec{Kind: "bernoulli", P: 0.5}, Corrupt: 2},
				{Name: "level-3", Start: 1800, Model: ModelSpec{Kind: "bernoulli", P: 0.5}, Corrupt: 3},
				quiet("decay", 2200),
			},
			Replays: []ReplaySpec{
				{At: 2500, Kind: AttackReplay},
				{At: 2600, Kind: AttackForge},
				{At: 4200, Kind: AttackOutOfBand},
				{At: 6000, Kind: AttackReplay},
			},
		},
		{
			Name:        "watchdog-cascade",
			Description: "two crash windows silence the heartbeats: three watchdogs with staggered deadlines expire in a cascade, then recover",
			Seed:        1906,
			Horizon:     5000,
			Organ:       true,
			Policy:      redundancy.DefaultPolicy(),
			Executor:    defaultExec,
			Watchdogs: []WatchdogSpec{
				{Name: "wd-fast", Interval: 5, Deadline: 10},
				{Name: "wd-mid", Interval: 20, Deadline: 60},
				{Name: "wd-slow", Interval: 50, Deadline: 200},
			},
			Phases: []Phase{
				quiet("calm", 0),
				{Name: "brown-out", Start: 2000, Model: ModelSpec{Kind: "always"}, Crash: true},
				quiet("recovery", 2100),
				{Name: "black-out", Start: 3000, Model: ModelSpec{Kind: "always"}, Crash: true},
				quiet("aftermath", 3400),
			},
		},
		{
			Name:        "teardown",
			Description: "a short storm, then the voting farm is torn down mid-run: no voting round may execute after teardown while the rest of the system lives on",
			Seed:        1906,
			Horizon:     4000,
			Organ:       true,
			Policy:      redundancy.DefaultPolicy(),
			TeardownAt:  3000,
			Executor:    defaultExec,
			Watchdogs:   defaultDogs,
			Phases: []Phase{
				quiet("calm", 0),
				{Name: "squall", Start: 1000, Model: ModelSpec{Kind: "bernoulli", P: 0.4}, Corrupt: 2},
				quiet("calm-again", 1300),
			},
		},
	}
}
