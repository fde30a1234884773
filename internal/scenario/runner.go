package scenario

import (
	"fmt"

	"aft/internal/accada"
	"aft/internal/alphacount"
	"aft/internal/faults"
	"aft/internal/ftpatterns"
	"aft/internal/redundancy"
	"aft/internal/simclock"
	"aft/internal/trace"
	"aft/internal/voting"
	"aft/internal/watchdog"
	"aft/internal/xrand"
)

// Options parameterize a run.
type Options struct {
	// Seed overrides the spec's default seed when non-zero.
	Seed uint64
	// Sabotage is a test-only hook that deliberately violates the named
	// invariant mid-run, proving the checkers and the CLI's non-zero
	// exit actually fire. See invariants.go for the recognized names.
	Sabotage string
}

// Result reports one completed run.
type Result struct {
	Spec Spec
	Seed uint64
	// Transcript is the canonical event transcript: byte-identical for
	// identical (spec, seed) pairs, the unit of the golden tests.
	Transcript string
	// Violations lists every invariant violation, in detection order.
	Violations []Violation
	// InvariantsChecked counts individual invariant evaluations.
	InvariantsChecked int64

	// Organ counters (zero when the organ is disabled).
	OrganRounds, OrganFailures int64
	Resizes, RejectedResizes   int64
	Raises, Lowers             int64
	FinalRedundancy            int
	// Executor counters (zero when no executor is declared).
	ExecInvocations, ExecFailures, ExecSwaps int64
	// WatchdogFires sums fires across all declared watchdogs.
	WatchdogFires int64
}

// program steps the spec's phase schedule: it selects the phase active
// at each simulated step and advances that phase's model. Both the
// Runner and the differential mode replay the same program from the
// same derived stream, so every organ they build sees the same fault
// track.
type program struct {
	phases []Phase
	models []faults.Model
	rng    *xrand.Rand
	idx    int
}

func newProgram(spec Spec, rng *xrand.Rand) (*program, error) {
	p := &program{phases: spec.Phases, rng: rng, models: make([]faults.Model, len(spec.Phases))}
	for i, ph := range spec.Phases {
		m, err := ph.Model.Build()
		if err != nil {
			return nil, err
		}
		p.models[i] = m
	}
	return p, nil
}

// step advances one simulated step, returning the active phase, its
// index, and whether its model strikes.
func (p *program) step(s int64) (Phase, int, bool) {
	for p.idx+1 < len(p.phases) && p.phases[p.idx+1].Start <= s {
		p.idx++
	}
	return p.phases[p.idx], p.idx, p.models[p.idx].Step(p.rng)
}

// organKey authenticates the organ's resize messages, its own and the
// replayed ones; transcripts do not depend on its value.
var organKey = []byte("scenario-organ-key")

// organ is the §3.3 redundancy organ a scenario drives: an
// identity-method voting farm behind a switchboard, and the stream the
// corrupted replicas draw their wrong values from.
type organ struct {
	sb   *redundancy.Switchboard
	crng *xrand.Rand
}

// newOrgan builds the organ for a run seed. Seeds are split per
// subsystem (xrand.Seeds), so the corrupt-value stream and the phase
// program's strike stream (programRng) are independent but both pure
// functions of the run seed.
func newOrgan(spec Spec, seed uint64) (*organ, error) {
	farm, err := voting.NewFarm(spec.Policy.Min, func(v uint64) uint64 { return v })
	if err != nil {
		return nil, err
	}
	sb, err := redundancy.NewSwitchboard(farm, spec.Policy, organKey)
	if err != nil {
		return nil, err
	}
	return &organ{sb: sb, crng: xrand.New(xrand.Seeds(seed, 2)[0]).Split()}, nil
}

// organFaults derives one round's organ faults from the active phase
// and whether its model struck: how many replicas are corrupted,
// whether they collude, and whether the control link is cut.
func organFaults(ph Phase, strike bool) (k int, collude, partitioned bool) {
	if !strike {
		return 0, false, false
	}
	return ph.Corrupt, ph.Collude && ph.Corrupt > 0, ph.Partition
}

// programRng derives the phase program's strike stream for a run seed.
func programRng(seed uint64) *xrand.Rand {
	return xrand.New(xrand.Seeds(seed, 2)[1])
}

type runner struct {
	spec  Spec
	seed  uint64
	rec   *trace.Recorder
	sched *simclock.Scheduler
	prog  *program

	// organ is nil when the spec disables it. organRounds and
	// organFailures count the rounds the tick chain ran, not the farm's
	// own counters, which a sabotage round after teardown also moves.
	*organ
	organRounds, organFailures int64
	torn                       bool

	latch faults.Latch
	exec  *accada.AdaptiveExecutor
	upset bool

	dogs []*watchdog.Watchdog

	inv      *invariants
	sabotage string

	replays   map[int64][]ReplaySpec
	prevPhase int
	prevRes   int64
}

// Run executes the scenario deterministically from its seed (or
// opt.Seed) and returns the transcript, counters, and any invariant
// violations. Two runs with the same spec and seed produce
// byte-identical transcripts.
func Run(spec Spec, opt Options) (*Result, error) {
	r, err := newRunner(spec, opt)
	if err != nil {
		return nil, err
	}
	r.schedule()
	// The watchdog check chains reschedule themselves indefinitely, so
	// the run is bounded by the horizon, not by queue exhaustion.
	r.sched.Run(simclock.Time(spec.Horizon))
	return r.result(), nil
}

// newRunner builds every subsystem of a run — program, organ,
// executor, watchdogs, invariants — without scheduling anything.
func newRunner(spec Spec, opt Options) (*runner, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	seed := spec.Seed
	if opt.Seed != 0 {
		seed = opt.Seed
	}
	r := &runner{
		spec:      spec,
		seed:      seed,
		rec:       trace.New(),
		sched:     simclock.New(),
		sabotage:  opt.Sabotage,
		prevPhase: -1,
		replays:   make(map[int64][]ReplaySpec),
	}
	if opt.Sabotage != "" {
		if err := validSabotage(spec, opt.Sabotage); err != nil {
			return nil, err
		}
	}
	for _, rp := range spec.Replays {
		r.replays[rp.At] = append(r.replays[rp.At], rp)
	}

	var err error
	if r.prog, err = newProgram(spec, programRng(seed)); err != nil {
		return nil, err
	}
	if spec.Organ {
		if r.organ, err = newOrgan(spec, seed); err != nil {
			return nil, err
		}
	}
	if spec.Executor != nil {
		if err = r.buildExecutor(); err != nil {
			return nil, err
		}
	}
	for _, w := range spec.Watchdogs {
		name := w.Name
		wd, err := watchdog.New(watchdog.Config{
			Interval: simclock.Time(w.Interval),
			Deadline: simclock.Time(w.Deadline),
		}, func(now simclock.Time) {
			r.rec.Record(int64(now), "fire", name, "silence past deadline")
		})
		if err != nil {
			return nil, err
		}
		r.dogs = append(r.dogs, wd)
	}
	r.inv = newInvariants(r)
	return r, nil
}

// schedule arms a fresh run at time zero: watchdog chains first, then
// the teardown event, then the tick chain. The push order fixes the
// execution order of same-time events (the scheduler orders by
// (time, sequence)).
func (r *runner) schedule() {
	for _, wd := range r.dogs {
		wd.Start(r.sched)
	}
	// The teardown event is scheduled before the tick chain starts, so
	// at the teardown step it runs first (same-time events execute in
	// schedule order — the property the simclock re-entrancy test
	// guards) and no voting round executes at or after it.
	if r.spec.TeardownAt > 0 {
		r.sched.At(simclock.Time(r.spec.TeardownAt), func(s *simclock.Scheduler) {
			r.torn = true
			r.inv.freezeRounds()
			r.rec.Record(int64(s.Now()), "teardown", "organ", "voting farm decommissioned")
		})
	}
	r.sched.At(0, r.tick)
}

// buildExecutor wires the §3.2 target: a primary that dies with the
// permanent latch, spares behind it, all upset-able by transient
// strikes, judged by the paper's default alpha-count oracle.
func (r *runner) buildExecutor() error {
	n := 1 + r.spec.Executor.Spares
	versions := make([]ftpatterns.Version, n)
	for i := range versions {
		i := i
		versions[i] = func() error {
			if r.upset {
				return ftpatterns.ErrVersionFault
			}
			if i == 0 && r.latch.Tripped() {
				return ftpatterns.ErrVersionFault
			}
			return nil
		}
	}
	exec, err := accada.NewAdaptiveExecutor(alphacount.DefaultConfig(), r.spec.Executor.MaxRetries, versions...)
	if err != nil {
		return err
	}
	exec.OnSwap(func(v alphacount.Verdict) {
		r.rec.Record(int64(r.sched.Now()), "swap", "executor", "verdict=%s", v)
	})
	r.exec = exec
	return nil
}

// tick evaluates one simulated step: phase bookkeeping, adversarial
// resize injections, one organ round, one executor invocation, one
// heartbeat opportunity, then the invariant sweep. The order is fixed,
// so transcripts are a pure function of (spec, seed).
func (r *runner) tick(s *simclock.Scheduler) {
	now := int64(s.Now())
	ph, idx, strike := r.prog.step(now)
	if idx != r.prevPhase {
		r.prevPhase = idx
		r.rec.Record(now, "phase", ph.Name, "model=%s%s", ph.Model.Kind, phaseTargets(ph))
	}
	r.upset = ph.Upset && strike
	if ph.Latch && strike && !r.latch.Tripped() {
		r.latch.Trip()
		r.inv.latched(now)
		r.rec.Record(now, "latch", "executor", "permanent fault latched on primary")
	}

	for _, rp := range r.replays[now] {
		r.inject(now, rp)
	}

	if r.organ != nil && !r.torn {
		k, collude, partitioned := organFaults(ph, strike)
		o, _ := r.sb.StepFaulty(uint64(r.organRounds), k, collude, partitioned, r.crng)
		r.organRounds++
		if res := r.sb.Resizes(); res != r.prevRes {
			r.prevRes = res
			r.rec.Record(now, "resize", "organ", "n=%d nonce=%d", r.sb.Farm().N(), r.sb.LastNonce())
		}
		if o.Failed() {
			r.organFailures++
			r.rec.Record(now, "vote-failed", "organ", "n=%d dissent=%d corrupted=%d", o.N, o.Dissent, k)
		}
	}

	if r.exec != nil {
		before := r.exec.Current()
		r.exec.Invoke()
		if cur := r.exec.Current(); cur != before {
			r.rec.Record(now, "spare", "executor", "reconfigured from version %d to %d", before, cur)
		}
	}

	if len(r.dogs) > 0 {
		var sk simclock.Time
		if ph.Skew > 0 && strike {
			sk = simclock.Time(ph.Skew)
		}
		for _, wd := range r.dogs {
			wd.SetSkew(sk)
		}
	}
	crash := ph.Crash && strike
	if !crash {
		for _, wd := range r.dogs {
			wd.Beat(s.Now())
		}
	}

	if r.sabotage != "" {
		r.applySabotage(now)
	}
	r.inv.check(now)

	if next := now + 1; next < r.spec.Horizon {
		s.After(1, r.tick)
	} else {
		r.finish()
	}
}

// inject delivers one adversarial resize message and records the
// switchboard's ruling. Every attack must be rejected; an acceptance is
// recorded loudly and will also trip the nonce or band invariant.
func (r *runner) inject(now int64, rp ReplaySpec) {
	req := r.craft(rp)
	if err := r.sb.Apply(req); err != nil {
		r.rec.Record(now, "attack", rp.Kind, "rejected: %v", err)
		return
	}
	r.rec.Record(now, "attack", rp.Kind, "ACCEPTED n=%d nonce=%d", req.NewN, req.Nonce)
}

// craft builds the adversarial request for an attack kind.
func (r *runner) craft(rp ReplaySpec) redundancy.ResizeRequest {
	last := r.sb.LastNonce()
	switch rp.Kind {
	case AttackForge:
		// Signed under the wrong key: fails authentication outright.
		return redundancy.SignResize([]byte("attacker-key"), r.spec.Policy.Min, redundancy.Lower, last+1)
	case AttackOutOfBand:
		// Correctly signed and fresh, but dimensioned past the policy
		// ceiling: rejected by the band check.
		return redundancy.SignResize(organKey, r.spec.Policy.Max+2, redundancy.Raise, last+1)
	default: // AttackReplay
		// A captured legitimate message played back: the signature
		// verifies, the stale nonce does not.
		return redundancy.SignResize(organKey, r.spec.Policy.Min, redundancy.Lower, last)
	}
}

// finish records the end-of-run summary at the horizon time. Summary
// lines are part of the canonical transcript, so every counter is under
// golden protection.
func (r *runner) finish() {
	for _, wd := range r.dogs {
		wd.Stop()
	}
	h := r.spec.Horizon
	r.rec.Record(h, "summary", "scenario", "name=%s seed=%d horizon=%d", r.spec.Name, r.seed, h)
	if r.organ != nil {
		raises, lowers := r.sb.Controller().Stats()
		r.rec.Record(h, "summary", "organ",
			"rounds=%d failures=%d resizes=%d rejected=%d raises=%d lowers=%d final-n=%d last-nonce=%d",
			r.organRounds, r.organFailures, r.sb.Resizes(), r.sb.Rejected(), raises, lowers,
			r.sb.Farm().N(), r.sb.LastNonce())
	}
	if r.exec != nil {
		inv, att, act, swaps, fails := r.exec.Stats()
		r.rec.Record(h, "summary", "executor",
			"invocations=%d attempts=%d activations=%d swaps=%d failures=%d current=%d verdict=%s",
			inv, att, act, swaps, fails, r.exec.Current(), r.exec.Verdict())
	}
	for i, wd := range r.dogs {
		r.rec.Record(h, "summary", r.spec.Watchdogs[i].Name, "beats=%d fires=%d", wd.Beats(), wd.Fires())
	}
	r.rec.Record(h, "summary", "invariants", "armed=%d checked=%d violations=%d",
		len(r.inv.armed), r.inv.checked, len(r.inv.violations))
}

// result folds the run into a Result.
func (r *runner) result() *Result {
	res := &Result{
		Spec:              r.spec,
		Seed:              r.seed,
		Transcript:        r.rec.Transcript(),
		Violations:        r.inv.violations,
		InvariantsChecked: r.inv.checked,
	}
	if r.organ != nil {
		res.OrganRounds = r.organRounds
		res.OrganFailures = r.organFailures
		res.Resizes = r.sb.Resizes()
		res.RejectedResizes = r.sb.Rejected()
		res.Raises, res.Lowers = r.sb.Controller().Stats()
		res.FinalRedundancy = r.sb.Farm().N()
	}
	if r.exec != nil {
		inv, _, _, swaps, fails := r.exec.Stats()
		res.ExecInvocations, res.ExecSwaps, res.ExecFailures = inv, swaps, fails
	}
	for _, wd := range r.dogs {
		res.WatchdogFires += wd.Fires()
	}
	return res
}

// phaseTargets renders a phase's target set for the transcript.
func phaseTargets(ph Phase) string {
	s := ""
	if ph.Corrupt > 0 {
		s += fmt.Sprintf(" corrupt=%d", ph.Corrupt)
	}
	if ph.Upset {
		s += " upset"
	}
	if ph.Latch {
		s += " latch"
	}
	if ph.Crash {
		s += " crash"
	}
	if ph.Collude {
		s += " collude"
	}
	if ph.Partition {
		s += " partition"
	}
	if ph.Skew > 0 {
		s += fmt.Sprintf(" skew=%d", ph.Skew)
	}
	return s
}
