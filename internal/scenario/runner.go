package scenario

import (
	"fmt"

	"aft/internal/accada"
	"aft/internal/alphacount"
	"aft/internal/experiments"
	"aft/internal/faults"
	"aft/internal/ftpatterns"
	"aft/internal/redundancy"
	"aft/internal/simclock"
	"aft/internal/trace"
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
// same derived stream, so the organ's corruption track is identical in
// every engine.
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

// organSource adapts a program to the campaign engine's fault
// interface for the differential mode, replaying only the organ track.
// Because it implements experiments.FaultSource, the engines consult
// Faults — exactly once per round — and Corruptions is never called on
// the engine path; both methods advance the program, so a caller must
// use one or the other, never both.
type organSource struct{ prog *program }

// Corruptions implements experiments.CorruptionSource.
func (o organSource) Corruptions(step int64) int {
	return o.Faults(step).Corruptions
}

// Faults implements experiments.FaultSource, advancing the shared
// phase program exactly once per round.
func (o organSource) Faults(step int64) experiments.StepFaults {
	ph, _, strike := o.prog.step(step)
	if !strike {
		return experiments.StepFaults{}
	}
	return experiments.StepFaults{
		Corruptions: ph.Corrupt,
		Colluding:   ph.Collude && ph.Corrupt > 0,
		Partitioned: ph.Partition,
	}
}

// pushSource feeds the Runner's per-step fault environment into the
// fused campaign engine: the Runner derives the strike's organ effect
// from the shared phase program, pushes it here, and steps the
// campaign.
type pushSource struct {
	k                    int
	collude, partitioned bool
}

// Corruptions implements experiments.CorruptionSource.
func (p *pushSource) Corruptions(int64) int { return p.k }

// Faults implements experiments.FaultSource.
func (p *pushSource) Faults(int64) experiments.StepFaults {
	return experiments.StepFaults{Corruptions: p.k, Colluding: p.collude, Partitioned: p.partitioned}
}

// organConfig derives the campaign configuration for a scenario's organ
// track. Seeds are split per subsystem (xrand.Seeds), so the campaign's
// corrupt-value stream and the phase program's strike stream are
// independent but both pure functions of the run seed.
func organConfig(spec Spec, seed uint64) experiments.AdaptiveRunConfig {
	seeds := xrand.Seeds(seed, 2)
	return experiments.AdaptiveRunConfig{
		Steps:  spec.OrganRounds(),
		Seed:   seeds[0],
		Policy: spec.Policy,
	}
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

	camp *experiments.Campaign
	push *pushSource
	torn bool

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

// newRunner builds every subsystem of a run — program, organ campaign,
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
		r.push = &pushSource{}
		if r.camp, err = experiments.NewCampaignWithSource(organConfig(spec, seed), r.push); err != nil {
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

	if r.camp != nil && !r.torn {
		r.push.k, r.push.collude, r.push.partitioned = 0, false, false
		if strike {
			r.push.k = ph.Corrupt
			r.push.collude = ph.Collude && ph.Corrupt > 0
			r.push.partitioned = ph.Partition
		}
		o := r.camp.Step()
		sb := r.camp.Switchboard()
		if res := sb.Resizes(); res != r.prevRes {
			r.prevRes = res
			r.rec.Record(now, "resize", "organ", "n=%d nonce=%d", sb.Farm().N(), sb.LastNonce())
		}
		if o.Failed() {
			r.rec.Record(now, "vote-failed", "organ", "n=%d dissent=%d corrupted=%d", o.N, o.Dissent, r.push.k)
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
	sb := r.camp.Switchboard()
	req := r.craft(rp)
	if err := sb.Apply(req); err != nil {
		r.rec.Record(now, "attack", rp.Kind, "rejected: %v", err)
		return
	}
	r.rec.Record(now, "attack", rp.Kind, "ACCEPTED n=%d nonce=%d", req.NewN, req.Nonce)
}

// craft builds the adversarial request for an attack kind.
func (r *runner) craft(rp ReplaySpec) redundancy.ResizeRequest {
	sb := r.camp.Switchboard()
	switch rp.Kind {
	case AttackForge:
		// Signed under the wrong key: fails authentication outright.
		return redundancy.SignResize([]byte("attacker-key"), r.spec.Policy.Min,
			redundancy.Lower, sb.LastNonce()+1)
	case AttackOutOfBand:
		// Correctly signed and fresh, but dimensioned past the policy
		// ceiling: rejected by the band check.
		return r.camp.Sign(r.spec.Policy.Max+2, redundancy.Raise, sb.LastNonce()+1)
	default: // AttackReplay
		// A captured legitimate message played back: the signature
		// verifies, the stale nonce does not.
		return r.camp.Sign(r.spec.Policy.Min, redundancy.Lower, sb.LastNonce())
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
	if r.camp != nil {
		res := r.camp.Result()
		sb := r.camp.Switchboard()
		r.rec.Record(h, "summary", "organ",
			"rounds=%d failures=%d resizes=%d rejected=%d raises=%d lowers=%d final-n=%d last-nonce=%d",
			res.Rounds, res.Failures, sb.Resizes(), sb.Rejected(), res.Raises, res.Lowers,
			sb.Farm().N(), sb.LastNonce())
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
	if r.camp != nil {
		cres := r.camp.Result()
		sb := r.camp.Switchboard()
		res.OrganRounds = cres.Rounds
		res.OrganFailures = cres.Failures
		res.Resizes = sb.Resizes()
		res.RejectedResizes = sb.Rejected()
		res.Raises, res.Lowers = cres.Raises, cres.Lowers
		res.FinalRedundancy = sb.Farm().N()
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
