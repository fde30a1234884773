package scenario

import (
	"fmt"

	"aft/internal/alphacount"
)

// Invariant names. Each armed invariant is evaluated on every simulated
// step; a violation names the invariant and the simulated time at which
// it was detected.
const (
	// InvRedundancyBand: the organ's replica count always lies inside
	// the policy band [Min, Max] and stays odd.
	InvRedundancyBand = "redundancy-band"
	// InvNonceMonotone: the switchboard's accepted nonce never
	// decreases, and strictly increases whenever a resize is applied —
	// the property the replay protection exists to defend.
	InvNonceMonotone = "nonce-monotone"
	// InvAlphaMonotoneLatch: while the permanent latch is tripped and
	// the executor still runs its latched primary, the alpha-count
	// verdict never reverts from permanent to transient (faults keep
	// arriving, so the score cannot decay below the lower threshold).
	InvAlphaMonotoneLatch = "alpha-monotone-latch"
	// InvTeardownQuiet: no voting round executes at or after the farm
	// teardown step.
	InvTeardownQuiet = "teardown-quiet"
)

// Violation is one invariant failure.
type Violation struct {
	Invariant string
	// Time is the simulated step at which the violation was detected.
	Time   int64
	Detail string
}

// String renders the violation the way cmd/aft-chaos reports it.
func (v Violation) String() string {
	return fmt.Sprintf("invariant %s violated at t=%d: %s", v.Invariant, v.Time, v.Detail)
}

// invariants evaluates the armed checkers once per simulated step.
type invariants struct {
	r     *runner
	armed []string

	checked    int64
	violations []Violation
	tripped    map[string]bool

	prevNonce   uint64
	prevResizes int64

	latchedAt     int64
	latchActive   bool
	sawPermanent  bool
	frozenRounds  int64
	roundsFrozen  bool
	fakeStaleOnce bool
}

// newInvariants arms the checkers that apply to the spec.
func newInvariants(r *runner) *invariants {
	inv := &invariants{r: r, latchedAt: -1, tripped: make(map[string]bool)}
	if r.spec.Organ {
		inv.armed = append(inv.armed, InvRedundancyBand, InvNonceMonotone)
	}
	if r.spec.Executor != nil {
		for _, ph := range r.spec.Phases {
			if ph.Latch {
				inv.armed = append(inv.armed, InvAlphaMonotoneLatch)
				break
			}
		}
	}
	if r.spec.TeardownAt > 0 {
		inv.armed = append(inv.armed, InvTeardownQuiet)
	}
	return inv
}

// latched arms the alpha-monotone window.
func (inv *invariants) latched(now int64) {
	inv.latchedAt = now
	inv.latchActive = true
}

// freezeRounds pins the farm's round counter at teardown.
func (inv *invariants) freezeRounds() {
	if inv.r.organ != nil {
		rounds, _ := inv.r.sb.Farm().Stats()
		inv.frozenRounds = rounds
		inv.roundsFrozen = true
	}
}

// violate records one violation, both in the result and the transcript,
// and disarms the invariant so a persistent breach reports once, at its
// detection time, instead of flooding the transcript every later step.
func (inv *invariants) violate(name string, now int64, format string, args ...any) {
	v := Violation{Invariant: name, Time: now, Detail: fmt.Sprintf(format, args...)}
	inv.violations = append(inv.violations, v)
	inv.tripped[name] = true
	inv.r.rec.Record(now, "violation", name, "%s", v.Detail)
}

// check sweeps every armed invariant at the given simulated step.
func (inv *invariants) check(now int64) {
	for _, name := range inv.armed {
		if inv.tripped[name] {
			continue
		}
		inv.checked++
		switch name {
		case InvRedundancyBand:
			n := inv.r.sb.Farm().N()
			p := inv.r.spec.Policy
			if n < p.Min || n > p.Max || n%2 == 0 {
				inv.violate(name, now, "replica count %d outside policy band [%d,%d] (or even)", n, p.Min, p.Max)
			}
		case InvNonceMonotone:
			sb := inv.r.sb
			nonce, resizes := sb.LastNonce(), sb.Resizes()
			if inv.fakeStaleOnce {
				// Sabotage: pretend the switchboard accepted a replayed
				// nonce, proving the checker catches regressions.
				inv.fakeStaleOnce = false
				nonce = inv.prevNonce
				resizes = inv.prevResizes + 1
			}
			switch {
			case nonce < inv.prevNonce:
				inv.violate(name, now, "accepted nonce went backwards: %d after %d", nonce, inv.prevNonce)
			case resizes > inv.prevResizes && nonce <= inv.prevNonce:
				inv.violate(name, now, "resize applied without advancing the nonce (still %d)", nonce)
			}
			inv.prevNonce, inv.prevResizes = nonce, resizes
		case InvAlphaMonotoneLatch:
			if !inv.latchActive || inv.r.exec == nil {
				break
			}
			if inv.r.exec.Current() != 0 {
				// Reconfigured away from the latched primary: faults
				// stop, the verdict may legitimately decay; disarm.
				inv.latchActive = false
				break
			}
			v := inv.r.exec.Verdict()
			if v == alphacount.PermanentVerdict {
				inv.sawPermanent = true
			} else if inv.sawPermanent {
				inv.violate(name, now,
					"verdict reverted to transient while the latch holds the primary (latched at t=%d)", inv.latchedAt)
			}
		case InvTeardownQuiet:
			if !inv.roundsFrozen {
				break
			}
			rounds, _ := inv.r.sb.Farm().Stats()
			if rounds != inv.frozenRounds {
				inv.violate(name, now, "voting round executed after teardown: %d rounds, expected %d",
					rounds, inv.frozenRounds)
			}
		}
	}
}

// --- Sabotage (test-only) ----------------------------------------------

// validSabotage rejects sabotage requests the spec cannot express.
func validSabotage(spec Spec, name string) error {
	switch name {
	case InvRedundancyBand, InvNonceMonotone:
		if !spec.Organ {
			return fmt.Errorf("scenario: sabotage %q needs the organ enabled", name)
		}
		if name == InvRedundancyBand && spec.Policy.Min < 3 {
			return fmt.Errorf("scenario: sabotage %q needs Policy.Min >= 3", name)
		}
	case InvTeardownQuiet:
		if spec.TeardownAt <= 0 {
			return fmt.Errorf("scenario: sabotage %q needs a teardown step", name)
		}
	case InvAlphaMonotoneLatch:
		// The executor exposes no mutator that could fake a verdict
		// reversal, so this invariant has no sabotage hook.
		return fmt.Errorf("scenario: sabotage is not supported for invariant %q", name)
	default:
		return fmt.Errorf("scenario: unknown sabotage target %q", name)
	}
	return nil
}

// applySabotage deliberately violates the chosen invariant. The band
// and teardown sabotages perturb the system under test itself (an
// out-of-band farm resize, a voting round after decommissioning); the
// nonce sabotage fakes the checker's observation, which is enough to
// prove the detection path and the CLI's non-zero exit.
func (r *runner) applySabotage(now int64) {
	switch r.sabotage {
	case InvRedundancyBand:
		if now == r.spec.Horizon/2 {
			// Resize the farm directly, bypassing the switchboard's
			// band check: Min-2 is odd and positive, so the farm
			// accepts a dimensioning below the policy floor.
			_ = r.sb.Farm().SetReplicas(r.spec.Policy.Min - 2)
		}
	case InvNonceMonotone:
		if now == r.spec.Horizon/2 {
			r.inv.fakeStaleOnce = true
		}
	case InvTeardownQuiet:
		mid := r.spec.TeardownAt + (r.spec.Horizon-r.spec.TeardownAt)/2
		if now == mid && r.torn {
			r.sb.Farm().RoundFirstK(0, 0, nil)
		}
	}
}
