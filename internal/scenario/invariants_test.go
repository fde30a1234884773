package scenario

import (
	"fmt"
	"strings"
	"testing"
)

// TestSabotageTripsInvariants drives each sabotage hook and asserts the
// matching checker reports the violation, names the invariant, and
// stamps the simulated time — the detection path cmd/aft-chaos turns
// into a non-zero exit. A sabotage must not move the organ's round
// count either: the teardown sabotage's extra round reaches the farm's
// own counter, which is what its checker reads, but not the rounds the
// run reports.
func TestSabotageTripsInvariants(t *testing.T) {
	cases := []struct {
		scenario  string
		invariant string
	}{
		{"storm-replay", InvRedundancyBand},
		{"storm-replay", InvNonceMonotone},
		{"teardown", InvTeardownQuiet},
	}
	for _, tc := range cases {
		t.Run(tc.invariant, func(t *testing.T) {
			spec, ok := Builtin(tc.scenario)
			if !ok {
				t.Fatalf("%s builtin missing", tc.scenario)
			}
			res, err := Run(spec, Options{Sabotage: tc.invariant})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Violations) == 0 {
				t.Fatalf("sabotage %s produced no violations", tc.invariant)
			}
			v := res.Violations[0]
			if v.Invariant != tc.invariant {
				t.Fatalf("violation named %q, want %q", v.Invariant, tc.invariant)
			}
			if v.Time <= 0 || v.Time >= spec.Horizon {
				t.Fatalf("violation time %d outside the run", v.Time)
			}
			msg := v.String()
			if !strings.Contains(msg, tc.invariant) || !strings.Contains(msg, "t=") {
				t.Fatalf("violation rendering lacks invariant name or time: %q", msg)
			}
			if !strings.Contains(res.Transcript, "violation "+tc.invariant) {
				t.Fatal("violation missing from the transcript")
			}
			clean, err := Run(spec, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.OrganRounds != clean.OrganRounds {
				t.Fatalf("sabotaged run reports %d organ rounds, clean run %d", res.OrganRounds, clean.OrganRounds)
			}
			if want := fmt.Sprintf("summary organ: rounds=%d ", clean.OrganRounds); !strings.Contains(res.Transcript, want) {
				t.Fatalf("sabotaged transcript lacks %q", want)
			}
		})
	}
}

// TestSabotageValidation rejects sabotage requests the spec cannot
// express, and unknown invariant names.
func TestSabotageValidation(t *testing.T) {
	quiet, _ := Builtin("quiet")
	if _, err := Run(quiet, Options{Sabotage: "no-such-invariant"}); err == nil {
		t.Error("unknown sabotage target accepted")
	}
	if _, err := Run(quiet, Options{Sabotage: InvTeardownQuiet}); err == nil {
		t.Error("teardown sabotage accepted without a teardown step")
	}
	noOrgan := quiet
	noOrgan.Organ = false
	if _, err := Run(noOrgan, Options{Sabotage: InvRedundancyBand}); err == nil {
		t.Error("band sabotage accepted without an organ")
	}
}

// TestViolationDisarmsOnce: a persistent breach reports a single
// violation at its detection time rather than one per later step.
func TestViolationDisarmsOnce(t *testing.T) {
	spec, _ := Builtin("storm-replay")
	res, err := Run(spec, Options{Sabotage: InvRedundancyBand})
	if err != nil {
		t.Fatal(err)
	}
	var band int
	for _, v := range res.Violations {
		if v.Invariant == InvRedundancyBand {
			band++
			if v.Time != spec.Horizon/2 {
				t.Errorf("band violation at t=%d, want the sabotage step %d", v.Time, spec.Horizon/2)
			}
		}
	}
	if band != 1 {
		t.Fatalf("got %d band violations, want exactly 1", band)
	}
}

// TestLatchInvariantHolds: the alpha-monotone checker must be armed and
// silent on the permanent-latch scenario — the verdict turns permanent
// while the primary is latched and only decays after reconfiguration.
func TestLatchInvariantHolds(t *testing.T) {
	spec, _ := Builtin("permanent-latch")
	res, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("permanent-latch violated: %v", res.Violations)
	}
	if !strings.Contains(res.Transcript, "latch executor") {
		t.Fatal("latch event missing from transcript")
	}
	if !strings.Contains(res.Transcript, "spare executor") {
		t.Fatal("reconfiguration to a spare missing from transcript")
	}
}

// TestAttacksAllRejected: every adversarial resize in storm-replay must
// be rejected, and the rejection reasons must be distinguishable.
func TestAttacksAllRejected(t *testing.T) {
	spec, _ := Builtin("storm-replay")
	res, err := Run(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.Transcript, "ACCEPTED") {
		t.Fatal("an adversarial resize was accepted")
	}
	for _, needle := range []string{
		"attack replay: rejected",
		"attack forge: rejected",
		"attack out-of-band: rejected",
	} {
		if !strings.Contains(res.Transcript, needle) {
			t.Errorf("transcript lacks %q", needle)
		}
	}
}
