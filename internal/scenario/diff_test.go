package scenario

import "testing"

// TestDifferentialParity proves, for every committed scenario, that the
// fused engine's buffer path and the reference loop's heap path agree
// on every round of the organ track — the scenario suite doubles as a
// standing differential test of the §3.3 voting and switchboard paths.
func TestDifferentialParity(t *testing.T) {
	for _, spec := range Builtins() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			rep, err := Differential(spec, 0)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Rounds != spec.OrganRounds() {
				t.Fatalf("differential covered %d rounds, want %d", rep.Rounds, spec.OrganRounds())
			}
		})
	}
}

// TestDifferentialAcrossSeeds re-runs parity on seeds other than the
// spec default, so the agreement is not an artifact of one stream.
func TestDifferentialAcrossSeeds(t *testing.T) {
	spec, ok := Builtin("storm-ramp")
	if !ok {
		t.Fatal("storm-ramp builtin missing")
	}
	for _, seed := range []uint64{1, 7, 0xDEADBEEF} {
		if _, err := Differential(spec, seed); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestDifferentialMatchesRunner anchors the differential replay to the
// Runner itself: the track the two paths replay must cover the rounds
// the live run fed the switchboard.
func TestDifferentialMatchesRunner(t *testing.T) {
	for _, name := range []string{"storm-ramp", "transient-burst", "teardown"} {
		spec, ok := Builtin(name)
		if !ok {
			t.Fatalf("%s builtin missing", name)
		}
		res, err := Run(spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Differential(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.OrganRounds != rep.Rounds {
			t.Errorf("%s: runner ran %d organ rounds, differential %d", name, res.OrganRounds, rep.Rounds)
		}
	}
}

func TestDifferentialRejectsInvalidSpec(t *testing.T) {
	spec, _ := Builtin("quiet")
	spec.Horizon = 0
	if _, err := Differential(spec, 0); err == nil {
		t.Fatal("Differential accepted an invalid spec")
	}
}
