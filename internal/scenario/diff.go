package scenario

import (
	"fmt"
	"reflect"
)

// DiffReport is the outcome of one differential replay.
type DiffReport struct {
	Scenario string
	Seed     uint64
	Rounds   int64
}

// Differential replays the scenario's organ track — the exact fault
// stream the Runner feeds the switchboard — on two organs built alike
// from the run seed: one stepped by redundancy.Switchboard.StepFaulty,
// the reusable-buffer path of the fused campaign engine
// (voting.Farm.RoundFirstK and RoundColluding), and one by
// StepFaultyRef, the heap-ballot path of the reference loop (Round and
// RoundShared). It fails on the first round whose ballots, outcome or
// resize differ, and on any difference in the final switchboard state:
// dimensioning, controller streak and decisions, nonce watermark, and
// the message and farm counters. It returns an error describing the
// divergence, or the report on parity. The campaign engines run only
// the storm generator, so this is where the faults a scenario adds —
// colluding voter groups, a cut control link — meet both paths.
//
// Scenarios without an organ have no differential surface and report
// zero rounds.
func Differential(spec Spec, seed uint64) (DiffReport, error) {
	if err := spec.Validate(); err != nil {
		return DiffReport{}, err
	}
	if seed == 0 {
		seed = spec.Seed
	}
	rep := DiffReport{Scenario: spec.Name, Seed: seed, Rounds: spec.OrganRounds()}
	if rep.Rounds == 0 {
		return rep, nil
	}
	prog, err := newProgram(spec, programRng(seed))
	if err != nil {
		return rep, err
	}
	fused, err := newOrgan(spec, seed)
	if err != nil {
		return rep, err
	}
	ref, err := newOrgan(spec, seed)
	if err != nil {
		return rep, err
	}
	for s := int64(0); s < rep.Rounds; s++ {
		ph, _, strike := prog.step(s)
		k, collude, partitioned := organFaults(ph, strike)
		a, resizedA := fused.sb.StepFaulty(uint64(s), k, collude, partitioned, fused.crng)
		b, resizedB := ref.sb.StepFaultyRef(uint64(s), k, collude, partitioned, ref.crng)
		if !reflect.DeepEqual(a, b) || resizedA != resizedB {
			return rep, fmt.Errorf("scenario %s: fused and reference paths diverge at round %d (k=%d collude=%v partitioned=%v):\n--- fused\n%+v resized=%v\n--- reference\n%+v resized=%v",
				spec.Name, s, k, collude, partitioned, a, resizedA, b, resizedB)
		}
	}
	if a, b := fused.sb.ExportState(), ref.sb.ExportState(); a != b {
		return rep, fmt.Errorf("scenario %s: final switchboard states diverge: fused %+v, reference %+v",
			spec.Name, a, b)
	}
	return rep, nil
}
