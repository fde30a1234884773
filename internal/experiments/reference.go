// The reference §3.3 campaign as a steppable, checkpointable object.
//
// RunAdaptiveReference used to be a closed loop: config in, result out.
// That shape cannot be interrupted, so the snapshot/resume machinery
// (snapshot.go) needed the pre-engine loop restructured the same way the
// fused engine already is — construct, step, harvest. ReferenceCampaign
// is that restructuring, kept operation-for-operation identical to the
// seed loop: per-round corruption closures, heap ballot slices through
// Switchboard.Step, and a map-backed histogram observed every round. The
// differential tests continue to assert its transcripts match the fused
// engine's byte for byte — and, new with checkpointing, that a snapshot
// taken on either engine resumes identically on both. Like every
// engine it is driven by the storm generator alone; the heap-ballot
// idiom under colluding and partitioned rounds is checked where those
// faults live, by the chaos harness's differential replay
// (redundancy.Switchboard.StepFaultyRef in internal/scenario).

package experiments

import (
	"fmt"

	"aft/internal/metrics"
	"aft/internal/redundancy"
	"aft/internal/voting"
	"aft/internal/xrand"
)

// ReferenceCampaign is the pre-engine §3.3 loop in steppable form: the
// differential-testing oracle for the fused Campaign. Construct with
// NewReferenceCampaign, drive with Step or Run, harvest with Result.
type ReferenceCampaign struct {
	cfg  AdaptiveRunConfig
	sb   *redundancy.Switchboard
	env  *storms
	crng *xrand.Rand

	hist                          *metrics.IntHistogram
	step, failures, replicaRounds int64

	red, dtof *metrics.Series
}

// NewReferenceCampaign validates cfg and builds the reference loop's
// state, with the same stream discipline as NewCampaign: storm generator
// split first, corruption-value stream second.
func NewReferenceCampaign(cfg AdaptiveRunConfig) (*ReferenceCampaign, error) {
	if cfg.Steps <= 0 {
		return nil, fmt.Errorf("experiments: Steps must be positive")
	}
	if err := cfg.Storms.Validate(); err != nil {
		return nil, err
	}
	sb, err := newOrgan(cfg.Policy)
	if err != nil {
		return nil, err
	}
	rng := xrand.New(cfg.Seed)
	env := newStorms(cfg.Storms, rng)
	rc := &ReferenceCampaign{
		cfg:  cfg,
		sb:   sb,
		env:  env,
		crng: rng.Split(),
		hist: metrics.NewIntHistogram(),
	}
	rc.red, rc.dtof = newSeries(cfg)
	return rc, nil
}

// Switchboard exposes the campaign's switchboard (read-only use).
func (rc *ReferenceCampaign) Switchboard() *redundancy.Switchboard { return rc.sb }

// Rounds reports how many rounds have been stepped so far.
func (rc *ReferenceCampaign) Rounds() int64 { return rc.step }

// Remaining reports how many configured rounds are left to run.
func (rc *ReferenceCampaign) Remaining() int64 {
	if r := rc.cfg.Steps - rc.step; r > 0 {
		return r
	}
	return 0
}

// Config returns the campaign's configuration.
func (rc *ReferenceCampaign) Config() AdaptiveRunConfig { return rc.cfg }

// Step runs one reference round, exactly as the seed loop did: a
// per-round corruption closure, a heap ballot slice through
// Switchboard.Step, and a map histogram observation.
func (rc *ReferenceCampaign) Step() voting.Outcome {
	var corrupted func(i int) bool
	if k := rc.env.corruptions(rc.step); k > 0 {
		corrupted = func(i int) bool { return i < k }
	}
	o, _ := rc.sb.Step(uint64(rc.step), corrupted, rc.crng)
	if rc.red != nil && rc.step%rc.cfg.SampleEvery == 0 {
		rc.red.Append(float64(o.N))
		rc.dtof.Append(float64(o.DTOF))
	}
	rc.step++
	rc.replicaRounds += int64(o.N)
	rc.hist.Observe(o.N)
	if o.Failed() {
		rc.failures++
	}
	return o
}

// Run steps the campaign n more rounds.
func (rc *ReferenceCampaign) Run(n int64) {
	for i := int64(0); i < n; i++ {
		rc.Step()
	}
}

// Result folds the campaign into the shared AdaptiveRunResult shape.
func (rc *ReferenceCampaign) Result() AdaptiveRunResult { return rc.state().result() }
