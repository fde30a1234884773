// The §3.3 campaign engine: a fused, batch-oriented, zero-allocation
// runner for the paper's headline experiment.
//
// The Fig. 7 result is a 65-million-round autonomic redundancy campaign,
// so the round loop is the hottest path in the repository. The engine
// fuses the three per-round stages — storm generation (how many replicas
// does the environment corrupt this round?), switchboard stepping
// (replicate, vote, observe, maybe resize), and metrics accumulation —
// over state allocated once at construction:
//
//   - ballots go through voting.Farm's reusable buffer and the map-free
//     tally (voting.RoundFirstK),
//   - corruption is expressed as a first-K count threaded through
//     redundancy.Switchboard.StepFirstK, replacing the per-round
//     `func(i int) bool` closure of the reference loop,
//   - occupancy is counted in a flat []int64 indexed by replica count and
//     only folded into the map-backed metrics.IntHistogram when the
//     campaign ends.
//
// The result: a consensus round — 99.93% of the paper's campaign —
// performs zero heap allocations (asserted by TestCampaignStepZeroAlloc
// and TestRoundFirstKZeroAlloc). Only the rare resize rounds allocate,
// inside HMAC signing of the resize message.
//
// This engine runs campaign jobs (internal/jobs and aft-worker) and
// aft-bench's bench7. RunAdaptive (and so aft-sim), the E8/E10
// ablations, and the parallel sweeps (SweepSeeds/SweepReplicas) run on
// the batch engine (batch.go); the pre-engine loop survives as
// RunAdaptiveReference, the differential-testing oracle. Every engine
// is driven by the storm generator alone: the chaos harness
// (internal/scenario) steps its own switchboard, so no engine takes
// another fault source.
package experiments

import (
	"fmt"

	"aft/internal/metrics"
	"aft/internal/redundancy"
	"aft/internal/voting"
	"aft/internal/xrand"
)

// campaignKey authenticates the resize messages of a campaign. The
// switchboard signs and verifies with the same key, so the transcript
// does not depend on its value; it exists to exercise the paper's
// "secure messages" machinery on every resize.
var campaignKey = []byte("fig7-key")

// identity is the replicated method of the Fig. 6/7 campaigns. A named
// function rather than a closure so engine construction cannot capture
// per-run state.
func identity(v uint64) uint64 { return v }

// Campaign is the fused §3.3 hot loop. Construct with NewCampaign, drive
// with Step (one voting round per call), and harvest with Result.
type Campaign struct {
	cfg  AdaptiveRunConfig
	sb   *redundancy.Switchboard
	env  *storms
	crng *xrand.Rand

	// occ counts rounds by replica count; index ≤ Policy.Max because the
	// switchboard rejects dimensionings outside the policy band.
	occ []int64
	// step is both the next round's input and the count of rounds run.
	step int64

	failures, replicaRounds int64

	// red and dtof are the Fig. 6 sampled series, nil unless
	// cfg.SampleEvery > 0. They live on the campaign (not the caller) so
	// a snapshot carries them and a resumed Fig. 6 run renders the full
	// staircase.
	red, dtof *metrics.Series
}

// newSeries allocates the sampling series when cfg asks for them, and
// returns nil ones otherwise.
func newSeries(cfg AdaptiveRunConfig) (red, dtof *metrics.Series) {
	if cfg.SampleEvery > 0 {
		return metrics.NewSeries("redundancy"), metrics.NewSeries("dtof")
	}
	return nil, nil
}

// NewCampaign validates cfg and allocates every buffer the campaign will
// ever need; Step itself allocates nothing on the consensus path.
func NewCampaign(cfg AdaptiveRunConfig) (*Campaign, error) {
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
	// Stream discipline matches RunAdaptiveReference exactly: the storm
	// generator splits off the root stream first, the corruption-value
	// stream second, so transcripts are byte-identical across engines.
	rng := xrand.New(cfg.Seed)
	env := newStorms(cfg.Storms, rng)
	crng := rng.Split()
	c := &Campaign{
		cfg:  cfg,
		sb:   sb,
		env:  env,
		crng: crng,
		occ:  make([]int64, cfg.Policy.Max+1),
	}
	c.red, c.dtof = newSeries(cfg)
	return c, nil
}

// newOrgan builds the identity-method voting farm and switchboard every
// scalar campaign shares.
func newOrgan(policy redundancy.Policy) (*redundancy.Switchboard, error) {
	farm, err := voting.NewFarm(policy.Min, identity)
	if err != nil {
		return nil, err
	}
	return redundancy.NewSwitchboard(farm, policy, campaignKey)
}

// Switchboard exposes the campaign's switchboard (read-only use:
// resize/rejection counters, controller state).
func (c *Campaign) Switchboard() *redundancy.Switchboard { return c.sb }

// Rounds reports how many rounds have been stepped so far.
func (c *Campaign) Rounds() int64 { return c.step }

// Step runs one fused round: draw the storm intensity, corrupt the
// first k replicas, vote, and let the controller re-dimension. The
// returned Outcome's Votes slice aliases the farm's reusable buffer and
// is only valid until the next Step.
func (c *Campaign) Step() voting.Outcome {
	o, _ := c.sb.StepFirstK(uint64(c.step), c.env.corruptions(c.step), c.crng)
	if c.red != nil && c.step%c.cfg.SampleEvery == 0 {
		c.red.Append(c.step, float64(o.N))
		c.dtof.Append(c.step, float64(o.DTOF))
	}
	c.step++
	c.replicaRounds += int64(o.N)
	c.occ[o.N]++
	if o.Failed() {
		c.failures++
	}
	return o
}

// Remaining reports how many configured rounds are left to run; a
// freshly constructed campaign has cfg.Steps remaining, a finished one
// zero. Resume workflows use it to size the continuation.
func (c *Campaign) Remaining() int64 {
	if r := c.cfg.Steps - c.step; r > 0 {
		return r
	}
	return 0
}

// Config returns the campaign's configuration.
func (c *Campaign) Config() AdaptiveRunConfig { return c.cfg }

// Run steps the campaign n more rounds. It is the batch entry point for
// callers that do not need per-round outcomes.
func (c *Campaign) Run(n int64) {
	for i := int64(0); i < n; i++ {
		c.Step()
	}
}

// Result folds the campaign's state into the AdaptiveRunResult shape
// shared with the other engines, sampled series included.
func (c *Campaign) Result() AdaptiveRunResult { return c.state().result() }
