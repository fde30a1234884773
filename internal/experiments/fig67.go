package experiments

import (
	"fmt"
	"strings"

	"aft/internal/metrics"
	"aft/internal/redundancy"
	"aft/internal/xrand"
)

// StormConfig describes the simulated environmental disturbances of the
// Fig. 6/7 experiments: periodic storms whose intensity ramps up in
// levels (the number of replicas corrupted per round grows with storm
// age), over a faint background of isolated corruptions. The ramping
// models a physically gradual disturbance — a solar event building up —
// and is what gives the autonomic controller its window to re-dimension
// before the disturbance peaks, exactly the behaviour Fig. 6 plots.
type StormConfig struct {
	// StormEvery is the onset period in rounds (0 disables storms).
	StormEvery int64
	// FirstOnset overrides the first storm's onset round (0 means
	// StormEvery).
	FirstOnset int64
	// DwellMin/DwellMax bound the per-level dwell, drawn per storm
	// ("diversified" injection).
	DwellMin, DwellMax int64
	// MaxLevel caps the storm peak: at level k the environment corrupts
	// up to k replicas per round. Drawn per storm in [PeakMin, MaxLevel].
	MaxLevel int
	// PeakMin is the minimum storm peak (0 means 1).
	PeakMin int
	// StormP is the per-round probability that the storm corrupts
	// replicas during a level.
	StormP float64
	// Background is the per-round probability of one isolated
	// background corruption outside storms.
	Background float64
}

// Validate checks the configuration. Without it a legal-looking config
// could panic deep in the campaign: the storm-peak draw is
// Intn(MaxLevel-PeakMin+1), which panics whenever MaxLevel < PeakMin or
// MaxLevel is 0 with storms enabled, and a zero dwell would divide by
// zero when computing the storm level. Probabilities must lie in [0,1].
func (c StormConfig) Validate() error {
	if c.Background < 0 || c.Background > 1 {
		return fmt.Errorf("experiments: Background %v outside [0,1]", c.Background)
	}
	if c.StormEvery <= 0 {
		return nil // storms disabled; the remaining knobs are unused
	}
	if c.FirstOnset < 0 {
		return fmt.Errorf("experiments: FirstOnset %d must be non-negative", c.FirstOnset)
	}
	if c.DwellMin < 1 {
		return fmt.Errorf("experiments: DwellMin %d must be at least 1", c.DwellMin)
	}
	if c.DwellMax < c.DwellMin {
		return fmt.Errorf("experiments: DwellMax %d below DwellMin %d", c.DwellMax, c.DwellMin)
	}
	if c.MaxLevel < 1 {
		return fmt.Errorf("experiments: MaxLevel %d must be at least 1 when storms are enabled", c.MaxLevel)
	}
	if c.PeakMin < 0 {
		return fmt.Errorf("experiments: PeakMin %d must be non-negative", c.PeakMin)
	}
	if c.PeakMin > c.MaxLevel {
		return fmt.Errorf("experiments: PeakMin %d above MaxLevel %d", c.PeakMin, c.MaxLevel)
	}
	if c.StormP < 0 || c.StormP > 1 {
		return fmt.Errorf("experiments: StormP %v outside [0,1]", c.StormP)
	}
	return nil
}

// DefaultFig7Storms mirrors the 65-million-step experiment's regime:
// rare, heavy, ramping storms over a near-silent background, tuned so
// that the system spends the overwhelming share of its life at the
// minimal redundancy.
func DefaultFig7Storms() StormConfig {
	return StormConfig{
		StormEvery: 5_000_000,
		DwellMin:   200,
		DwellMax:   400,
		MaxLevel:   4,
		StormP:     0.5,
		Background: 1e-7,
	}
}

// DefaultFig6Storms compresses the same regime into a short window so
// the staircase is visible: one storm early in the run.
func DefaultFig6Storms() StormConfig {
	return StormConfig{
		StormEvery: 1_000_000, // effectively one storm within the window
		FirstOnset: 3000,
		DwellMin:   300,
		DwellMax:   300,
		MaxLevel:   4,
		PeakMin:    4, // the figure's storm ramps all the way up
		StormP:     0.5,
		Background: 0,
	}
}

// storms generates the per-round corruption count. It owns its PRNG,
// so a storms value is the generator's whole state: the onset schedule,
// the in-flight storm's shape and the stream's position.
type storms struct {
	cfg StormConfig
	rng xrand.Rand

	nextOnset int64
	inStorm   bool
	stormEnd  int64
	level     int64 // dwell per level this storm
	peak      int
	onset     int64
}

func newStorms(cfg StormConfig, rng *xrand.Rand) *storms {
	s := &storms{cfg: cfg, rng: *rng.Split()}
	switch {
	case cfg.StormEvery <= 0:
		s.nextOnset = -1
	case cfg.FirstOnset > 0:
		s.nextOnset = cfg.FirstOnset
	default:
		s.nextOnset = cfg.StormEvery
	}
	return s
}

// corruptions returns how many replicas the environment corrupts at
// the given round.
func (s *storms) corruptions(step int64) int {
	if s.nextOnset >= 0 && !s.inStorm && step >= s.nextOnset {
		// Storm onset: draw this storm's shape.
		s.inStorm = true
		s.onset = step
		s.level = s.cfg.DwellMin
		if d := s.cfg.DwellMax - s.cfg.DwellMin; d > 0 {
			s.level += int64(s.rng.Intn(int(d + 1)))
		}
		lo := s.cfg.PeakMin
		if lo < 1 {
			lo = 1
		}
		s.peak = lo + s.rng.Intn(s.cfg.MaxLevel-lo+1)
		s.stormEnd = step + s.level*int64(s.peak)
		s.nextOnset += s.cfg.StormEvery
	}
	if s.inStorm {
		if step >= s.stormEnd {
			s.inStorm = false
		} else {
			age := step - s.onset
			k := int(age/s.level) + 1
			if k > s.peak {
				k = s.peak
			}
			if s.rng.Bool(s.cfg.StormP) {
				return k
			}
			return 0
		}
	}
	if s.rng.Bool(s.cfg.Background) {
		return 1
	}
	return 0
}

// AdaptiveRunConfig parameterizes a Fig. 6/7-style run.
type AdaptiveRunConfig struct {
	// Steps is the number of voting rounds (the paper's Fig. 7 ran 65
	// million simulated time steps).
	Steps int64
	// Seed drives all randomness.
	Seed uint64
	// Policy is the Reflective Switchboards policy.
	Policy redundancy.Policy
	// Storms describes the disturbance regime.
	Storms StormConfig
	// SampleEvery records redundancy/dtof time series at this period
	// (0 disables sampling; Fig. 7 runs disable it for speed).
	SampleEvery int64
}

// AdaptiveRunResult reports a run.
type AdaptiveRunResult struct {
	// Hist is the redundancy occupancy histogram (Fig. 7).
	Hist *metrics.IntHistogram
	// Redundancy and DTOF are sampled series (Fig. 6), nil when
	// sampling is disabled.
	Redundancy *metrics.Series
	DTOF       *metrics.Series
	// Rounds and Failures count voting rounds and failed rounds; the
	// paper reports zero failures ("no clashes were observed").
	Rounds   int64
	Failures int64
	// Raises and Lowers count the controller's decisions.
	Raises, Lowers int64
	// ReplicaRounds is the total number of replica executions — the
	// resource expenditure.
	ReplicaRounds int64
	// MinFraction is the share of rounds spent at Policy.Min (the
	// paper: 99.92798 % at redundancy 3).
	MinFraction float64
}

// RunAdaptive executes the §3.3 autonomic loop for the configured number
// of rounds on a one-lane batch (see batch.go): storm generation,
// first-K corruption, voting, and resize delivery run over preallocated
// state, quiet rounds and storm levels that cannot resize the organ
// are taken in bulk, and rounds off the sampling grid perform zero heap
// allocations. Its result is field-identical to
// the fused Campaign's and the reference loop's for the same config.
func RunAdaptive(cfg AdaptiveRunConfig) (AdaptiveRunResult, error) {
	b, err := NewBatchCampaign(cfg, []uint64{cfg.Seed})
	if err != nil {
		return AdaptiveRunResult{}, err
	}
	b.RunAll()
	return b.Result(0), nil
}

// RunAdaptiveReference is the pre-engine §3.3 loop — per-round ballot
// slices, a per-round corruption closure, and a map-backed histogram. It
// is retained verbatim as the differential-testing oracle for every
// campaign engine: the fused engine (NewCampaign) and the batch engine
// RunAdaptive runs on must, for any valid config, render results
// byte-identical to its (asserted by the engine determinism tests and
// the batch differential tests), and the benchmark snapshot
// (BENCH_fig7.json) records its speed as the baseline the engines are
// measured against.
func RunAdaptiveReference(cfg AdaptiveRunConfig) (AdaptiveRunResult, error) {
	rc, err := NewReferenceCampaign(cfg)
	if err != nil {
		return AdaptiveRunResult{}, err
	}
	rc.Run(cfg.Steps)
	return rc.Result(), nil
}

// DefaultFig6Config returns the short staircase run of Fig. 6.
func DefaultFig6Config() AdaptiveRunConfig {
	return AdaptiveRunConfig{
		Steps:       12_000,
		Seed:        1906,
		Policy:      redundancy.DefaultPolicy(),
		Storms:      DefaultFig6Storms(),
		SampleEvery: 20,
	}
}

// DefaultFig7Config returns the full 65-million-step run of Fig. 7.
// Benchmarks scale Steps down; cmd/aft-bench can run it in full.
func DefaultFig7Config(steps int64) AdaptiveRunConfig {
	if steps <= 0 {
		steps = 65_000_000
	}
	cfg := AdaptiveRunConfig{
		Steps:  steps,
		Seed:   1906,
		Policy: redundancy.DefaultPolicy(),
		Storms: DefaultFig7Storms(),
	}
	// Keep roughly the paper's storm density when scaling down.
	if steps < 65_000_000 {
		cfg.Storms.StormEvery = steps / 13
		if cfg.Storms.StormEvery < 2000 {
			cfg.Storms.StormEvery = 2000
		}
	}
	return cfg
}

// RenderFig6 prints the staircase series.
func RenderFig6(r AdaptiveRunResult) string {
	var b strings.Builder
	b.WriteString("Fig. 6 — autonomic adaptation of redundancy under fault injection\n")
	if r.Redundancy != nil {
		b.WriteString(r.Redundancy.Render(7, 72))
		b.WriteString(r.DTOF.Render(5, 72))
	}
	fmt.Fprintf(&b, "rounds=%d failures=%d raises=%d lowers=%d\n",
		r.Rounds, r.Failures, r.Raises, r.Lowers)
	return b.String()
}

// RenderFig7 prints the occupancy histogram in the paper's log-scale
// style.
func RenderFig7(r AdaptiveRunResult, minRedundancy int) string {
	var b strings.Builder
	b.WriteString("Fig. 7 — histogram of employed redundancy (log scale)\n")
	b.WriteString(r.Hist.RenderLog("redundancy occupancy", 48))
	fmt.Fprintf(&b, "time at minimal redundancy %d: %.5f%% (paper: 99.92798%%)\n",
		minRedundancy, 100*r.MinFraction)
	fmt.Fprintf(&b, "voting failures: %d (paper: none observed)\n", r.Failures)
	fmt.Fprintf(&b, "replica-rounds: %d over %d rounds (avg %.3f replicas)\n",
		r.ReplicaRounds, r.Rounds, float64(r.ReplicaRounds)/float64(r.Rounds))
	return b.String()
}
