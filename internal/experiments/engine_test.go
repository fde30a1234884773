package experiments

import (
	"strings"
	"testing"

	"aft/internal/redundancy"
	"aft/internal/xrand"
)

// TestEngineMatchesReferenceFig6 asserts the fused engine reproduces the
// pre-engine transcript byte for byte on the Fig. 6 staircase, series
// included.
func TestEngineMatchesReferenceFig6(t *testing.T) {
	cfg := DefaultFig6Config()
	eng, err := RunAdaptive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunAdaptiveReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := RenderFig6(eng), RenderFig6(ref); a != b {
		t.Fatalf("Fig. 6 transcripts diverge:\nengine:\n%s\nreference:\n%s", a, b)
	}
}

// TestEngineMatchesReferenceFig7 does the same on a scaled-down Fig. 7
// campaign — histogram, min-fraction, failure and replica-round counts,
// and the controller's decisions — and on two storm-dense campaigns: 2 M
// rounds with a storm every 2 000 and a sample every 1 000. Those take
// the kernel's storm levels in bulk a thousand times over, and at max
// level 9 majorities are lost, so TallyWords runs beside them.
func TestEngineMatchesReferenceFig7(t *testing.T) {
	stormDense := func(maxLevel int) AdaptiveRunConfig {
		cfg := DefaultFig7Config(2_000_000)
		cfg.Storms.StormEvery = 2000
		cfg.Storms.MaxLevel = maxLevel
		cfg.SampleEvery = 1000
		return cfg
	}
	for _, tc := range []struct {
		name string
		cfg  AdaptiveRunConfig
	}{
		{"fig7-300k", DefaultFig7Config(300_000)},
		{"storm-dense-max-level-4", stormDense(4)},
		{"storm-dense-max-level-9", stormDense(9)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := RunAdaptive(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := RunAdaptiveReference(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := renderBoth(eng, tc.cfg.Policy.Min), renderBoth(ref, tc.cfg.Policy.Min); a != b {
				t.Fatalf("transcripts diverge:\nengine:\n%s\nreference:\n%s", a, b)
			}
		})
	}
}

// TestEngineSweepParallelSerialReferenceIdentical closes the triangle:
// the parallel sweep, the serial sweep, and the reference loop must all
// render the same per-replica Fig. 7 transcripts. Nine replicas run on
// one worker as pool tasks of eight and one lane, on two as tasks of
// five and four, and on four as three tasks of three, so lanes share
// scans of several widths while other tasks run beside them.
func TestEngineSweepParallelSerialReferenceIdentical(t *testing.T) {
	cfg := DefaultFig7Config(60_000)
	const replicas = 9
	serial, err := SweepReplicas(cfg, replicas, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		par, err := SweepReplicas(cfg, replicas, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			a := RenderFig7(serial[i], cfg.Policy.Min)
			b := RenderFig7(par[i], cfg.Policy.Min)
			if a != b {
				t.Fatalf("workers=%d: replica %d: parallel sweep diverged from serial", workers, i)
			}
		}
	}
	// Reference loop per derived seed (the same derivation SweepReplicas
	// uses).
	seeds := xrand.Seeds(cfg.Seed, replicas)
	for i, res := range serial {
		c := cfg
		c.Seed = seeds[i]
		ref, err := RunAdaptiveReference(c)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := RenderFig7(res, cfg.Policy.Min), RenderFig7(ref, cfg.Policy.Min); a != b {
			t.Fatalf("replica %d: engine diverged from reference:\n%s\nvs\n%s", i, a, b)
		}
	}
}

// TestCampaignStepZeroAlloc is the §3.3 allocation-regression gate: a
// consensus round through the full engine — storm draw, vote, tally,
// controller observation — must perform zero heap allocations.
func TestCampaignStepZeroAlloc(t *testing.T) {
	cfg := AdaptiveRunConfig{
		Steps:  1,
		Seed:   1906,
		Policy: redundancy.DefaultPolicy(),
		// Storms disabled, zero background: pure consensus rounds, the
		// case that dominates the 65M-round campaign.
		Storms: StormConfig{},
	}
	c, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20000, func() { c.Step() }); allocs != 0 {
		t.Fatalf("consensus-path campaign round allocates %.2f objects, want 0", allocs)
	}
}

// TestCampaignStepZeroAllocUnderBackground exercises the dissent tally
// (one corrupted replica on many rounds) and still demands zero
// allocations. Only resize rounds may allocate (HMAC signing), so the
// policy is pinned where a single background corruption is never
// critical (5 replicas, CriticalDTOF 0) and the organ sits at Min, where
// a lowering can never be issued.
func TestCampaignStepZeroAllocUnderBackground(t *testing.T) {
	policy := redundancy.Policy{Min: 5, Max: 9, CriticalDTOF: 0, Step: 2, LowerAfter: 1000}
	cfg := AdaptiveRunConfig{
		Steps:  1,
		Seed:   7,
		Policy: policy,
		Storms: StormConfig{Background: 0.3}, // frequent single corruptions
	}
	c, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20000, func() { c.Step() }); allocs != 0 {
		t.Fatalf("background-dissent round allocates %.2f objects, want 0", allocs)
	}
}

// TestStormConfigValidate covers the error paths that used to panic at
// first storm onset.
func TestStormConfigValidate(t *testing.T) {
	base := DefaultFig7Storms()
	if err := base.Validate(); err != nil {
		t.Fatalf("default Fig. 7 storms invalid: %v", err)
	}
	if err := DefaultFig6Storms().Validate(); err != nil {
		t.Fatalf("default Fig. 6 storms invalid: %v", err)
	}
	if err := (StormConfig{}).Validate(); err != nil {
		t.Fatalf("disabled storms invalid: %v", err)
	}

	bad := []struct {
		name string
		mod  func(*StormConfig)
	}{
		{"MaxLevel zero with storms enabled", func(c *StormConfig) { c.MaxLevel = 0 }},
		{"MaxLevel below PeakMin", func(c *StormConfig) { c.PeakMin = 6; c.MaxLevel = 4 }},
		{"negative PeakMin", func(c *StormConfig) { c.PeakMin = -1 }},
		{"zero dwell", func(c *StormConfig) { c.DwellMin = 0 }},
		{"DwellMax below DwellMin", func(c *StormConfig) { c.DwellMax = c.DwellMin - 1 }},
		{"StormP above 1", func(c *StormConfig) { c.StormP = 1.5 }},
		{"negative Background", func(c *StormConfig) { c.Background = -0.1 }},
		{"negative FirstOnset", func(c *StormConfig) { c.FirstOnset = -5 }},
	}
	for _, tc := range bad {
		cfg := base
		tc.mod(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, cfg)
		}
	}
}

// TestRunAdaptiveRejectsBadStormConfig asserts the campaign surfaces the
// config error instead of panicking at first onset (the seed behaviour:
// xrand.Intn(MaxLevel-lo+1) with MaxLevel < PeakMin panicked).
func TestRunAdaptiveRejectsBadStormConfig(t *testing.T) {
	cfg := DefaultFig6Config()
	cfg.Storms.MaxLevel = 0 // storms enabled but peak draw would panic
	cfg.Storms.PeakMin = 0
	if _, err := RunAdaptive(cfg); err == nil {
		t.Fatal("RunAdaptive accepted a storm config that panics at onset")
	} else if !strings.Contains(err.Error(), "MaxLevel") {
		t.Fatalf("unexpected error: %v", err)
	}
	// The reference loop validates identically.
	if _, err := RunAdaptiveReference(cfg); err == nil {
		t.Fatal("RunAdaptiveReference accepted a bad storm config")
	}
}
