package experiments

import (
	"fmt"
	"strings"

	"aft/internal/alphacount"
	"aft/internal/redundancy"
	"aft/internal/xrand"
)

// --- E9: alpha-count parameter sweep ------------------------------------

// E9Row reports the discrimination quality of one (K, threshold)
// configuration.
type E9Row struct {
	// K and Threshold identify the configuration.
	K         float64
	Threshold float64
	// FalsePermanent is the fraction of purely-transient traces
	// misjudged as permanent at least once.
	FalsePermanent float64
	// MissedPermanent is the fraction of permanent-fault traces never
	// judged permanent.
	MissedPermanent float64
	// MeanLatency is the mean number of judgments from permanent-fault
	// onset to the permanent verdict, over detected traces.
	MeanLatency float64
}

// String renders the row.
func (r E9Row) String() string {
	return fmt.Sprintf("K=%.2f T=%.1f  false-permanent=%5.1f%%  missed=%5.1f%%  latency=%5.1f",
		r.K, r.Threshold, 100*r.FalsePermanent, 100*r.MissedPermanent, r.MeanLatency)
}

// E9Config parameterizes the sweep.
type E9Config struct {
	// Ks and Thresholds are the grid.
	Ks         []float64
	Thresholds []float64
	// Traces is the number of random traces per cell and kind.
	Traces int
	// TraceLen is the judgment count per trace.
	TraceLen int
	// TransientP is the per-judgment fault probability of the
	// transient traces.
	TransientP float64
	// Seed drives trace generation.
	Seed uint64
}

// DefaultE9Config covers the neighbourhood of the paper's (0.5, 3.0)
// operating point.
func DefaultE9Config() E9Config {
	return E9Config{
		Ks:         []float64{0.3, 0.5, 0.7, 0.9},
		Thresholds: []float64{2, 3, 4, 6},
		Traces:     200,
		TraceLen:   400,
		TransientP: 0.03,
		Seed:       17,
	}
}

// RunE9 sweeps the alpha-count parameters over two trace populations —
// sparse transients (must stay transient) and a permanent-fault onset
// (must flip, quickly) — quantifying the trade-off the paper's Fig. 4
// operating point sits on. The grid's cells run on a pool of workers
// goroutines (1 = serial, 0 = one per CPU). The cells are alpha-count
// trace sweeps, not campaign rounds, so unlike E8 and E10 there is no
// round loop to batch.
func RunE9(cfg E9Config, workers int) ([]E9Row, error) {
	if cfg.Traces <= 0 || cfg.TraceLen <= 0 {
		return nil, fmt.Errorf("experiments: E9 needs positive Traces and TraceLen")
	}
	nt := len(cfg.Thresholds)
	return RunParallel(len(cfg.Ks)*nt, workers, func(i int) (E9Row, error) {
		return e9Cell(cfg, cfg.Ks[i/nt], cfg.Thresholds[i%nt])
	})
}

// e9Cell measures one (K, threshold) configuration. Every cell seeds its
// own generator from cfg.Seed, so cells are independent and the grid can
// be evaluated in any order — or in parallel — with identical results.
func e9Cell(cfg E9Config, k, threshold float64) (E9Row, error) {
	acfg := alphacount.Config{K: k, Threshold: threshold}
	if _, err := alphacount.New(acfg); err != nil {
		return E9Row{}, err
	}
	rng := xrand.New(cfg.Seed)
	row := E9Row{K: k, Threshold: threshold}

	// Population 1: sparse transients.
	falseCount := 0
	for tr := 0; tr < cfg.Traces; tr++ {
		f := alphacount.MustNew(acfg)
		misjudged := false
		for j := 0; j < cfg.TraceLen; j++ {
			if f.Judge(rng.Bool(cfg.TransientP)) == alphacount.PermanentVerdict {
				misjudged = true
			}
		}
		if misjudged {
			falseCount++
		}
	}
	row.FalsePermanent = float64(falseCount) / float64(cfg.Traces)

	// Population 2: permanent onset halfway through the trace.
	missed := 0
	totalLatency := 0
	detected := 0
	onset := cfg.TraceLen / 2
	for tr := 0; tr < cfg.Traces; tr++ {
		f := alphacount.MustNew(acfg)
		flippedAt := -1
		for j := 0; j < cfg.TraceLen; j++ {
			fault := j >= onset // permanent: faults every judgment after onset
			if !fault {
				fault = rng.Bool(cfg.TransientP)
			}
			if f.Judge(fault) == alphacount.PermanentVerdict && flippedAt < 0 && j >= onset {
				flippedAt = j
			}
		}
		if flippedAt < 0 {
			missed++
		} else {
			totalLatency += flippedAt - onset + 1
			detected++
		}
	}
	row.MissedPermanent = float64(missed) / float64(cfg.Traces)
	if detected > 0 {
		row.MeanLatency = float64(totalLatency) / float64(detected)
	}
	return row, nil
}

// RenderE9 prints the sweep.
func RenderE9(rows []E9Row) string {
	var b strings.Builder
	b.WriteString("E9 — alpha-count parameter sweep (paper's operating point: K=0.5, T=3.0)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %s\n", r)
	}
	return b.String()
}

// --- E10: LowerAfter hysteresis sweep ------------------------------------

// E10Row reports one LowerAfter setting on the Fig. 6/7 regime.
type E10Row struct {
	// LowerAfter is the quiet-streak length before lowering.
	LowerAfter int
	// Failures counts failed voting rounds.
	Failures int64
	// AvgRedundancy is mean replicas per round.
	AvgRedundancy float64
	// Resizes counts applied dimensioning revisions (churn).
	Resizes int64
	// MinFraction is the share of rounds at minimal redundancy.
	MinFraction float64
}

// String renders the row.
func (r E10Row) String() string {
	return fmt.Sprintf("LowerAfter=%-6d failures=%-4d avg-redundancy=%.4f resizes=%-5d time@min=%6.2f%%",
		r.LowerAfter, r.Failures, r.AvgRedundancy, r.Resizes, 100*r.MinFraction)
}

// RunE10 sweeps the controller's LowerAfter hysteresis over the storm
// regime, exposing the design trade-off behind the paper's choice of
// 1000: lower values shed redundancy faster (cheaper, riskier near storm
// tails, more churn), higher values hold it longer (safer, costlier).
// Every setting is one lane of one batch on the batch engine (same seed,
// default policy with the hysteresis knob varied), sharded across
// workers goroutines (1 = serial, 0 = one per CPU). The rows are
// identical for any worker count, and to the same settings run one by
// one on RunAdaptiveReference (TestBatchE10MatchesScalarCells).
func RunE10(steps int64, seed uint64, lowerAfters []int, workers int) ([]E10Row, error) {
	steps, lowerAfters, storms := e10Setup(steps, lowerAfters)
	lanes := make([]BatchLane, len(lowerAfters))
	for i, la := range lowerAfters {
		policy := redundancy.DefaultPolicy()
		policy.LowerAfter = la
		lanes[i] = BatchLane{Seed: seed, Policy: policy}
	}
	cfg := AdaptiveRunConfig{Steps: steps, Policy: redundancy.DefaultPolicy(), Storms: storms}
	results, err := runLanesParallel(cfg, lanes, workers)
	if err != nil {
		return nil, err
	}
	rows := make([]E10Row, len(results))
	for i, res := range results {
		rows[i] = E10Row{
			LowerAfter:    lowerAfters[i],
			Failures:      res.Failures,
			AvgRedundancy: float64(res.ReplicaRounds) / float64(res.Rounds),
			Resizes:       res.Raises + res.Lowers,
			MinFraction:   res.MinFraction,
		}
	}
	return rows, nil
}

// e10Setup fills in the default steps and LowerAfter settings and
// derives the storm regime of the E10 sweep; the tests' reference-loop
// runs use the same regime.
func e10Setup(steps int64, lowerAfters []int) (int64, []int, StormConfig) {
	if steps <= 0 {
		steps = 200_000
	}
	if len(lowerAfters) == 0 {
		lowerAfters = []int{10, 100, 1000, 10000}
	}
	storms := DefaultFig7Storms()
	storms.StormEvery = steps / 8
	if storms.StormEvery < 2000 {
		storms.StormEvery = 2000
	}
	return steps, lowerAfters, storms
}

// RenderE10 prints the sweep.
func RenderE10(rows []E10Row) string {
	var b strings.Builder
	b.WriteString("E10 — LowerAfter hysteresis sweep (paper's choice: 1000)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %s\n", r)
	}
	return b.String()
}
