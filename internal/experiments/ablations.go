package experiments

import (
	"fmt"
	"strings"

	"aft/internal/accada"
	"aft/internal/alphacount"
	"aft/internal/faults"
	"aft/internal/ftpatterns"
	"aft/internal/redundancy"
)

// --- E5/E6: static versus adaptive fault-tolerance patterns -----------

// PatternRow is one contender in the E5/E6 ablations.
type PatternRow struct {
	// Strategy names the contender.
	Strategy string
	// Invocations is the number of service requests issued.
	Invocations int64
	// Failures is how many requests the component failed to serve.
	Failures int64
	// Attempts is the total number of version executions (time cost).
	Attempts int64
	// Activations is the total number of spares burned (space cost).
	Activations int64
}

// String renders the row.
func (r PatternRow) String() string {
	return fmt.Sprintf("%-22s invocations=%-5d failures=%-5d attempts=%-6d spares-burned=%d",
		r.Strategy, r.Invocations, r.Failures, r.Attempts, r.Activations)
}

// E5Config parameterizes the permanent-fault ablation.
type E5Config struct {
	// Invocations is the number of service requests.
	Invocations int
	// FaultAt is the request index at which the primary version fails
	// permanently.
	FaultAt int
	// MaxRetries bounds each redoing invocation.
	MaxRetries int
	// Alpha configures the adaptive executor's oracle.
	Alpha alphacount.Config
}

// DefaultE5Config mirrors the §3.2 clash-1 discussion.
func DefaultE5Config() E5Config {
	return E5Config{
		Invocations: 200,
		FaultAt:     50,
		MaxRetries:  5,
		Alpha:       alphacount.Config{K: 0.5, Threshold: 3, LowerThreshold: 1},
	}
}

// RunE5 compares static redoing, static reconfiguration, and the
// adaptive executor under a permanent fault: the paper's claim is that a
// clash of assumption e1 (redoing vs. permanent) "implies a livelock".
func RunE5(cfg E5Config) ([]PatternRow, error) {
	mkVersions := func() (*faults.Latch, []ftpatterns.Version) {
		var latch faults.Latch
		return &latch, []ftpatterns.Version{
			ftpatterns.LatchedVersion(&latch),
			ftpatterns.ReliableVersion(),
		}
	}
	var rows []PatternRow

	// Static redoing: livelocks after the fault.
	latch, vs := mkVersions()
	redo, err := ftpatterns.NewRedoing(vs[0], cfg.MaxRetries)
	if err != nil {
		return nil, err
	}
	row := PatternRow{Strategy: "static redoing"}
	for i := 0; i < cfg.Invocations; i++ {
		if i == cfg.FaultAt {
			latch.Trip()
		}
		res := redo.Invoke()
		row.Invocations++
		row.Attempts += int64(res.Attempts)
		if !res.OK {
			row.Failures++
		}
	}
	rows = append(rows, row)

	// Static reconfiguration: matched to permanent faults.
	latch, vs = mkVersions()
	reconf, err := ftpatterns.NewReconfiguration(vs...)
	if err != nil {
		return nil, err
	}
	row = PatternRow{Strategy: "static reconfiguration"}
	for i := 0; i < cfg.Invocations; i++ {
		if i == cfg.FaultAt {
			latch.Trip()
		}
		res := reconf.Invoke()
		row.Invocations++
		row.Attempts += int64(res.Attempts)
		row.Activations += int64(res.Activations)
		if !res.OK {
			row.Failures++
		}
	}
	rows = append(rows, row)

	// Adaptive (§3.2): starts as redoing, switches after the oracle
	// flips.
	latch, vs = mkVersions()
	exec, err := accada.NewAdaptiveExecutor(cfg.Alpha, cfg.MaxRetries, vs...)
	if err != nil {
		return nil, err
	}
	row = PatternRow{Strategy: "adaptive (alpha-count)"}
	for i := 0; i < cfg.Invocations; i++ {
		if i == cfg.FaultAt {
			latch.Trip()
		}
		res := exec.Invoke()
		row.Invocations++
		row.Attempts += int64(res.Attempts)
		row.Activations += int64(res.Activations)
		if !res.OK {
			row.Failures++
		}
	}
	rows = append(rows, row)
	return rows, nil
}

// E6Config parameterizes the transient-fault ablation.
type E6Config struct {
	// Invocations is the number of service requests.
	Invocations int
	// TransientEvery makes every k-th execution of the primary fail
	// once (and recover by itself).
	TransientEvery int
	// Spares is the number of spare versions available.
	Spares int
	// MaxRetries bounds each redoing invocation.
	MaxRetries int
	// Alpha configures the adaptive executor's oracle.
	Alpha alphacount.Config
}

// DefaultE6Config mirrors the §3.2 clash-2 discussion.
func DefaultE6Config() E6Config {
	return E6Config{
		Invocations:    500,
		TransientEvery: 9,
		Spares:         3,
		MaxRetries:     5,
		Alpha:          alphacount.Config{K: 0.5, Threshold: 3, LowerThreshold: 1},
	}
}

// RunE6 compares the contenders under purely transient faults: the
// paper's claim is that a clash of assumption e2 (reconfiguration vs.
// transients) "implies an unnecessary expenditure of resources".
func RunE6(cfg E6Config) ([]PatternRow, error) {
	// Every version shares the same transient environment: every k-th
	// execution blips. The fault is in the environment, not the version,
	// so replacing the version buys nothing.
	mkEnv := func() func() error {
		calls := 0
		return func() error {
			calls++
			if cfg.TransientEvery > 0 && calls%cfg.TransientEvery == 0 {
				return ftpatterns.ErrVersionFault
			}
			return nil
		}
	}
	mkVersions := func() []ftpatterns.Version {
		env := mkEnv()
		out := make([]ftpatterns.Version, cfg.Spares+1)
		for i := range out {
			out[i] = env
		}
		return out
	}
	var rows []PatternRow

	vs := mkVersions()
	redo, err := ftpatterns.NewRedoing(vs[0], cfg.MaxRetries)
	if err != nil {
		return nil, err
	}
	row := PatternRow{Strategy: "static redoing"}
	for i := 0; i < cfg.Invocations; i++ {
		res := redo.Invoke()
		row.Invocations++
		row.Attempts += int64(res.Attempts)
		if !res.OK {
			row.Failures++
		}
	}
	rows = append(rows, row)

	vs = mkVersions()
	reconf, err := ftpatterns.NewReconfiguration(vs...)
	if err != nil {
		return nil, err
	}
	row = PatternRow{Strategy: "static reconfiguration"}
	for i := 0; i < cfg.Invocations; i++ {
		res := reconf.Invoke()
		row.Invocations++
		row.Attempts += int64(res.Attempts)
		row.Activations += int64(res.Activations)
		if !res.OK {
			row.Failures++
		}
	}
	rows = append(rows, row)

	vs = mkVersions()
	exec, err := accada.NewAdaptiveExecutor(cfg.Alpha, cfg.MaxRetries, vs...)
	if err != nil {
		return nil, err
	}
	row = PatternRow{Strategy: "adaptive (alpha-count)"}
	for i := 0; i < cfg.Invocations; i++ {
		res := exec.Invoke()
		row.Invocations++
		row.Attempts += int64(res.Attempts)
		row.Activations += int64(res.Activations)
		if !res.OK {
			row.Failures++
		}
	}
	rows = append(rows, row)
	return rows, nil
}

// RenderPatternRows prints an E5/E6 table.
func RenderPatternRows(title string, rows []PatternRow) string {
	var b strings.Builder
	b.WriteString(title)
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "  %s\n", r)
	}
	return b.String()
}

// --- E8: fixed versus autonomic dimensioning ---------------------------

// E8Row is one contender in the dimensioning ablation.
type E8Row struct {
	// Strategy names the contender ("fixed n=3" … "autonomic").
	Strategy string
	// Failures is the number of failed voting rounds.
	Failures int64
	// ReplicaRounds is the total resource expenditure.
	ReplicaRounds int64
	// AvgRedundancy is ReplicaRounds per round.
	AvgRedundancy float64
}

// String renders the row.
func (r E8Row) String() string {
	return fmt.Sprintf("%-12s failures=%-6d replica-rounds=%-10d avg-redundancy=%.3f",
		r.Strategy, r.Failures, r.ReplicaRounds, r.AvgRedundancy)
}

// e8FixedSizes are the fixed-dimensioning contenders of the E8 ablation.
var e8FixedSizes = []int{3, 5, 7, 9}

// RunE8 compares fixed dimensionings (the Boulding "Thermostat") with
// the autonomic controller (the "Cell") on the same disturbance regime.
// Every contender is one lane of one batch on the batch engine, sharded
// across workers goroutines (1 = serial, 0 = one per CPU). All lanes
// share the seed, so the contenders race on the same disturbances. A
// fixed organ is a policy with Min == Max == n: the controller can never
// resize it, and Policy.Decide consumes no randomness, so its lane
// equals a bare farm of n replicas under the same storms. The rows are
// identical for any worker count, and to the same contenders run one
// by one on RunAdaptiveReference (TestBatchE8MatchesScalarCells).
func RunE8(steps int64, seed uint64, workers int) ([]E8Row, error) {
	steps, storms := e8Setup(steps)
	lanes := make([]BatchLane, 0, len(e8FixedSizes)+1)
	for _, n := range e8FixedSizes {
		lanes = append(lanes, BatchLane{Seed: seed, Policy: redundancy.Policy{
			Min: n, Max: n, CriticalDTOF: 1, Step: 2, LowerAfter: 1000,
		}})
	}
	lanes = append(lanes, BatchLane{Seed: seed, Policy: redundancy.DefaultPolicy()})
	cfg := AdaptiveRunConfig{Steps: steps, Policy: redundancy.DefaultPolicy(), Storms: storms}
	results, err := runLanesParallel(cfg, lanes, workers)
	if err != nil {
		return nil, err
	}
	rows := make([]E8Row, len(results))
	for i, res := range results {
		strategy := "autonomic"
		if i < len(e8FixedSizes) {
			strategy = fmt.Sprintf("fixed n=%d", e8FixedSizes[i])
		}
		rows[i] = E8Row{
			Strategy:      strategy,
			Failures:      res.Failures,
			ReplicaRounds: res.ReplicaRounds,
			AvgRedundancy: float64(res.ReplicaRounds) / float64(res.Rounds),
		}
	}
	return rows, nil
}

// e8Setup normalizes the steps and derives the storm regime of the E8
// sweep; the tests' reference-loop runs use the same regime.
func e8Setup(steps int64) (int64, StormConfig) {
	if steps <= 0 {
		steps = 200_000
	}
	storms := DefaultFig7Storms()
	storms.StormEvery = steps / 8
	if storms.StormEvery < 2000 {
		storms.StormEvery = 2000
	}
	return steps, storms
}

// RenderE8 prints the dimensioning table.
func RenderE8(rows []E8Row) string {
	var b strings.Builder
	b.WriteString("E8 — fixed (Thermostat) vs autonomic (Cell) dimensioning\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %s\n", r)
	}
	return b.String()
}
