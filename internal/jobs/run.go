// Job execution: the code that turns a validated Spec into a terminal
// Result. The lease holder's loop (holder.go) is its only caller in the
// program, whether the holder runs inside the server or in an
// aft-worker process; the helpers are exported so tests and the
// benchmark can compute a job's expected result directly.

package jobs

import (
	"encoding/json"
	"fmt"
	"strings"

	"aft/internal/experiments"
	"aft/internal/scenario"
	"aft/internal/scenario/gen"
)

// campaignSummary is the structured half of a campaign result.
type campaignSummary struct {
	Rounds        int64   `json:"rounds"`
	Failures      int64   `json:"failures"`
	Raises        int64   `json:"raises"`
	Lowers        int64   `json:"lowers"`
	ReplicaRounds int64   `json:"replica_rounds"`
	MinFraction   float64 `json:"min_fraction"`
	Resumed       bool    `json:"resumed,omitempty"`
}

// CampaignResult renders a finished campaign's terminal record: the
// Fig. 6/7 transcripts plus the structured summary. The resumed flag
// only annotates the summary; the transcript bytes never depend on it.
func CampaignResult(id string, cfg experiments.AdaptiveRunConfig, res experiments.AdaptiveRunResult, resumed bool) *Result {
	summary, err := json.Marshal(campaignSummary{
		Rounds:        res.Rounds,
		Failures:      res.Failures,
		Raises:        res.Raises,
		Lowers:        res.Lowers,
		ReplicaRounds: res.ReplicaRounds,
		MinFraction:   res.MinFraction,
		Resumed:       resumed,
	})
	if err != nil {
		return &Result{ID: id, Kind: KindCampaign, State: StateFailed,
			Error: err.Error(), Rounds: res.Rounds}
	}
	return &Result{
		ID: id, Kind: KindCampaign, State: StateDone,
		Rounds:     res.Rounds,
		Transcript: renderCampaign(cfg, res),
		Summary:    summary,
	}
}

// renderCampaign renders the campaign's figure transcripts: the Fig. 6
// staircase when sampling was configured, always the Fig. 7 histogram.
func renderCampaign(cfg experiments.AdaptiveRunConfig, res experiments.AdaptiveRunResult) string {
	out := ""
	if cfg.SampleEvery > 0 {
		out += experiments.RenderFig6(res)
	}
	return out + experiments.RenderFig7(res, cfg.Policy.Min)
}

// ExecuteSweep runs one ablation grid to a terminal Result on the
// calling goroutine; a server's parallelism is its holders, one job
// each.
func ExecuteSweep(id string, sw *SweepSpec) *Result {
	var (
		transcript string
		summary    any
		cells      int
		err        error
	)
	switch sw.Grid {
	case "e8":
		var rows []experiments.E8Row
		rows, err = experiments.RunE8(sw.Steps, sweepSeed(sw.Seed), 1)
		if err == nil {
			transcript, summary, cells = experiments.RenderE8(rows), rows, len(rows)
		}
	case "e9":
		cfg := experiments.DefaultE9Config()
		if sw.E9 != nil {
			cfg = *sw.E9
		}
		var rows []experiments.E9Row
		rows, err = experiments.RunE9(cfg, 1)
		if err == nil {
			transcript, summary, cells = experiments.RenderE9(rows), rows, len(rows)
		}
	case "e10":
		var rows []experiments.E10Row
		rows, err = experiments.RunE10(sw.Steps, sweepSeed(sw.Seed), sw.LowerAfters, 1)
		if err == nil {
			transcript, summary, cells = experiments.RenderE10(rows), rows, len(rows)
		}
	case "chaos":
		rep := gen.Campaign(sweepSeed(sw.Seed), sw.Count, gen.Options{Diff: true, Shrink: true})
		transcript, summary, cells = renderChaos(rep), rep, rep.Specs
	default:
		err = fmt.Errorf("jobs: unknown sweep grid %q", sw.Grid)
	}
	if err != nil {
		return &Result{ID: id, Kind: KindSweep, State: StateFailed, Error: err.Error()}
	}
	data, err := json.Marshal(summary)
	if err != nil {
		return &Result{ID: id, Kind: KindSweep, State: StateFailed, Error: err.Error()}
	}
	return &Result{
		ID: id, Kind: KindSweep, State: StateDone,
		Rounds:     int64(cells),
		Transcript: transcript,
		Summary:    data,
	}
}

// sweepSeed applies the figures' default seed to unset sweep seeds.
func sweepSeed(seed uint64) uint64 {
	if seed == 0 {
		return 1906
	}
	return seed
}

// renderChaos formats a fuzz-campaign report the way aft-chaos -gen
// prints it, shrunk reproducers inline, so a finding in a sweep job's
// transcript is immediately committable as a regression golden.
func renderChaos(rep gen.Report) string {
	var b strings.Builder
	for _, f := range rep.Findings {
		fmt.Fprintf(&b, "FAIL %s [%s]: %s\n", f.Spec.Name, f.Signature, f.Detail)
		if f.Shrunk != nil {
			if data, err := f.Shrunk.Encode(); err == nil {
				fmt.Fprintf(&b, "  shrunk reproducer (%d evals):\n%s", f.ShrinkEvals, data)
			}
		}
	}
	fmt.Fprintf(&b, "gen: seed=%d specs=%d findings=%d\n", rep.Seed, rep.Specs, len(rep.Findings))
	return b.String()
}

// scenarioSummary is the structured half of a scenario result.
type scenarioSummary struct {
	Name              string   `json:"name"`
	Seed              uint64   `json:"seed"`
	Horizon           int64    `json:"horizon"`
	OrganRounds       int64    `json:"organ_rounds"`
	Resizes           int64    `json:"resizes"`
	RejectedResizes   int64    `json:"rejected_resizes"`
	WatchdogFires     int64    `json:"watchdog_fires"`
	InvariantsChecked int64    `json:"invariants_checked"`
	Violations        []string `json:"violations,omitempty"`
}

// ExecuteScenario runs one chaos scenario to a terminal Result.
// Scenarios are deterministic and short relative to campaigns, so they
// are atomic units: durability comes from the persisted spec (a crashed
// scenario re-runs from its seed and produces the identical
// transcript). A scenario that violates an invariant fails the job,
// mirroring aft-chaos's non-zero exit.
func ExecuteScenario(id string, sc *ScenarioSpec) *Result {
	spec, opt, err := sc.resolve()
	if err != nil {
		return &Result{ID: id, Kind: KindScenario, State: StateFailed, Error: err.Error()}
	}
	res, err := scenario.Run(spec, opt)
	if err != nil {
		return &Result{ID: id, Kind: KindScenario, State: StateFailed, Error: err.Error()}
	}
	sum := scenarioSummary{
		Name:              spec.Name,
		Seed:              res.Seed,
		Horizon:           spec.Horizon,
		OrganRounds:       res.OrganRounds,
		Resizes:           res.Resizes,
		RejectedResizes:   res.RejectedResizes,
		WatchdogFires:     res.WatchdogFires,
		InvariantsChecked: res.InvariantsChecked,
	}
	for _, v := range res.Violations {
		sum.Violations = append(sum.Violations, v.String())
	}
	data, merr := json.Marshal(sum)
	if merr != nil {
		return &Result{ID: id, Kind: KindScenario, State: StateFailed, Error: merr.Error()}
	}
	out := &Result{
		ID: id, Kind: KindScenario, State: StateDone,
		Rounds:     spec.Horizon,
		Transcript: res.Transcript,
		Summary:    data,
	}
	if n := len(res.Violations); n > 0 {
		out.State = StateFailed
		out.Error = fmt.Sprintf("%d invariant violation(s): %s", n, res.Violations[0].String())
	}
	return out
}
