// Package experiments contains the harnesses that regenerate the
// paper's figures and the ablation studies derived from its claims. Each
// experiment is a pure function of its configuration (including the
// random seed), so every run is reproducible. Every figure's output, with
// Fig. 7 at the paper's full 65 M rounds, is committed as the golden
// cmd/aft-bench/testdata/figures.golden.
package experiments

import (
	"fmt"
	"strings"

	"aft/internal/alphacount"
	"aft/internal/faults"
	"aft/internal/simclock"
	"aft/internal/watchdog"
)

// Fig4Sample is one watchdog firing in the Fig. 4 scenario.
type Fig4Sample struct {
	// Time is the virtual time of the firing.
	Time int64
	// Alpha is the alpha-count score after the firing.
	Alpha float64
	// Verdict is the oracle's label after the firing.
	Verdict string
}

// Fig4Result is the transcript of the Fig. 4 scenario.
type Fig4Result struct {
	// Firings lists every watchdog firing with the alpha trajectory.
	Firings []Fig4Sample
	// FlipIndex is the 1-based firing at which the verdict became
	// "permanent or intermittent" (0 when it never flipped).
	FlipIndex int
	// FlipAlpha is the alpha value at the flip.
	FlipAlpha float64
	// Threshold echoes the configured threshold.
	Threshold float64
}

// Fig4Config parameterizes the scenario.
type Fig4Config struct {
	// BeatInterval is the watched task's heartbeat period.
	BeatInterval simclock.Time
	// CheckInterval and Deadline configure the watchdog.
	CheckInterval simclock.Time
	Deadline      simclock.Time
	// FaultAt is the virtual time at which the permanent design fault
	// is injected into the watched task.
	FaultAt simclock.Time
	// Horizon bounds the simulation.
	Horizon simclock.Time
	// Alpha configures the oracle; the paper's run uses threshold 3.0.
	Alpha alphacount.Config
}

// DefaultFig4Config mirrors the paper's Fig. 4: a permanent design
// fault repeatedly "fires" the watchdog; the alpha-count variable grows
// until it overcomes threshold 3.0 and the fault is labeled "permanent
// or intermittent".
func DefaultFig4Config() Fig4Config {
	return Fig4Config{
		BeatInterval:  10,
		CheckInterval: 10,
		Deadline:      15,
		FaultAt:       100,
		Horizon:       400,
		Alpha:         alphacount.Config{K: 0.5, Threshold: 3.0},
	}
}

// RunFig4 executes the Fig. 4 scenario: a watched task (left-hand
// window of the figure) beats until a permanent design fault is
// injected; the watchdog (right-hand window) then fires repeatedly, and
// each firing bumps the alpha-count until the verdict flips.
func RunFig4(cfg Fig4Config) (Fig4Result, error) {
	filter, err := alphacount.New(cfg.Alpha)
	if err != nil {
		return Fig4Result{}, err
	}
	res := Fig4Result{Threshold: cfg.Alpha.Threshold}

	var designFault faults.Latch
	s := simclock.New()

	wd, err := watchdog.New(watchdog.Config{
		Interval: cfg.CheckInterval,
		Deadline: cfg.Deadline,
	}, func(now simclock.Time) {
		verdict := filter.Fault()
		res.Firings = append(res.Firings, Fig4Sample{
			Time:    int64(now),
			Alpha:   filter.Alpha(),
			Verdict: verdict.String(),
		})
		if res.FlipIndex == 0 && verdict == alphacount.PermanentVerdict {
			res.FlipIndex = len(res.Firings)
			res.FlipAlpha = filter.Alpha()
		}
	})
	if err != nil {
		return Fig4Result{}, err
	}
	wd.Start(s)

	// The watched task: beats while healthy, silent once the permanent
	// fault is injected.
	s.Every(cfg.BeatInterval, func(sc *simclock.Scheduler) bool {
		if !designFault.Tripped() {
			wd.Beat(sc.Now())
		}
		return sc.Now() < cfg.Horizon
	})
	s.At(cfg.FaultAt, func(*simclock.Scheduler) { designFault.Trip() })
	s.At(cfg.Horizon, func(*simclock.Scheduler) { wd.Stop() })
	s.Run(cfg.Horizon + cfg.CheckInterval)
	return res, nil
}

// Render prints the Fig. 4 transcript in the style of the paper's
// figure: one line per firing with the alpha value, flagging the flip.
func (r Fig4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 4 — watchdog firings feeding the alpha-count (threshold %.1f)\n", r.Threshold)
	for i, f := range r.Firings {
		marker := ""
		if i+1 == r.FlipIndex {
			marker = `  <-- fault labeled "permanent or intermittent"`
		}
		fmt.Fprintf(&b, "  fire %2d at t=%4d  alpha=%.3f  verdict=%s%s\n",
			i+1, f.Time, f.Alpha, f.Verdict, marker)
	}
	return b.String()
}
