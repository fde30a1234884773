// Command aft-bench regenerates every figure of the paper plus the
// derived ablations, printing the rows/series the paper reports. The
// output of -fig all -steps 65000000 is committed as
// testdata/figures.golden and pinned byte for byte by TestFiguresGolden.
//
// Usage:
//
//	aft-bench [-fig 4|5|6|7|e5|e6|e7|e8|e9|e10|bench7|all]
//	          [-steps N] [-seed S] [-parallel W]
//	          [-bench-out FILE] [-trajectory FILE]
//
// -steps applies to the Fig. 7 run; pass 65000000 for the paper's full
// 65-million-step experiment. -parallel runs the independent-trial
// sweeps (E8, E9, E10) on a worker pool of W goroutines (0 = one per
// CPU); results are byte-identical to the serial run.
//
// -fig bench7 times the §3.3 campaign hot path on both the fused
// zero-allocation engine and the pre-engine reference loop, and writes a
// JSON snapshot (ns/round, allocs/round, rounds/sec, speedup) to
// -bench-out so the perf trajectory is tracked PR over PR; it also
// appends a dated entry to -trajectory, the append-only perf history
// (the snapshot alone is a single overwritten point). It is not part of
// "all".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"time"

	"aft/internal/checkpoint"
	"aft/internal/cli"
	"aft/internal/experiments"
)

func main() {
	// No timestamp: the same arguments give the same stderr.
	log.SetFlags(0)
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("aft-bench", flag.ContinueOnError)
	fig := fs.String("fig", "all", "which artefact to regenerate: 4, 5, 6, 7, e5..e10, bench7, all")
	steps := fs.Int64("steps", 2_000_000, "rounds for the Fig. 7 run (paper: 65000000)")
	seed := fs.Uint64("seed", 1906, "random seed")
	parallel := fs.Int("parallel", 1, "worker pool for the E8/E9/E10 sweeps: 1 = serial, 0 = one per CPU, N = N workers")
	benchOut := fs.String("bench-out", "BENCH_fig7.json", "where -fig bench7 writes its JSON snapshot")
	trajectory := fs.String("trajectory", "BENCH_trajectory.json", "append-only perf history -fig bench7 extends (empty = skip)")
	if done, err := cli.Parse(fs, args, stdout); done {
		return err
	}

	runners := map[string]func() error{
		"4": func() error {
			res, err := experiments.RunFig4(experiments.DefaultFig4Config())
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, res.Render())
			return nil
		},
		"5": func() error {
			rows, err := experiments.RunFig5(*seed)
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, experiments.RenderFig5(rows))
			return nil
		},
		"6": func() error {
			cfg := experiments.DefaultFig6Config()
			cfg.Seed = *seed
			res, err := experiments.RunAdaptive(cfg)
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, experiments.RenderFig6(res))
			return nil
		},
		"7": func() error {
			cfg := experiments.DefaultFig7Config(*steps)
			cfg.Seed = *seed
			fmt.Fprintf(stdout, "(running %d rounds)\n", cfg.Steps)
			res, err := experiments.RunAdaptive(cfg)
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, experiments.RenderFig7(res, cfg.Policy.Min))
			return nil
		},
		"e5": func() error {
			rows, err := experiments.RunE5(experiments.DefaultE5Config())
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, experiments.RenderPatternRows(
				"E5 — permanent fault: redoing livelocks, adaptation escapes", rows))
			return nil
		},
		"e6": func() error {
			rows, err := experiments.RunE6(experiments.DefaultE6Config())
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, experiments.RenderPatternRows(
				"E6 — transient faults: reconfiguration wastes spares, adaptation does not", rows))
			return nil
		},
		"e7": func() error {
			cells, err := experiments.RunE7(experiments.DefaultE7Config())
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, experiments.RenderE7(cells))
			return nil
		},
		"e8": func() error {
			rows, err := experiments.RunE8(200_000, *seed, *parallel)
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, experiments.RenderE8(rows))
			return nil
		},
		"e9": func() error {
			rows, err := experiments.RunE9(experiments.DefaultE9Config(), *parallel)
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, experiments.RenderE9(rows))
			return nil
		},
		"e10": func() error {
			rows, err := experiments.RunE10(200_000, *seed, nil, *parallel)
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, experiments.RenderE10(rows))
			return nil
		},
		"bench7": func() error {
			return runBench7(*steps, *seed, *benchOut, *trajectory, stdout)
		},
	}

	order := []string{"4", "5", "6", "7", "e5", "e6", "e7", "e8", "e9", "e10"}
	usesPool := map[string]bool{"e8": true, "e9": true, "e10": true}
	if *parallel != 1 && (*fig == "all" || usesPool[*fig]) {
		fmt.Fprintf(stdout, "(E8/E9/E10 sweeps on a %d-worker pool)\n", experiments.Workers(*parallel))
	}
	if *fig != "all" {
		r, ok := runners[*fig]
		if !ok {
			return fmt.Errorf("unknown figure %q (want 4, 5, 6, 7, e5..e10, bench7, all)", *fig)
		}
		return r()
	}
	for _, k := range order {
		fmt.Fprintf(stdout, "\n================ %s ================\n", k)
		if err := runners[k](); err != nil {
			return err
		}
	}
	return nil
}

// trajectoryEntry is one dated bench7 point of the append-only perf
// history.
type trajectoryEntry struct {
	Date       string  `json:"date"`
	Steps      int64   `json:"steps"`
	Seed       uint64  `json:"seed"`
	GoMaxProcs int     `json:"gomaxprocs"`
	EngineNs   float64 `json:"engine_ns_per_round"`
	RefNs      float64 `json:"reference_ns_per_round"`
	Speedup    float64 `json:"speedup"`
	RoundsSec  float64 `json:"engine_rounds_per_sec"`
}

// appendTrajectory extends the perf-history file with one entry. The
// file is a JSON array; a missing file starts a new history, a corrupt
// one is an error (history should never be silently discarded). The
// history also holds entries of the retired batch-width and serve-load
// harnesses, so existing entries pass through as raw JSON — an
// appender must never strip fields it does not know about.
func appendTrajectory(path string, e trajectoryEntry) error {
	var entries []json.RawMessage
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &entries); err != nil {
			return fmt.Errorf("%s: corrupt perf history: %w", path, err)
		}
	case os.IsNotExist(err):
	default:
		return err
	}
	raw, err := json.Marshal(e)
	if err != nil {
		return err
	}
	entries = append(entries, raw)
	out, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return err
	}
	// A corrupt history is a hard error above, so a kill mid-write must
	// never be able to produce one: the replacement is atomic.
	return checkpoint.WriteFileAtomic(path, append(out, '\n'))
}

// benchSnapshot is the BENCH_fig7.json schema: the §3.3 campaign hot
// path measured on the fused engine and the reference loop, plus the
// campaign's own sanity metrics so a perf gain that breaks the science
// is visible in the same file.
type benchSnapshot struct {
	Experiment string `json:"experiment"`
	Steps      int64  `json:"steps"`
	Seed       uint64 `json:"seed"`
	GoMaxProcs int    `json:"gomaxprocs"`

	Engine    benchRow `json:"engine"`
	Reference benchRow `json:"reference"`
	// Speedup is reference ns/round over engine ns/round.
	Speedup float64 `json:"speedup"`

	// Campaign sanity: both paths must agree on these.
	Failures      int64   `json:"failures"`
	Resizes       int64   `json:"resizes"`
	TimeAtMinimum float64 `json:"time_at_min_redundancy"`
}

// benchRow is one engine's measurement.
type benchRow struct {
	NsPerRound     float64 `json:"ns_per_round"`
	AllocsPerRound float64 `json:"allocs_per_round"`
	BytesPerRound  float64 `json:"bytes_per_round"`
	RoundsPerSec   float64 `json:"rounds_per_sec"`
}

// measureCampaign times fn over steps rounds, reporting per-round cost
// from wall time and the allocator's own counters.
func measureCampaign(steps int64, fn func() error) (benchRow, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	if err := fn(); err != nil {
		return benchRow{}, err
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	fsteps := float64(steps)
	return benchRow{
		NsPerRound:     float64(elapsed.Nanoseconds()) / fsteps,
		AllocsPerRound: float64(m1.Mallocs-m0.Mallocs) / fsteps,
		BytesPerRound:  float64(m1.TotalAlloc-m0.TotalAlloc) / fsteps,
		RoundsPerSec:   fsteps / elapsed.Seconds(),
	}, nil
}

// runBench7 benchmarks the Fig. 7 campaign on both engines, writes the
// snapshot, and appends to the perf history.
func runBench7(steps int64, seed uint64, out, trajectory string, stdout io.Writer) error {
	cfg := experiments.DefaultFig7Config(steps)
	cfg.Seed = seed
	snap := benchSnapshot{
		Experiment: "fig7-adaptive-campaign",
		Steps:      cfg.Steps,
		Seed:       cfg.Seed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}

	fmt.Fprintf(stdout, "bench7: %d rounds per engine (seed %d)\n", cfg.Steps, cfg.Seed)
	// Both timed regions include campaign construction and result
	// folding, so the rows are like-for-like even at small -steps.
	var engRes, refRes experiments.AdaptiveRunResult
	var resizes int64
	var err error
	snap.Engine, err = measureCampaign(cfg.Steps, func() error {
		eng, err := experiments.NewCampaign(cfg)
		if err != nil {
			return err
		}
		eng.Run(cfg.Steps)
		engRes = eng.Result()
		resizes = eng.Switchboard().Resizes()
		return nil
	})
	if err != nil {
		return err
	}
	snap.Reference, err = measureCampaign(cfg.Steps, func() error {
		var err error
		refRes, err = experiments.RunAdaptiveReference(cfg)
		return err
	})
	if err != nil {
		return err
	}
	if a, b := experiments.RenderFig7(engRes, cfg.Policy.Min),
		experiments.RenderFig7(refRes, cfg.Policy.Min); a != b {
		return fmt.Errorf("bench7: engine and reference transcripts diverge — refusing to snapshot")
	}
	snap.Speedup = snap.Reference.NsPerRound / snap.Engine.NsPerRound
	snap.Failures = engRes.Failures
	snap.Resizes = resizes
	snap.TimeAtMinimum = engRes.MinFraction

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := checkpoint.WriteFileAtomic(out, data); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "engine:    %8.1f ns/round  %6.4f allocs/round  %12.0f rounds/sec\n",
		snap.Engine.NsPerRound, snap.Engine.AllocsPerRound, snap.Engine.RoundsPerSec)
	fmt.Fprintf(stdout, "reference: %8.1f ns/round  %6.4f allocs/round  %12.0f rounds/sec\n",
		snap.Reference.NsPerRound, snap.Reference.AllocsPerRound, snap.Reference.RoundsPerSec)
	fmt.Fprintf(stdout, "speedup:   %.2fx  (snapshot written to %s)\n", snap.Speedup, out)
	if trajectory != "" {
		err := appendTrajectory(trajectory, trajectoryEntry{
			Date:       time.Now().UTC().Format(time.RFC3339),
			Steps:      snap.Steps,
			Seed:       snap.Seed,
			GoMaxProcs: snap.GoMaxProcs,
			EngineNs:   snap.Engine.NsPerRound,
			RefNs:      snap.Reference.NsPerRound,
			Speedup:    snap.Speedup,
			RoundsSec:  snap.Engine.RoundsPerSec,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "perf history appended to %s\n", trajectory)
	}
	return nil
}
