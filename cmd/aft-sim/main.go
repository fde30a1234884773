// Command aft-sim runs the paper's §3.3 autonomic redundancy simulation
// with configurable length, seed, and disturbance regime, printing the
// Fig. 6-style series (when sampling) and the Fig. 7-style histogram.
//
// With -replicas R > 1 it runs R independent replicas of the campaign
// with seeds derived deterministically from -seed, spread across a
// worker pool (-parallel, 0 = one per CPU), and prints per-replica
// summaries plus the aggregate; replica i's result depends only on
// (seed, i), never on the worker count.
//
// Runs execute on the batch kernel (experiments.RunAdaptive). The
// kernel's agreement with the reference loop, the oracle, is held by
// Go tests: TestEngineMatchesReferenceFig7 in internal/experiments and
// TestFig7ReferenceMatchesGolden in cmd/aft-bench.
//
// A run keeps no checkpoint: the paper's full 65 M rounds take well
// under a second on the kernel, so a killed run is rerun from its
// flags. Campaigns that must survive a kill are submitted to aft-serve,
// whose job store checkpoints them.
//
// Usage:
//
//	aft-sim [-steps N] [-seed S] [-sample K] [-storm-every N] [-max-level L]
//	        [-replicas R] [-parallel W]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"aft/internal/cli"
	"aft/internal/experiments"
	"aft/internal/redundancy"
	"aft/internal/xrand"
)

func main() {
	// No timestamp: the same arguments give the same stderr.
	log.SetFlags(0)
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("aft-sim", flag.ContinueOnError)
	steps := fs.Int64("steps", 1_000_000, "number of voting rounds")
	seed := fs.Uint64("seed", 1906, "random seed")
	sample := fs.Int64("sample", 0, "series sampling period (0 = histogram only)")
	stormEvery := fs.Int64("storm-every", 0, "storm onset period (0 = steps/13)")
	maxLevel := fs.Int("max-level", 4, "maximum storm intensity level")
	replicas := fs.Int("replicas", 1, "independent replicas of the campaign")
	parallel := fs.Int("parallel", 0, "worker pool for replicas (0 = one per CPU)")
	if done, err := cli.Parse(fs, args, stdout); done {
		return err
	}

	cfg := stormConfig(*steps, *seed, *sample, *stormEvery, *maxLevel)
	if *replicas > 1 {
		return runReplicas(cfg, *replicas, *parallel, stdout)
	}

	fmt.Fprintf(stdout, "running %d rounds (seed %d, storms every %d rounds, max level %d)\n",
		cfg.Steps, cfg.Seed, cfg.Storms.StormEvery, cfg.Storms.MaxLevel)
	res, err := experiments.RunAdaptive(cfg)
	if err != nil {
		return err
	}
	if res.Redundancy != nil {
		fmt.Fprint(stdout, experiments.RenderFig6(res))
	}
	fmt.Fprint(stdout, experiments.RenderFig7(res, cfg.Policy.Min))
	return nil
}

// stormConfig assembles the campaign configuration from the flags.
func stormConfig(steps int64, seed uint64, sample, stormEvery int64, maxLevel int) experiments.AdaptiveRunConfig {
	cfg := experiments.DefaultFig7Config(steps)
	cfg.Seed = seed
	cfg.SampleEvery = sample
	if stormEvery > 0 {
		cfg.Storms.StormEvery = stormEvery
	}
	cfg.Storms.MaxLevel = maxLevel
	return cfg
}

// runReplicas fans the campaign out over derived seeds and aggregates.
func runReplicas(cfg experiments.AdaptiveRunConfig, replicas, parallel int, stdout io.Writer) error {
	if cfg.SampleEvery > 0 {
		fmt.Fprintln(stdout, "(-sample applies to single runs only; disabled for the replica sweep)")
		cfg.SampleEvery = 0
	}
	seeds := xrand.Seeds(cfg.Seed, replicas)
	fmt.Fprintf(stdout, "running %d replicas x %d rounds (root seed %d, %d workers)\n",
		replicas, cfg.Steps, cfg.Seed, experiments.Workers(parallel))
	results, err := experiments.SweepSeeds(cfg, seeds, parallel)
	if err != nil {
		return err
	}
	minR := redundancy.DefaultPolicy().Min
	var failures, replicaRounds, rounds int64
	var minFraction float64
	for i, res := range results {
		fmt.Fprintf(stdout, "  replica %2d (seed %20d): failures=%-4d time@min=%9.5f%% avg-redundancy=%.4f\n",
			i, seeds[i], res.Failures, 100*res.MinFraction,
			float64(res.ReplicaRounds)/float64(res.Rounds))
		failures += res.Failures
		replicaRounds += res.ReplicaRounds
		rounds += res.Rounds
		minFraction += res.MinFraction
	}
	fmt.Fprintf(stdout, "aggregate over %d replicas: failures=%d time@min(r=%d)=%.5f%% avg-redundancy=%.4f\n",
		replicas, failures, minR, 100*minFraction/float64(replicas),
		float64(replicaRounds)/float64(rounds))
	return nil
}
