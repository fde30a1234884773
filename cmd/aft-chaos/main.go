// Command aft-chaos runs the deterministic cross-strategy chaos
// scenarios of internal/scenario outside `go test`: it executes a
// builtin scenario (or a JSON spec file) from a seed, prints the
// canonical event transcript, evaluates the run-time invariants, and
// can replay the organ track differentially on the switchboard's two
// faulty-round paths: the fused engine's reusable ballot buffer
// (StepFaulty) and the reference loop's heap ballots (StepFaultyRef).
// The -diff line keeps calling them the fused engine and the reference
// loop.
//
// Exit status: non-zero when -invariants finds a violation (the message
// names the invariant and the simulated time), when -diff detects an
// engine divergence, or on any usage error.
//
// With -gen N the command switches to fuzzing mode: it generates N
// random specs from the corpus seed (internal/scenario/gen), checks
// each one, optionally shrinks every failure to a minimal reproducer
// (-shrink), writes the shrunk specs as JSON files (-shrink-out), and
// exits non-zero if any spec failed. The corpus is a pure function of
// -seed, so a failing run is reproducible bit for bit.
//
// Usage:
//
//	aft-chaos -list
//	aft-chaos [-scenario name|file.json] [-seed N] [-invariants] [-diff]
//	          [-quiet] [-print-spec] [-sabotage invariant]
//	aft-chaos -gen N [-seed S] [-diff] [-shrink] [-shrink-out dir]
//
// -sabotage is a test-only hook that deliberately breaks the named
// invariant mid-run, proving the checkers (and this command's exit
// code) actually fire.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"aft/internal/cli"
	"aft/internal/scenario"
	"aft/internal/scenario/gen"
)

func main() {
	// No timestamp: the same arguments give the same stderr.
	log.SetFlags(0)
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("aft-chaos", flag.ContinueOnError)
	name := fs.String("scenario", "storm-replay", "builtin scenario name or path to a JSON spec file")
	seed := fs.Uint64("seed", 0, "seed override (0 = the spec's default)")
	invariants := fs.Bool("invariants", false, "evaluate invariants and exit non-zero on any violation")
	diff := fs.Bool("diff", false, "differentially replay the organ track on the switchboard's fused and reference paths")
	quiet := fs.Bool("quiet", false, "suppress the event transcript, print only the summary lines")
	printSpec := fs.Bool("print-spec", false, "print the scenario spec as JSON (the -scenario file format) and exit")
	sabotage := fs.String("sabotage", "", "test-only: deliberately violate the named invariant mid-run")
	list := fs.Bool("list", false, "list builtin scenarios and exit")
	genN := fs.Int("gen", 0, "fuzzing mode: generate and check this many random specs from -seed")
	shrink := fs.Bool("shrink", false, "with -gen: minimize every failing spec to a reproducer")
	shrinkOut := fs.String("shrink-out", "", "with -gen -shrink: write shrunk reproducer specs into this directory")
	if done, err := cli.Parse(fs, args, stdout); done {
		return err
	}

	if *genN > 0 {
		return runGen(stdout, *genN, *seed, gen.Options{Diff: *diff, Shrink: *shrink || *shrinkOut != ""}, *shrinkOut)
	}

	if *list {
		for _, n := range scenario.Names() {
			s, _ := scenario.Builtin(n)
			fmt.Fprintf(stdout, "%-18s %s\n", n, s.Description)
		}
		return nil
	}

	spec, ok := scenario.Builtin(*name)
	if !ok {
		var err error
		if spec, err = scenario.Load(*name); err != nil {
			return fmt.Errorf("scenario %q is neither builtin nor loadable: %w (use -list)", *name, err)
		}
	}

	if *printSpec {
		data, err := spec.Encode()
		if err != nil {
			return err
		}
		_, err = stdout.Write(data)
		return err
	}

	res, err := scenario.Run(spec, scenario.Options{Seed: *seed, Sabotage: *sabotage})
	if err != nil {
		return err
	}
	transcript := res.Transcript
	if *quiet {
		var b strings.Builder
		for _, line := range strings.SplitAfter(transcript, "\n") {
			if strings.Contains(line, "] summary ") || strings.Contains(line, "] violation ") {
				b.WriteString(line)
			}
		}
		transcript = b.String()
	}
	fmt.Fprint(stdout, transcript)

	if *diff {
		rep, err := scenario.Differential(spec, *seed)
		if err != nil {
			return err
		}
		if rep.Rounds == 0 {
			fmt.Fprintln(stdout, "differential: no organ track to compare")
		} else {
			fmt.Fprintf(stdout, "differential: fused engine and reference loop agree over %d rounds\n", rep.Rounds)
		}
	}

	if *invariants {
		if len(res.Violations) > 0 {
			return fmt.Errorf("%d invariant violation(s); first: %s", len(res.Violations), res.Violations[0])
		}
		fmt.Fprintf(stdout, "invariants: %d checks, all held\n", res.InvariantsChecked)
	}
	return nil
}

// runGen drives a fuzz campaign: generate, check, shrink, report. The
// exit status is non-zero when any generated spec fails.
func runGen(stdout io.Writer, n int, seed uint64, opt gen.Options, outDir string) error {
	if seed == 0 {
		seed = 1
	}
	rep := gen.Campaign(seed, n, opt)
	for _, f := range rep.Findings {
		fmt.Fprintf(stdout, "FAIL %s [%s]: %s\n", f.Spec.Name, f.Signature, f.Detail)
		if f.Shrunk != nil {
			data, err := f.Shrunk.Encode()
			if err != nil {
				return err
			}
			if outDir != "" {
				path := filepath.Join(outDir, f.Spec.Name+".json")
				if err := os.WriteFile(path, data, 0o644); err != nil {
					return err
				}
				fmt.Fprintf(stdout, "  shrunk reproducer (%d evals) written to %s\n", f.ShrinkEvals, path)
			} else {
				fmt.Fprintf(stdout, "  shrunk reproducer (%d evals):\n%s", f.ShrinkEvals, data)
			}
		}
	}
	fmt.Fprintf(stdout, "gen: seed=%d specs=%d findings=%d\n", rep.Seed, rep.Specs, len(rep.Findings))
	if len(rep.Findings) > 0 {
		return fmt.Errorf("gen: %d of %d generated specs failed", len(rep.Findings), rep.Specs)
	}
	return nil
}
