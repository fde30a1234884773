// Command aft-audit loads an assumption-carrying deployment manifest
// (or prints/audits the built-in sample) and reports the syndromes
// detectable before the system ever runs: undocumented or unbound
// assumption variables, unverifiable bindings, and a Boulding category
// shortfall against the target environment.
//
// With -env it additionally performs the §4 re-qualification activity:
// the manifest's recorded bindings are matched against the destination
// environment's facts (a JSON object mapping variable names to observed
// hypothesis IDs) and stale bindings are reported.
//
// Usage:
//
//	aft-audit [-manifest FILE] [-env FILE] [-print-sample]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"aft/internal/cli"
	"aft/internal/manifest"
)

func main() {
	// No timestamp: the same arguments give the same stderr.
	log.SetFlags(0)
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("aft-audit", flag.ContinueOnError)
	path := fs.String("manifest", "", "path to a JSON manifest (default: built-in sample)")
	envPath := fs.String("env", "", "path to a JSON environment-fact file for re-qualification")
	printSample := fs.Bool("print-sample", false, "print the built-in sample manifest and exit")
	if done, err := cli.Parse(fs, args, stdout); done {
		return err
	}

	if *printSample {
		data, err := manifest.Example().Encode()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(data))
		return nil
	}

	m := manifest.Example()
	if *path != "" {
		data, err := os.ReadFile(*path)
		if err != nil {
			return err
		}
		m, err = manifest.Parse(data)
		if err != nil {
			return err
		}
	}

	rep, err := m.Audit()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "system:            %s\n", rep.System)
	fmt.Fprintf(stdout, "boulding category: %v (required: %v)\n", rep.Category, rep.RequiredCategory)
	if rep.BouldingClash {
		fmt.Fprintln(stdout, "  !! Boulding clash: the system is underqualified for its environment")
	}
	if len(rep.Findings) == 0 {
		fmt.Fprintln(stdout, "no findings: every assumption is bound and verifiable")
	} else {
		fmt.Fprintf(stdout, "%d finding(s):\n", len(rep.Findings))
		for _, f := range rep.Findings {
			fmt.Fprintf(stdout, "  %-36s %s\n", f.Variable, f.Problem)
		}
	}

	if *envPath == "" {
		return nil
	}
	data, err := os.ReadFile(*envPath)
	if err != nil {
		return err
	}
	var env map[string]string
	if err := json.Unmarshal(data, &env); err != nil {
		return fmt.Errorf("parse environment facts: %w", err)
	}
	stale := m.Requalify(env)
	if len(stale) == 0 {
		fmt.Fprintln(stdout, "re-qualification: every recorded binding holds in the destination environment")
		return nil
	}
	fmt.Fprintf(stdout, "re-qualification: %d stale binding(s):\n", len(stale))
	for _, s := range stale {
		note := "rebind to the observed alternative"
		if !s.Declared {
			note = "observed fact is OUTSIDE the declared alternatives — redesign required"
		}
		fmt.Fprintf(stdout, "  %-36s bound %q, observed %q — %s\n", s.Variable, s.Bound, s.Observed, note)
	}
	return nil
}
