// Command aftvet is the repository's contract gate: a static-analysis
// suite, built on go/parser and go/types alone, that mechanically
// enforces the two code-level contracts every guarantee in this repo
// rests on — determinism (same seed, same bytes) and crash-safe
// persistence (every durable write is atomic, every snapshot
// round-trips).
//
// Five analyzers run over the module:
//
//   - determinism — in transcript-affecting packages, forbids wall-clock
//     reads (time.Now & co.), math/rand in any form (internal/xrand is
//     the sanctioned source), and map iteration whose order can reach
//     output without a sorted-keys guard;
//   - atomicwrite — in persistence packages, forbids direct
//     os.WriteFile/os.Create/os.Rename; durable writes go through
//     checkpoint.WriteFileAtomic;
//   - snapshotpair — a type exporting state (Snapshot/ExportState/
//     State) must have the matching restore (Restore/RestoreState/
//     SetState/Resume), and vice versa, so the checkpoint schema cannot
//     drift one-sidedly;
//   - errclose — in persistence packages, errors from Close/Sync/Flush/
//     Write must be handled or explicitly discarded with _ =;
//   - lockcopy — methods on mutex-guarded structs must not return
//     interior references to guarded maps or slices; copy under the
//     lock (the metrics.Registry pattern).
//
// A finding is printed as "file:line: analyzer: message" (or as JSON
// with per-analyzer counts under -json) and makes the command exit 1.
// Deliberate exceptions are annotated in the source as
//
//	//aftvet:allow <analyzer> -- <reason>
//
// on the flagged line or the line above it. The reason is mandatory
// (tools/doclint rule 4 enforces it too), unknown analyzer names are
// findings, and an annotation that suppresses nothing is itself a
// finding, so stale exemptions cannot accumulate.
//
// Usage:
//
//	go run ./tools/aftvet [-json] [-list] [packages]
//
// packages defaults to ./... resolved from the module root; the command
// works from any directory inside the module.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"sort"
	"strings"
)

// Finding is one contract violation.
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// reporter records a finding at a position.
type reporter func(pos token.Pos, format string, args ...any)

// analyzer is one named check with a package scope.
type analyzer struct {
	name    string
	summary string
	scope   []string // module-relative path prefixes; nil = every package
	run     func(p *Package, report reporter)
}

// transcriptPackages are the packages whose code can influence a golden
// transcript, a figure, or a checkpoint byte stream: the determinism
// contract is absolute there. internal/xrand is in scope too — the
// sanctioned randomness source must itself stay deterministic.
var transcriptPackages = []string{
	"internal/accada",
	"internal/alphacount",
	"internal/experiments",
	"internal/faults",
	"internal/redundancy",
	"internal/scenario",
	"internal/simclock",
	"internal/trace",
	"internal/voting",
	"internal/watchdog",
	"internal/xrand",
}

// persistencePackages are the packages that write durable state: job
// stores, checkpoints, campaign snapshots, bench snapshots, and the
// binaries that drive them.
var persistencePackages = []string{
	"internal/checkpoint",
	"internal/experiments",
	"internal/jobs",
	"cmd/aft-bench",
	"cmd/aft-serve",
}

// libraryPackages cover the root package and everything under
// internal/ — the API surface checkpoints are built from.
var libraryPackages = []string{".", "internal"}

// analyzers is the suite, in report order.
var analyzers = []*analyzer{
	{
		name:    "determinism",
		summary: "no wall-clock, no math/rand, no map-order leaks in transcript-affecting packages",
		scope:   transcriptPackages,
		run:     runDeterminism,
	},
	{
		name:    "atomicwrite",
		summary: "durable writes go through checkpoint.WriteFileAtomic in persistence packages",
		scope:   persistencePackages,
		run:     runAtomicWrite,
	},
	{
		name:    "snapshotpair",
		summary: "state export (Snapshot/ExportState/State) and restore (Restore/SetState/Resume) come in pairs",
		scope:   libraryPackages,
		run:     runSnapshotPair,
	},
	{
		name:    "errclose",
		summary: "Close/Sync/Flush/Write errors are handled, not dropped, in persistence packages",
		scope:   persistencePackages,
		run:     runErrClose,
	},
	{
		name:    "lockcopy",
		summary: "no interior references to mutex-guarded maps/slices escape their lock",
		scope:   nil,
		run:     runLockCopy,
	},
}

// inScope reports whether a module-relative package path is covered.
func (a *analyzer) inScope(rel string) bool {
	if a.scope == nil {
		return true
	}
	for _, s := range a.scope {
		if rel == s || strings.HasPrefix(rel, s+"/") {
			return true
		}
	}
	return false
}

// knownAnalyzers returns the set of valid names for allow validation.
func knownAnalyzers() map[string]bool {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.name] = true
	}
	return known
}

// jsonReport is the -json output schema.
type jsonReport struct {
	Module   string         `json:"module"`
	Packages int            `json:"packages"`
	Counts   map[string]int `json:"counts"`
	Findings []Finding      `json:"findings"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: 0 clean, 1 findings, 2 usage or
// load failure.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aftvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings and per-analyzer counts as JSON")
	list := fs.Bool("list", false, "list the analyzers and their scopes, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analyzers {
			scope := "all packages"
			if a.scope != nil {
				scope = strings.Join(a.scope, ", ")
			}
			fmt.Fprintf(stdout, "%-13s %s\n%13s   scope: %s\n", a.name, a.summary, "", scope)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	ld, err := newLoader(patterns, nil)
	if err != nil {
		fmt.Fprintln(stderr, "aftvet:", err)
		return 2
	}
	pkgs, err := ld.load()
	if err != nil {
		fmt.Fprintln(stderr, "aftvet:", err)
		return 2
	}

	findings, nPkgs := analyze(pkgs, ld.relFile)
	counts := map[string]int{"allow": 0}
	for _, a := range analyzers {
		counts[a.name] = 0
	}
	for _, f := range findings {
		counts[f.Analyzer]++
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []Finding{}
		}
		if err := enc.Encode(jsonReport{Module: ld.modulePath, Packages: nPkgs, Counts: counts, Findings: findings}); err != nil {
			fmt.Fprintln(stderr, "aftvet:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s:%d: %s: %s\n", f.File, f.Line, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "aftvet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// analyze runs every in-scope analyzer over every package and applies
// the allow annotations.
func analyze(pkgs []*Package, relFile func(string) string) ([]Finding, int) {
	known := knownAnalyzers()
	var findings []Finding
	for _, p := range pkgs {
		var raw []Finding
		for _, a := range analyzers {
			if !a.inScope(p.Rel) {
				continue
			}
			name := a.name
			a.run(p, func(pos token.Pos, format string, args ...any) {
				position := p.Fset.Position(pos)
				raw = append(raw, Finding{
					File:     relFile(position.Filename),
					Line:     position.Line,
					Analyzer: name,
					Message:  fmt.Sprintf(format, args...),
				})
			})
		}
		allows, bad := parseAllows(p, known, relFile)
		raw = applyAllows(raw, allows)
		findings = append(findings, raw...)
		findings = append(findings, bad...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	// One statement can trip the same rule twice (e.g. a two-variable
	// assignment); report it once.
	deduped := findings[:0]
	for i, f := range findings {
		if i == 0 || f != findings[i-1] {
			deduped = append(deduped, f)
		}
	}
	return deduped, len(pkgs)
}
