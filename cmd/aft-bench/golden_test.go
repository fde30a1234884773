package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aft/internal/experiments"
)

// -update rewrites the committed figure golden. Workflow: change a
// figure's configuration or an engine, run
//
//	go test ./cmd/aft-bench -run TestFiguresGolden -update
//
// and review the diff of testdata/figures.golden like any other code
// change.
var update = flag.Bool("update", false, "rewrite the figure golden")

// TestFiguresGolden pins every figure of the paper, with Fig. 7 at the
// paper's full 65 M rounds, byte for byte. The run is deterministic, so
// any change to a figure's output — a storm dwell, a threshold, an
// engine's arithmetic — fails here until the golden is regenerated.
func TestFiguresGolden(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-fig", "all", "-steps", "65000000"}, &out); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "figures.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if string(want) != out.String() {
		t.Fatalf("figures deviate from golden %s\n--- got\n%s", path, out.String())
	}
}

// TestFig7ReferenceMatchesGolden holds the kernel to its oracle at the
// paper's full length: the reference loop's 65 M-round Fig. 7 must
// render the Fig. 7 section of the figure golden, the section
// TestFiguresGolden pins the kernel's run to. The reference loop is the
// slowest engine: this takes about 7 s on a 2-vCPU VM (about 42 s under
// -race), and skips under -short.
func TestFig7ReferenceMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the reference loop for 65 M rounds")
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "figures.golden"))
	if err != nil {
		t.Fatal(err)
	}
	_, want, ok := strings.Cut(string(golden), "\n================ 7 ================\n(running 65000000 rounds)\n")
	if !ok {
		t.Fatal("figure golden has no 65 M-round Fig. 7 section")
	}
	want, _, _ = strings.Cut(want, "\n\n")
	want += "\n"
	cfg := experiments.DefaultFig7Config(65_000_000)
	res, err := experiments.RunAdaptiveReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := experiments.RenderFig7(res, cfg.Policy.Min); got != want {
		t.Fatalf("the reference loop deviates from the golden's Fig. 7\n--- got\n%s\n--- want\n%s", got, want)
	}
}
