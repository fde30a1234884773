package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
