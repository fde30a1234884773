package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunFig4(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-fig", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Fig. 4") {
		t.Fatalf("Fig. 4 output missing:\n%s", out.String())
	}
}

func TestRunFig5(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-fig", "5"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Fig. 5") {
		t.Fatalf("Fig. 5 output missing:\n%s", out.String())
	}
}

func TestRunUnknownFig(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-fig", "99"}, &out); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestRunBench7WritesSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("bench7 times two engine runs")
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.json")
	traj := filepath.Join(dir, "trajectory.json")
	var buf strings.Builder
	if err := run([]string{"-fig", "bench7", "-steps", "50000", "-bench-out", out, "-trajectory", traj}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "speedup:") {
		t.Fatalf("bench7 output lacks speedup line:\n%s", buf.String())
	}
}

// TestBench7AppendsTrajectory asserts the perf history grows by one
// dated entry per bench7 run instead of being overwritten.
func TestBench7AppendsTrajectory(t *testing.T) {
	if testing.Short() {
		t.Skip("bench7 times two engine runs")
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.json")
	traj := filepath.Join(dir, "trajectory.json")
	for i := 0; i < 2; i++ {
		var buf strings.Builder
		if err := run([]string{"-fig", "bench7", "-steps", "30000", "-bench-out", out, "-trajectory", traj}, &buf); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(traj)
	if err != nil {
		t.Fatal(err)
	}
	var entries []map[string]any
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatalf("trajectory is not a JSON array: %v\n%s", err, data)
	}
	if len(entries) != 2 {
		t.Fatalf("trajectory has %d entries after 2 runs", len(entries))
	}
	for _, e := range entries {
		if e["date"] == "" || e["speedup"] == nil {
			t.Fatalf("entry lacks date/speedup: %v", e)
		}
	}
	// A corrupt history must be an error, not silently discarded.
	if err := os.WriteFile(traj, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := run([]string{"-fig", "bench7", "-steps", "30000", "-bench-out", out, "-trajectory", traj}, &buf); err == nil {
		t.Fatal("corrupt trajectory accepted")
	}
}
