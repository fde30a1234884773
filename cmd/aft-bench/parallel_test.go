package main

import (
	"strings"
	"testing"
)

// TestParallelSweepsMatchSerial holds each pooled sweep (E8, E9, E10)
// to its serial run: on a two-worker pool, the output below the pool's
// banner line is byte-identical to the serial output.
func TestParallelSweepsMatchSerial(t *testing.T) {
	for _, fig := range []string{"e8", "e9", "e10"} {
		t.Run(fig, func(t *testing.T) {
			var serial, parallel strings.Builder
			if err := run([]string{"-fig", fig}, &serial); err != nil {
				t.Fatal(err)
			}
			if err := run([]string{"-fig", fig, "-parallel", "2"}, &parallel); err != nil {
				t.Fatal(err)
			}
			banner, below, _ := strings.Cut(parallel.String(), "\n")
			if banner != "(E8/E9/E10 sweeps on a 2-worker pool)" || below != serial.String() {
				t.Fatalf("-parallel 2 deviates from the serial run\n--- parallel\n%s\n--- serial\n%s", parallel.String(), serial.String())
			}
		})
	}
}
