package main

import (
	"strings"
	"testing"
)

// TestReplicaSweepParallelMatchesSerial runs replica sweeps on two
// workers and on one: below the header line, which names the worker
// count, the outputs are byte-identical. Nine replicas on two workers
// run as pool tasks of five and four lanes, and seventeen as tasks of
// eight, eight and one, so scans of every width run beside each other.
func TestReplicaSweepParallelMatchesSerial(t *testing.T) {
	for _, replicas := range []string{"9", "17"} {
		t.Run(replicas, func(t *testing.T) {
			var below [2]string
			for i, workers := range []string{"2", "1"} {
				var out strings.Builder
				if err := run([]string{"-replicas", replicas, "-parallel", workers}, &out); err != nil {
					t.Fatal(err)
				}
				_, below[i], _ = strings.Cut(out.String(), "\n")
			}
			if below[0] != below[1] {
				t.Fatalf("-parallel 2 deviates from -parallel 1 below the header\n--- 2 workers\n%s\n--- 1 worker\n%s", below[0], below[1])
			}
		})
	}
}
