package main

import (
	"strings"
	"testing"
)

func TestRunSmallCampaign(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-steps", "20000", "-seed", "7"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, needle := range []string{"running 20000 rounds", "Fig. 7", "time at minimal redundancy"} {
		if !strings.Contains(got, needle) {
			t.Errorf("output lacks %q", needle)
		}
	}
}

func TestRunReplicaSweep(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-steps", "10000", "-replicas", "2", "-parallel", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "aggregate over 2 replicas") {
		t.Fatalf("missing aggregate line:\n%s", out.String())
	}
}
