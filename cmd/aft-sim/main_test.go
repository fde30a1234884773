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
	for _, needle := range []string{"running 20000 rounds", "batch engine", "Fig. 7", "time at minimal redundancy"} {
		if !strings.Contains(got, needle) {
			t.Errorf("output lacks %q", needle)
		}
	}
}

func TestRunEnginesAgreeBelowHeader(t *testing.T) {
	render := func(engine string) string {
		var out strings.Builder
		if err := run([]string{"-steps", "20000", "-engine", engine}, &out); err != nil {
			t.Fatal(err)
		}
		_, rest, ok := strings.Cut(out.String(), "\n")
		if !ok {
			t.Fatalf("no header line in output")
		}
		return rest
	}
	if render("batch") != render("reference") {
		t.Fatal("batch and reference transcripts diverge below the header")
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

func TestRunRejectsBadEngine(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-engine", "warp"}, &out); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if err := run([]string{"-engine", "reference", "-replicas", "2", "-steps", "1000"}, &out); err == nil {
		t.Fatal("reference engine accepted for a replica sweep")
	}
}
