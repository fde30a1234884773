package experiments

import (
	"strings"
	"testing"
)

func TestE9Validation(t *testing.T) {
	if _, err := RunE9(E9Config{}, 1); err == nil {
		t.Fatal("empty config accepted")
	}
	bad := DefaultE9Config()
	bad.Ks = []float64{2.0}
	if _, err := RunE9(bad, 1); err == nil {
		t.Fatal("invalid K accepted")
	}
}

func TestE9SweepShape(t *testing.T) {
	cfg := DefaultE9Config()
	cfg.Traces = 60 // keep the test quick
	rows, err := RunE9(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cfg.Ks)*len(cfg.Thresholds) {
		t.Fatalf("rows = %d", len(rows))
	}
	byKT := func(k, threshold float64) E9Row {
		for _, r := range rows {
			if r.K == k && r.Threshold == threshold {
				return r
			}
		}
		t.Fatalf("row (%v,%v) missing", k, threshold)
		return E9Row{}
	}

	// Permanent faults are never missed anywhere on the grid: an
	// uninterrupted fault run must cross any finite threshold.
	for _, r := range rows {
		if r.MissedPermanent != 0 {
			t.Errorf("K=%v T=%v missed %v of permanents", r.K, r.Threshold, r.MissedPermanent)
		}
	}

	// Trade-off direction 1: at fixed K, raising the threshold cannot
	// increase the false-permanent rate and cannot decrease latency.
	for _, k := range cfg.Ks {
		low, high := byKT(k, 2), byKT(k, 6)
		if high.FalsePermanent > low.FalsePermanent {
			t.Errorf("K=%v: false-permanent rose with threshold (%v -> %v)",
				k, low.FalsePermanent, high.FalsePermanent)
		}
		if high.MeanLatency < low.MeanLatency {
			t.Errorf("K=%v: latency fell with threshold (%v -> %v)",
				k, low.MeanLatency, high.MeanLatency)
		}
	}

	// Trade-off direction 2: at fixed threshold, a more forgetful
	// filter (smaller K) produces no more false permanents.
	for _, threshold := range cfg.Thresholds {
		forgetful, sticky := byKT(0.3, threshold), byKT(0.9, threshold)
		if forgetful.FalsePermanent > sticky.FalsePermanent {
			t.Errorf("T=%v: smaller K gave more false permanents (%v vs %v)",
				threshold, forgetful.FalsePermanent, sticky.FalsePermanent)
		}
	}

	// The paper's operating point is clean on this workload: no false
	// permanents and prompt detection.
	op := byKT(0.5, 3)
	if op.FalsePermanent > 0.05 {
		t.Errorf("paper operating point false-permanent = %v", op.FalsePermanent)
	}
	if op.MeanLatency > 5 {
		t.Errorf("paper operating point latency = %v", op.MeanLatency)
	}

	out := RenderE9(rows)
	if !strings.Contains(out, "K=0.50 T=3.0") {
		t.Fatalf("render broken:\n%s", out)
	}
}

func TestE10SweepShape(t *testing.T) {
	rows, err := RunE10(120_000, 42, []int{10, 1000, 10000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byLA := map[int]E10Row{}
	for _, r := range rows {
		byLA[r.LowerAfter] = r
	}
	// Longer hysteresis holds redundancy longer: average redundancy is
	// non-decreasing in LowerAfter, and time at the minimum is
	// non-increasing.
	if byLA[10].AvgRedundancy > byLA[1000].AvgRedundancy ||
		byLA[1000].AvgRedundancy > byLA[10000].AvgRedundancy {
		t.Fatalf("avg redundancy not monotone: %v %v %v",
			byLA[10].AvgRedundancy, byLA[1000].AvgRedundancy, byLA[10000].AvgRedundancy)
	}
	if byLA[10].MinFraction < byLA[10000].MinFraction {
		// (equal is fine on short runs)
		t.Logf("min fractions: %v vs %v", byLA[10].MinFraction, byLA[10000].MinFraction)
	}
	// Shorter hysteresis churns more.
	if byLA[10].Resizes < byLA[10000].Resizes {
		t.Fatalf("resize churn not monotone: %d vs %d", byLA[10].Resizes, byLA[10000].Resizes)
	}
	// The ramping storms are defeated at every setting on this seed:
	// hysteresis trades cost, not correctness, in this regime.
	for _, r := range rows {
		if r.Failures != 0 {
			t.Errorf("LowerAfter=%d: %d failures", r.LowerAfter, r.Failures)
		}
	}
	out := RenderE10(rows)
	if !strings.Contains(out, "LowerAfter=1000") {
		t.Fatalf("render broken:\n%s", out)
	}
}

func TestE10Defaults(t *testing.T) {
	rows, err := RunE10(0, 1, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("default grid = %d rows", len(rows))
	}
}
