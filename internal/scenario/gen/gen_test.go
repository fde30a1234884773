package gen

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestGeneratorDeterministic: the corpus is a pure function of the
// seed — two generators with the same seed emit byte-identical specs.
func TestGeneratorDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 200; i++ {
		sa, sb := a.Next(), b.Next()
		da, err := json.Marshal(sa)
		if err != nil {
			t.Fatal(err)
		}
		db, err := json.Marshal(sb)
		if err != nil {
			t.Fatal(err)
		}
		if string(da) != string(db) {
			t.Fatalf("spec %d diverges between same-seed generators:\n%s\n%s", i, da, db)
		}
	}
}

// TestGeneratorSeedsDiffer: different seeds explore different corpora.
func TestGeneratorSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 50; i++ {
		if reflect.DeepEqual(a.Next(), b.Next()) {
			same++
		}
	}
	if same == 50 {
		t.Fatal("seeds 1 and 2 generated identical corpora")
	}
}

// TestGeneratorSpecsValid: every generated spec passes Validate and
// runs without error — the generator is correct by construction over
// the whole spec space, including the new fault models.
func TestGeneratorSpecsValid(t *testing.T) {
	g := New(7)
	sawCollude, sawPartition, sawSkew := false, false, false
	for i := 0; i < 300; i++ {
		spec := g.Next()
		if err := spec.Validate(); err != nil {
			t.Fatalf("spec %d invalid: %v", i, err)
		}
		for _, ph := range spec.Phases {
			sawCollude = sawCollude || ph.Collude
			sawPartition = sawPartition || ph.Partition
			sawSkew = sawSkew || ph.Skew > 0
		}
	}
	if !sawCollude || !sawPartition || !sawSkew {
		t.Fatalf("corpus never exercised a new fault model: collude=%v partition=%v skew=%v",
			sawCollude, sawPartition, sawSkew)
	}
}

// TestGeneratedSpecsRun: a slice of the corpus runs clean end to end —
// invariants hold and the fused and reference engines agree on every
// generated organ track, colluding and partitioned rounds included.
func TestGeneratedSpecsRun(t *testing.T) {
	g := New(11)
	for i := 0; i < 60; i++ {
		spec := g.Next()
		if sig, detail := Check(spec, true); sig != "" {
			t.Fatalf("spec %s fails [%s]: %s", spec.Name, sig, detail)
		}
	}
}
