package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"aft/internal/redundancy"
)

func TestRunParallelPreservesTaskOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		got, err := RunParallel(100, workers, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d = %d", workers, i, v)
			}
		}
	}
}

func TestRunParallelEmpty(t *testing.T) {
	got, err := RunParallel(0, 4, func(int) (int, error) { return 0, errors.New("never") })
	if err != nil || len(got) != 0 {
		t.Fatalf("empty run: %v, %v", got, err)
	}
}

func TestRunParallelStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	_, err := RunParallel(1000, 4, func(i int) (int, error) {
		ran.Add(1)
		if i == 7 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n := ran.Load(); n == 1000 {
		t.Fatal("error did not stop the pool")
	}
}

func TestE9ParallelMatchesSerial(t *testing.T) {
	cfg := DefaultE9Config()
	cfg.Traces = 40
	serial, err := RunE9(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 16} {
		parallel, err := RunE9(cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("workers=%d: rows diverge from serial", workers)
		}
		if RenderE9(serial) != RenderE9(parallel) {
			t.Fatalf("workers=%d: rendered output diverges", workers)
		}
	}
	if _, err := RunE9(E9Config{}, 4); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestE10ParallelMatchesSerial(t *testing.T) {
	serial, err := RunE10(60_000, 42, []int{10, 1000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunE10(60_000, 42, []int{10, 1000}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("rows diverge from serial")
	}
	if RenderE10(serial) != RenderE10(parallel) {
		t.Fatal("rendered output diverges")
	}
}

func TestE8ParallelMatchesSerial(t *testing.T) {
	serial, err := RunE8(30_000, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunE8(30_000, 42, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("rows diverge from serial")
	}
	if RenderE8(serial) != RenderE8(parallel) {
		t.Fatal("rendered output diverges")
	}
}

func TestSweepReplicasDeterministic(t *testing.T) {
	cfg := AdaptiveRunConfig{
		Steps:  20_000,
		Seed:   1906,
		Policy: redundancy.DefaultPolicy(),
		Storms: DefaultFig6Storms(),
	}
	one, err := SweepReplicas(cfg, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	many, err := SweepReplicas(cfg, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 6 || len(many) != 6 {
		t.Fatalf("replica counts: %d, %d", len(one), len(many))
	}
	for i := range one {
		if !reflect.DeepEqual(one[i], many[i]) {
			t.Fatalf("replica %d diverges across worker counts", i)
		}
		if RenderFig7(one[i], cfg.Policy.Min) != RenderFig7(many[i], cfg.Policy.Min) {
			t.Fatalf("replica %d renders differently", i)
		}
	}
	// Replicas use distinct derived seeds, so they are genuinely
	// different trials, not copies.
	distinct := false
	for i := 1; i < len(one); i++ {
		if fmt.Sprint(one[i].Hist.Values()) != fmt.Sprint(one[0].Hist.Values()) ||
			one[i].Hist.Count(one[i].Hist.Values()[0]) != one[0].Hist.Count(one[0].Hist.Values()[0]) {
			distinct = true
			break
		}
	}
	if !distinct {
		t.Log("replicas coincide on this regime (allowed, but unexpected)")
	}
}

// TestLanesPerTask pins how runLanesParallel cuts a sweep into pool
// tasks: groups of four once there are four lanes per worker, an even
// share per worker below that, and one lane per task when there are no
// more lanes than workers.
func TestLanesPerTask(t *testing.T) {
	for _, c := range []struct{ lanes, workers, want int }{
		{0, 2, 1}, {1, 1, 1}, {2, 4, 1}, {4, 4, 1}, {4, 2, 2}, {5, 4, 2},
		{5, 2, 3}, {4, 1, 4}, {9, 2, 4}, {32, 2, 4}, {32, 16, 2},
	} {
		if got := lanesPerTask(c.lanes, c.workers); got != c.want {
			t.Errorf("lanesPerTask(%d lanes, %d workers) = %d, want %d", c.lanes, c.workers, got, c.want)
		}
	}
}

func TestWorkers(t *testing.T) {
	if Workers(-1) < 1 || Workers(0) < 1 {
		t.Fatal("Workers must default to at least one worker")
	}
	if Workers(5) != 5 {
		t.Fatalf("Workers(5) = %d", Workers(5))
	}
}
