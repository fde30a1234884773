// Parallel experiment runtime: a worker-pool runner for the independent
// replicas and configurations of the paper's sweeps (Fig. 4/5/6 grids,
// E8 dimensioning trials, E9/E10 parameter sweeps, voting farms).
//
// Determinism is by construction, not by luck: every task derives its
// randomness from the task's *index* (its own derived seed from
// xrand.Seeds), never from the worker that happens to execute it, and
// every task writes only its own slot of the result slice. A sweep run
// on 16 workers is therefore byte-identical to the same sweep run
// serially.
package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"

	"aft/internal/xrand"
)

// Workers normalizes a worker-count knob: values <= 0 mean one worker
// per available CPU (GOMAXPROCS).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// RunParallel evaluates n independent tasks on a bounded worker pool and
// returns their results in task order. workers <= 0 uses GOMAXPROCS; a
// single worker degenerates to a plain serial loop. If any task fails,
// the remaining tasks are abandoned (in-flight ones finish) and the
// first error in task order is returned.
func RunParallel[T any](n, workers int, task func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	if workers = Workers(workers); workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			v, err := task(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	var (
		next   atomic.Int64
		failed atomic.Bool
		errMu  sync.Mutex
		firstI int
		firstE error
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				v, err := task(i)
				if err != nil {
					failed.Store(true)
					errMu.Lock()
					if firstE == nil || i < firstI {
						firstI, firstE = i, err
					}
					errMu.Unlock()
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if firstE != nil {
		return nil, firstE
	}
	return out, nil
}

// SweepSeeds runs the same adaptive configuration once per seed — the
// independent-replica dimension of a Fig. 7-style campaign — on the
// batch engine, one lane per pool task. Result i always corresponds to
// seeds[i] and is identical to RunAdaptive with that seed, for every
// worker count.
func SweepSeeds(cfg AdaptiveRunConfig, seeds []uint64, workers int) ([]AdaptiveRunResult, error) {
	lanes := make([]BatchLane, len(seeds))
	for i, s := range seeds {
		lanes[i] = BatchLane{Seed: s, Policy: cfg.Policy}
	}
	return runLanesParallel(cfg, lanes, workers)
}

// SweepReplicas runs n replicas of the same adaptive configuration with
// seeds derived from cfg.Seed via xrand.Seeds. Replica i's seed depends
// only on (cfg.Seed, i), so campaigns are reproducible end to end.
func SweepReplicas(cfg AdaptiveRunConfig, n, workers int) ([]AdaptiveRunResult, error) {
	return SweepSeeds(cfg, xrand.Seeds(cfg.Seed, n), workers)
}
