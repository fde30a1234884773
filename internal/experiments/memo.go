// Memoized sweep cells: a content-addressed on-disk cache for the
// E8/E9/E10 ablation grids.
//
// Every cell of those sweeps is a pure function of its parameters — the
// spec (steps, storm regime, policy or filter configuration) and the
// seed — so recomputing a cell across aft-bench invocations is pure
// waste: the full-scale grids re-run minutes of campaign for rows that
// cannot change. SweepCache keys each cell by the SHA-256 of its
// canonical JSON spec (plus a schema version and the cell kind) and
// stores the row as JSON under that hash, FlorDB-style: memoization as
// checkpointing at the granularity of one sweep cell.
//
// Correctness rules:
//
//   - the key must cover every input the cell reads — all cached
//     variants below serialize the complete parameter set, never a
//     summary;
//   - memoCacheVersion must be bumped whenever any cell's semantics
//     change (an engine fix that alters transcripts, a new column), so
//     stale rows can never be served across a behaviour change;
//   - cache files are written atomically and unreadable/corrupt entries
//     are treated as misses and recomputed, never trusted.
package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"aft/internal/checkpoint"
)

// memoCacheVersion keys the cache schema: bump on any change to cell
// semantics or row layout, and stale entries become unreachable.
const memoCacheVersion = 1

// SweepCache is a content-addressed, concurrency-safe, on-disk cache of
// sweep cells. A nil *SweepCache is valid and disables memoization, so
// call sites thread an optional cache without branching.
type SweepCache struct {
	dir          string
	hits, misses atomic.Int64
}

// OpenSweepCache opens (creating if needed) a cache directory.
func OpenSweepCache(dir string) (*SweepCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("experiments: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &SweepCache{dir: dir}, nil
}

// Dir returns the cache directory.
func (c *SweepCache) Dir() string { return c.dir }

// Stats reports how many lookups hit and missed since the cache was
// opened.
func (c *SweepCache) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// cellKey computes the content address of a cell: SHA-256 over the cell
// kind, the cache schema version, and the canonical JSON of the
// complete parameter set.
func cellKey(kind string, params any) (string, error) {
	spec, err := json.Marshal(params)
	if err != nil {
		return "", fmt.Errorf("experiments: encode cache key: %w", err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s/v%d\n", kind, memoCacheVersion)
	h.Write(spec)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// memoProbe looks a cell up, counting a hit or a miss. The bool
// reports whether the cached value was served; an unreadable or corrupt
// entry is a miss, never an error.
func memoProbe[T any](c *SweepCache, kind string, params any) (T, bool, error) {
	var zero T
	key, err := cellKey(kind, params)
	if err != nil {
		return zero, false, err
	}
	if data, err := os.ReadFile(filepath.Join(c.dir, key+".json")); err == nil {
		var cached T
		if json.Unmarshal(data, &cached) == nil {
			c.hits.Add(1)
			return cached, true, nil
		}
		// Unreadable entry: fall through and recompute.
	}
	c.misses.Add(1)
	return zero, false, nil
}

// memoStore writes a computed cell under its content address.
func memoStore[T any](c *SweepCache, kind string, params any, v T) error {
	key, err := cellKey(kind, params)
	if err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return checkpoint.WriteFileAtomic(filepath.Join(c.dir, key+".json"), data)
}

// memoCell returns the cached value for (kind, params) or computes and
// stores it. Concurrent computations of the same cell are benign: both
// compute the same value and the atomic rename keeps the file whole.
func memoCell[T any](c *SweepCache, kind string, params any, compute func() (T, error)) (T, error) {
	if c == nil {
		return compute()
	}
	var zero T
	if v, ok, err := memoProbe[T](c, kind, params); err != nil || ok {
		return v, err
	}
	v, err := compute()
	if err != nil {
		return zero, err
	}
	if err := memoStore(c, kind, params, v); err != nil {
		return zero, err
	}
	return v, nil
}

// e8CellParams is the complete input set of one E8 cell.
type e8CellParams struct {
	Steps  int64
	Seed   uint64
	Storms StormConfig
	// Fixed is the organ size of a fixed contender, 0 for the autonomic
	// one.
	Fixed int
}

// RunE8ParallelCached is RunE8Parallel with per-cell memoization:
// already-computed cells are served from the cache, and the fresh ones
// run together as lanes of one batch before being stored. A
// nil cache degenerates to RunE8Parallel.
func RunE8ParallelCached(steps int64, seed uint64, workers int, cache *SweepCache) ([]E8Row, error) {
	if cache == nil {
		return RunE8Parallel(steps, seed, workers)
	}
	steps, storms := e8Setup(steps)
	params := func(i int) e8CellParams {
		p := e8CellParams{Steps: steps, Seed: seed, Storms: storms}
		if i < len(e8FixedSizes) {
			p.Fixed = e8FixedSizes[i]
		}
		return p
	}
	lanes := e8Lanes(seed)
	rows := make([]E8Row, len(lanes))
	var missing []int
	for i := range rows {
		row, ok, err := memoProbe[E8Row](cache, "e8", params(i))
		if err != nil {
			return nil, err
		}
		if ok {
			rows[i] = row
		} else {
			missing = append(missing, i)
		}
	}
	if len(missing) > 0 {
		fresh := make([]BatchLane, len(missing))
		for j, i := range missing {
			fresh[j] = lanes[i]
		}
		results, err := runLanesParallel(e8Cfg(steps, storms), fresh, 0, workers)
		if err != nil {
			return nil, err
		}
		for j, i := range missing {
			rows[i] = e8RowFrom(i, results[j])
			if err := memoStore(cache, "e8", params(i), rows[i]); err != nil {
				return nil, err
			}
		}
	}
	return rows, nil
}

// e9CellParams is the complete input set of one E9 cell.
type e9CellParams struct {
	K, Threshold float64
	Traces       int
	TraceLen     int
	TransientP   float64
	Seed         uint64
}

// RunE9ParallelCached is RunE9Parallel with per-cell memoization.
func RunE9ParallelCached(cfg E9Config, workers int, cache *SweepCache) ([]E9Row, error) {
	if err := e9Validate(cfg); err != nil {
		return nil, err
	}
	nt := len(cfg.Thresholds)
	return RunParallel(len(cfg.Ks)*nt, workers, func(i int) (E9Row, error) {
		k, threshold := cfg.Ks[i/nt], cfg.Thresholds[i%nt]
		p := e9CellParams{
			K: k, Threshold: threshold,
			Traces: cfg.Traces, TraceLen: cfg.TraceLen,
			TransientP: cfg.TransientP, Seed: cfg.Seed,
		}
		return memoCell(cache, "e9", p, func() (E9Row, error) {
			return e9Cell(cfg, k, threshold)
		})
	})
}

// e10CellParams is the complete input set of one E10 cell.
type e10CellParams struct {
	Steps      int64
	Seed       uint64
	Storms     StormConfig
	LowerAfter int
}

// RunE10ParallelCached is RunE10Parallel with per-cell memoization:
// cached LowerAfter settings are served directly, the rest run together
// as lanes of one batch. A nil cache degenerates to
// RunE10Parallel.
func RunE10ParallelCached(steps int64, seed uint64, lowerAfters []int, workers int, cache *SweepCache) ([]E10Row, error) {
	if cache == nil {
		return RunE10Parallel(steps, seed, lowerAfters, workers)
	}
	steps, lowerAfters, storms := e10Setup(steps, lowerAfters)
	rows := make([]E10Row, len(lowerAfters))
	var missing []int
	for i, la := range lowerAfters {
		p := e10CellParams{Steps: steps, Seed: seed, Storms: storms, LowerAfter: la}
		row, ok, err := memoProbe[E10Row](cache, "e10", p)
		if err != nil {
			return nil, err
		}
		if ok {
			rows[i] = row
		} else {
			missing = append(missing, i)
		}
	}
	if len(missing) > 0 {
		fresh := make([]int, len(missing))
		for j, i := range missing {
			fresh[j] = lowerAfters[i]
		}
		results, err := runLanesParallel(e10Cfg(steps, storms), e10Lanes(seed, fresh), 0, workers)
		if err != nil {
			return nil, err
		}
		for j, i := range missing {
			rows[i] = e10RowFrom(lowerAfters[i], results[j])
			p := e10CellParams{Steps: steps, Seed: seed, Storms: storms, LowerAfter: lowerAfters[i]}
			if err := memoStore(cache, "e10", p, rows[i]); err != nil {
				return nil, err
			}
		}
	}
	return rows, nil
}
