package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"aft/internal/checkpoint"
)

// -update rewrites the snapshot corpus and the kernel work golden.
// Workflow: add a corpus point, run
//
//	go test ./internal/experiments -run TestSnapshotCorpus -update
//
// and review the diff of testdata/snapshots like any other code change.
// Regenerating is for adding points: the committed snapshots were
// written by the fused engine, and an engine that replaces it must
// restore them as they are. -update writes only the points of the
// current snapshot version; those written by an older schema stay as
// they are, since every later build must restore them.
// TestKernelWorkGolden's counts change with the kernel; CHANGES.md says
// why they moved.
var update = flag.Bool("update", false, "rewrite the snapshot corpus and the kernel work golden")

// corpusDir holds one NAME.aftckpt (an encoded snapshot) and one
// NAME.golden (the transcript its campaign ends on) per corpus point.
const corpusDir = "testdata/snapshots"

// corpusPoint is one committed snapshot: the campaign it comes from,
// the round it was taken at, located on the reference loop, and the
// snapshot version it was written in.
type corpusPoint struct {
	name    string
	cfg     AdaptiveRunConfig
	at      int64
	version uint16
}

// corpusPoints lists the rounds where a restore has the most state to
// carry: a storm about to start, a storm in flight, a controller
// streak about to lower, a shard boundary, and sampled runs: Fig. 6
// and storm-dense campaigns sampled every round and every 1 000, mid-
// storm, each written in version 1 (every sample), and Fig. 6 before
// its last lower in version 2 (the series' state).
func corpusPoints(t *testing.T) []corpusPoint {
	t.Helper()
	fig7 := DefaultFig7Config(60_000)
	onset := roundBefore(t, fig7, func(rc *ReferenceCampaign) bool { return rc.env.inStorm })
	lowered := func(n int64) func(*ReferenceCampaign) bool {
		return func(rc *ReferenceCampaign) bool {
			_, lowers := rc.Switchboard().Controller().Stats()
			return lowers >= n
		}
	}
	shards, err := SplitCampaign(fig7, 3)
	if err != nil {
		t.Fatal(err)
	}
	fig6 := DefaultFig6Config()
	every1, every1000 := stormDenseSampled(20_000, 9, 1), stormDenseSampled(200_000, 4, 1000)
	return []corpusPoint{
		{"fig7-storm-onset", fig7, onset, 1},
		{"fig7-mid-storm", fig7, midStorm(t, fig7), 1},
		{"fig7-lower-after", fig7, roundBefore(t, fig7, lowered(1)), 1},
		{"fig7-shard-boundary", fig7, shards[1].Start, 1},
		{"fig6-mid-staircase", fig6, midStorm(t, fig6), 1},
		{"storm-dense-sample-1", every1, midStorm(t, every1), 1},
		{"storm-dense-sample-1000", every1000, midStormAfter(t, every1000, 100_000), 1},
		{"fig6-last-lower", fig6, roundBefore(t, fig6, lowered(3)), 2},
	}
}

// stormDenseSampled is a Fig. 7 campaign of steps rounds with a storm
// every 2 000 rounds up to maxLevel, sampled every sampleEvery rounds.
func stormDenseSampled(steps int64, maxLevel int, sampleEvery int64) AdaptiveRunConfig {
	cfg := DefaultFig7Config(steps)
	cfg.Storms.StormEvery = 2000
	cfg.Storms.MaxLevel = maxLevel
	cfg.SampleEvery = sampleEvery
	return cfg
}

// roundBefore steps a reference campaign of cfg until stop holds after
// a round, and returns the rounds run before that round: a snapshot
// there resumes straight into the round stop looked for.
func roundBefore(t *testing.T, cfg AdaptiveRunConfig, stop func(*ReferenceCampaign) bool) int64 {
	t.Helper()
	rc, err := NewReferenceCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for rc.Remaining() > 0 {
		before := rc.Rounds()
		rc.Step()
		if stop(rc) {
			return before
		}
	}
	t.Fatalf("no round of the %d-round campaign matched", cfg.Steps)
	return 0
}

// midStorm is the round halfway through cfg's first storm.
func midStorm(t *testing.T, cfg AdaptiveRunConfig) int64 { return midStormAfter(t, cfg, 0) }

// midStormAfter is the round halfway through the first storm of cfg
// that starts at or after round from.
func midStormAfter(t *testing.T, cfg AdaptiveRunConfig, from int64) int64 {
	t.Helper()
	rc, err := NewReferenceCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := rc.env
	for !s.inStorm || s.onset < from {
		rc.Step()
	}
	return (s.onset + s.stormEnd) / 2
}

// writeCorpusPoint takes p's snapshot on the fused engine and renders
// the uninterrupted reference run's transcript.
func writeCorpusPoint(t *testing.T, p corpusPoint, ckpt, golden string) {
	t.Helper()
	c, err := NewCampaign(p.cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(p.at)
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunAdaptiveReference(p.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(corpusDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, snap.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(golden, []byte(renderBoth(ref, p.cfg.Policy.Min)), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotCorpus restores every committed snapshot on every engine
// present — the fused engine, the reference loop and a one-lane batch —
// runs each to the end, and diffs the Fig. 6 and Fig. 7 transcript
// against the uninterrupted run's, committed beside the snapshot. The
// snapshots say they were written by the fused engine, in their
// point's version, and each sits at the round its point names.
func TestSnapshotCorpus(t *testing.T) {
	engines := []struct {
		name    string
		restore func(*checkpoint.Snapshot) (AdaptiveRunResult, error)
	}{
		{"fused", func(snap *checkpoint.Snapshot) (AdaptiveRunResult, error) {
			c, err := RestoreCampaign(snap)
			if err != nil {
				return AdaptiveRunResult{}, err
			}
			c.Run(c.Remaining())
			return c.Result(), nil
		}},
		{"reference", func(snap *checkpoint.Snapshot) (AdaptiveRunResult, error) {
			rc, err := RestoreReferenceCampaign(snap)
			if err != nil {
				return AdaptiveRunResult{}, err
			}
			rc.Run(rc.Remaining())
			return rc.Result(), nil
		}},
		{"batch", func(snap *checkpoint.Snapshot) (AdaptiveRunResult, error) {
			b, err := RestoreBatchCampaign([]*checkpoint.Snapshot{snap})
			if err != nil {
				return AdaptiveRunResult{}, err
			}
			b.RunAll()
			return b.Result(0), nil
		}},
	}
	for _, p := range corpusPoints(t) {
		t.Run(p.name, func(t *testing.T) {
			ckpt := filepath.Join(corpusDir, p.name+".aftckpt")
			golden := filepath.Join(corpusDir, p.name+".golden")
			if *update && p.version == campaignSnapshotVersion {
				writeCorpusPoint(t, p, ckpt, golden)
			}
			data, err := os.ReadFile(ckpt)
			if err != nil {
				t.Fatalf("missing corpus snapshot (run with -update to create): %v", err)
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing corpus transcript (run with -update to create): %v", err)
			}
			snap, err := checkpoint.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			st, err := decodeCampaign(snap)
			if err != nil {
				t.Fatal(err)
			}
			if st.engine != engineFused || st.step != p.at || snap.Version != p.version {
				t.Fatalf("%s: written by %q at round %d in version %d, want %q at round %d in version %d",
					ckpt, st.engine, st.step, snap.Version, engineFused, p.at, p.version)
			}
			// Restoring decodes the sections afresh, so every engine can
			// start from the same snapshot.
			for _, e := range engines {
				res, err := e.restore(snap)
				if err != nil {
					t.Fatalf("%s: %v", e.name, err)
				}
				if got := renderBoth(res, st.cfg.Policy.Min); got != string(want) {
					t.Fatalf("%s resumed from round %d deviates from %s\n--- got\n%s", e.name, p.at, golden, got)
				}
			}
		})
	}
}
