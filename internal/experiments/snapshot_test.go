package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"aft/internal/checkpoint"
	"aft/internal/xrand"
)

// steppable is the engine-agnostic campaign shape the resume tests
// drive.
type steppable interface {
	Run(int64)
	Rounds() int64
	Remaining() int64
	Result() AdaptiveRunResult
	Snapshot() (*checkpoint.Snapshot, error)
}

// renderBoth renders the Fig. 6 and Fig. 7 transcripts of a result.
func renderBoth(res AdaptiveRunResult, min int) string {
	return RenderFig6(res) + RenderFig7(res, min)
}

// resumeAt runs a campaign to round `at`, snapshots it, round-trips the
// snapshot through its binary encoding, restores on the engine selected
// by restore, and runs the remainder.
func resumeAt(t *testing.T, c steppable, at int64,
	restore func(*checkpoint.Snapshot) (steppable, error)) AdaptiveRunResult {
	t.Helper()
	c.Run(at)
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := checkpoint.Decode(snap.Encode())
	if err != nil {
		t.Fatalf("snapshot did not survive its own encoding: %v", err)
	}
	resumed, err := restore(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Rounds() != at {
		t.Fatalf("restored campaign at round %d, snapshot taken at %d", resumed.Rounds(), at)
	}
	resumed.Run(resumed.Remaining())
	return resumed.Result()
}

// fusedAt builds a fused campaign or fails the test.
func fusedAt(t *testing.T, cfg AdaptiveRunConfig) steppable {
	t.Helper()
	c, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// referenceAt builds a reference campaign or fails the test.
func referenceAt(t *testing.T, cfg AdaptiveRunConfig) steppable {
	t.Helper()
	rc, err := NewReferenceCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rc
}

// asSteppable adapts the typed restore functions.
func restoreFused(snap *checkpoint.Snapshot) (steppable, error) { return RestoreCampaign(snap) }
func restoreReference(snap *checkpoint.Snapshot) (steppable, error) {
	return RestoreReferenceCampaign(snap)
}

// TestSnapshotResumeFig7Property is the crash-resume determinism
// property on the Fig. 7 regime: a campaign killed at an arbitrary
// round and resumed from its snapshot renders transcripts byte-identical
// to the uninterrupted run — on the fused engine, on the reference
// engine, and across engines in both directions.
func TestSnapshotResumeFig7Property(t *testing.T) {
	cfg := DefaultFig7Config(120_000)
	straight, err := RunAdaptive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := RenderFig7(straight, cfg.Policy.Min)

	// Interruption rounds are drawn deterministically, spanning early,
	// storm-adjacent, and late cuts.
	rng := xrand.New(20260729)
	cuts := []int64{1, cfg.Steps / 2, cfg.Steps - 1}
	for i := 0; i < 4; i++ {
		cuts = append(cuts, int64(rng.Intn(int(cfg.Steps))))
	}

	engines := []struct {
		name    string
		build   func(*testing.T, AdaptiveRunConfig) steppable
		restore func(*checkpoint.Snapshot) (steppable, error)
	}{
		{"fused->fused", fusedAt, restoreFused},
		{"reference->reference", referenceAt, restoreReference},
		{"fused->reference", fusedAt, restoreReference},
		{"reference->fused", referenceAt, restoreFused},
	}
	for _, eng := range engines {
		for _, at := range cuts {
			res := resumeAt(t, eng.build(t, cfg), at, eng.restore)
			if got := RenderFig7(res, cfg.Policy.Min); got != want {
				t.Fatalf("%s: resume at round %d diverged:\n%s\nwant:\n%s", eng.name, at, got, want)
			}
			if res.Raises != straight.Raises || res.Lowers != straight.Lowers {
				t.Fatalf("%s: controller decisions diverged after resume at %d", eng.name, at)
			}
		}
	}
}

// TestSnapshotResumeFig6Series asserts resume preserves the sampled
// Fig. 6 staircase byte for byte: the series recorded before the kill
// ride the snapshot, the rest are appended by the resumed run.
func TestSnapshotResumeFig6Series(t *testing.T) {
	cfg := DefaultFig6Config()
	straight, err := RunAdaptive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := renderBoth(straight, cfg.Policy.Min)

	for _, at := range []int64{10, 3500, 7919, cfg.Steps - 1} {
		res := resumeAt(t, fusedAt(t, cfg), at, restoreFused)
		if got := renderBoth(res, cfg.Policy.Min); got != want {
			t.Fatalf("fused resume at %d diverged on the sampled series", at)
		}
		res = resumeAt(t, referenceAt(t, cfg), at, restoreReference)
		if got := renderBoth(res, cfg.Policy.Min); got != want {
			t.Fatalf("reference resume at %d diverged on the sampled series", at)
		}
	}
}

// TestSnapshotResumeSourceCampaign pins the refusal of a snapshot
// taken with an external corruption source. Engines no longer take one,
// but an uploaded checkpoint can still carry such an env section, so
// testdata/source-driven.aftckpt keeps one: a fused campaign (Steps
// 20 000, seed 1906, the Fig. 7 policy) driven by a source that
// corrupted two replicas on the first three rounds of every 997,
// snapshotted after 7 331 rounds. Every restore entry point refuses it
// with its pinned text; such a run is replayed from its spec instead.
func TestSnapshotResumeSourceCampaign(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "source-driven.aftckpt"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	const want = "experiments: snapshot was taken with an external corruption source; only storm-driven campaigns restore"
	if _, err := RestoreCampaign(snap); err == nil || err.Error() != want {
		t.Fatalf("RestoreCampaign = %v, want %q", err, want)
	}
	if _, err := RestoreReferenceCampaign(snap); err == nil || err.Error() != want {
		t.Fatalf("RestoreReferenceCampaign = %v, want %q", err, want)
	}
	const wantBatch = "experiments: lane 0 was taken with an external corruption source; batches are storm-driven only"
	if _, err := RestoreBatchCampaign([]*checkpoint.Snapshot{snap}); err == nil || err.Error() != wantBatch {
		t.Fatalf("RestoreBatchCampaign = %v, want %q", err, wantBatch)
	}
}

// TestSnapshotRejectsCorruption flips bytes and truncates a real
// campaign snapshot: every mutation must fail loudly at Decode or at
// restore, never resume a silently wrong campaign.
func TestSnapshotRejectsCorruption(t *testing.T) {
	cfg := DefaultFig7Config(50_000)
	c := fusedAt(t, cfg)
	c.Run(25_000)
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	enc := snap.Encode()

	tryRestore := func(data []byte) error {
		decoded, err := checkpoint.Decode(data)
		if err != nil {
			return err
		}
		_, err = RestoreCampaign(decoded)
		return err
	}

	// Every byte flip must be caught by the container checksum.
	step := len(enc)/257 + 1
	for i := 0; i < len(enc); i += step {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0xa5
		if tryRestore(mut) == nil {
			t.Fatalf("byte flip at %d restored successfully", i)
		}
	}
	// Every truncation must fail.
	for n := 0; n < len(enc); n += step {
		if tryRestore(enc[:n]) == nil {
			t.Fatalf("truncation to %d bytes restored successfully", n)
		}
	}
	// Internally inconsistent state behind a valid checksum: tamper with
	// a decoded section and re-encode.
	tampered, err := checkpoint.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	var w checkpoint.Writer
	w.I64(24_000) // step no longer matches the occupancy total
	w.I64(0)
	w.I64(75_000)
	tampered.Add("counters", w.Data())
	if tryRestore(tampered.Encode()) == nil {
		t.Fatal("inconsistent counters restored successfully")
	}
	// Wrong kind.
	other := checkpoint.New("aft/other", 1)
	if _, err := RestoreCampaign(other); err == nil {
		t.Fatal("foreign snapshot kind restored successfully")
	}
}

// TestRestoreRefusesOccupancyPastPolicyMax pins the occupancy bound
// every restore relies on: a snapshot whose occupancy names
// Policy.Max+2 replicas, with its counters and checksum consistent, is
// refused by every restore entry point with decodeCampaign's text. The
// same forgery inside the band restores, so the bound is the only
// check it fails.
func TestRestoreRefusesOccupancyPastPolicyMax(t *testing.T) {
	cfg := DefaultFig7Config(20_000)
	c := fusedAt(t, cfg)
	c.Run(1000) // the first storm is due at round 2 000
	if got := c.Result().Hist.Count(cfg.Policy.Min); got != 1000 {
		t.Fatalf("setup: %d of 1 000 rounds at Policy.Min", got)
	}
	// forge moves ten of the rounds at Policy.Min to n replicas and
	// charges the replica-rounds they now spend.
	forge := func(n int) *checkpoint.Snapshot {
		t.Helper()
		snap, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var occ, counters checkpoint.Writer
		occ.U32(2)
		occ.I64(int64(cfg.Policy.Min))
		occ.I64(990)
		occ.I64(int64(n))
		occ.I64(10)
		counters.I64(1000)
		counters.I64(0)
		counters.I64(990*int64(cfg.Policy.Min) + 10*int64(n))
		snap.Add("occupancy", occ.Data())
		snap.Add("counters", counters.Data())
		decoded, err := checkpoint.Decode(snap.Encode())
		if err != nil {
			t.Fatal(err)
		}
		return decoded
	}
	if _, err := RestoreCampaign(forge(cfg.Policy.Max)); err != nil {
		t.Fatalf("forgery inside the band refused: %v", err)
	}
	forged := forge(cfg.Policy.Max + 2)
	const want = "experiments: occupancy at 11 replicas outside policy band (max 9)"
	if _, err := RestoreCampaign(forged); err == nil || err.Error() != want {
		t.Fatalf("RestoreCampaign = %v, want %q", err, want)
	}
	if _, err := RestoreReferenceCampaign(forged); err == nil || err.Error() != want {
		t.Fatalf("RestoreReferenceCampaign = %v, want %q", err, want)
	}
	if _, err := RestoreBatchCampaign([]*checkpoint.Snapshot{forged}); err == nil || err.Error() != "experiments: lane 0: "+want {
		t.Fatalf("RestoreBatchCampaign = %v, want %q", err, "experiments: lane 0: "+want)
	}
}

// TestSplitCampaignShardsChain asserts the shard chain — run shard,
// snapshot, restore, run next — is byte-identical to the uninterrupted
// campaign, and that SplitCampaign partitions rounds exactly.
func TestSplitCampaignShardsChain(t *testing.T) {
	cfg := DefaultFig7Config(90_001) // odd length: uneven shards
	straight, err := RunAdaptive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := RenderFig7(straight, cfg.Policy.Min)

	shards, err := SplitCampaign(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 7 || shards[0].Start != 0 || shards[6].End != cfg.Steps {
		t.Fatalf("bad shard bounds: %+v", shards)
	}
	for i := 1; i < len(shards); i++ {
		if shards[i].Start != shards[i-1].End {
			t.Fatalf("shard %d does not chain: %+v", i, shards)
		}
		if d := shards[i].Rounds() - shards[0].Rounds(); d < -1 || d > 1 {
			t.Fatalf("shard lengths unbalanced: %+v", shards)
		}
	}

	// Run the chain with a simulated kill+restore between every shard.
	var res AdaptiveRunResult
	var blob []byte
	for i, sh := range shards {
		var c *Campaign
		if i == 0 {
			if c, err = NewCampaign(cfg); err != nil {
				t.Fatal(err)
			}
		} else {
			snap, err := checkpoint.Decode(blob)
			if err != nil {
				t.Fatal(err)
			}
			if c, err = RestoreCampaign(snap); err != nil {
				t.Fatal(err)
			}
		}
		if c.Rounds() != sh.Start {
			t.Fatalf("shard %d starts at round %d, want %d", i, c.Rounds(), sh.Start)
		}
		c.Run(sh.Rounds())
		snap, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		blob = snap.Encode()
		res = c.Result()
	}
	if got := RenderFig7(res, cfg.Policy.Min); got != want {
		t.Fatalf("shard chain diverged:\n%s\nwant:\n%s", got, want)
	}

	if _, err := SplitCampaign(cfg, 0); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := SplitCampaign(AdaptiveRunConfig{Steps: 3}, 4); err == nil {
		t.Fatal("empty shards accepted")
	}
	if sh, err := ShardForRound(shards, shards[3].Start); err != nil || sh.Index != 3 {
		t.Fatalf("ShardForRound = %+v, %v", sh, err)
	}
	if _, err := ShardForRound(shards, cfg.Steps); err == nil {
		t.Fatal("ShardForRound accepted an out-of-range round")
	}
}
