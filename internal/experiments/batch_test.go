package experiments

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"aft/internal/checkpoint"
	"aft/internal/redundancy"
	"aft/internal/voting"
	"aft/internal/xrand"
)

// assertOutcomeEqual compares two round outcomes field for field except
// Votes (the batch fast paths never materialize a ballot slice).
func assertOutcomeEqual(t *testing.T, step int64, lane int, got, want voting.Outcome) {
	t.Helper()
	if got.N != want.N || got.HasMajority != want.HasMajority ||
		got.Value != want.Value || got.Dissent != want.Dissent ||
		got.DTOF != want.DTOF || got.Correct != want.Correct {
		t.Fatalf("round %d lane %d: batch outcome %+v, scalar %+v", step, lane, got, want)
	}
}

// TestBatchMatchesScalarDifferential steps a W=8 batch against 8
// scalar fused campaigns for 100k rounds, comparing every lane's
// outcome every round — the strictest lane-equivalence check: any
// stream drift, tally divergence, or controller drift fails on the
// exact round it happens.
func TestBatchMatchesScalarDifferential(t *testing.T) {
	const rounds = 100_000
	cfg := DefaultFig7Config(rounds)
	cfg.Storms.StormEvery = 9_000 // several full storms inside the window
	seeds := xrand.Seeds(1906, 8)

	b, err := NewBatchCampaign(cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	b.RecordOutcomes(true)
	scalars := make([]*Campaign, len(seeds))
	for i, s := range seeds {
		c := cfg
		c.Seed = s
		if scalars[i], err = NewCampaign(c); err != nil {
			t.Fatal(err)
		}
	}
	for step := int64(0); step < rounds; step++ {
		b.Step()
		for i, sc := range scalars {
			assertOutcomeEqual(t, step, i, b.LaneOutcome(i), sc.Step())
		}
	}
	for i, sc := range scalars {
		got, want := RenderFig7(b.Result(i), cfg.Policy.Min), RenderFig7(sc.Result(), cfg.Policy.Min)
		if got != want {
			t.Fatalf("lane %d result transcript diverged:\n%s\nvs scalar:\n%s", i, got, want)
		}
	}
}

// TestBatchLaneTranscriptsFig6 checks every lane of a sampled batch
// renders the Fig. 6 staircase byte-identically to the scalar fused
// engine and the reference loop for the same seed.
func TestBatchLaneTranscriptsFig6(t *testing.T) {
	cfg := DefaultFig6Config()
	seeds := xrand.Seeds(cfg.Seed, 4)
	seeds[0] = cfg.Seed // keep the canonical figure seed as lane 0
	b, err := NewBatchCampaign(cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	b.RunAll()
	for i, s := range seeds {
		c := cfg
		c.Seed = s
		eng, err := RunAdaptive(c)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := RunAdaptiveReference(c)
		if err != nil {
			t.Fatal(err)
		}
		lane := RenderFig6(b.Result(i))
		if lane != RenderFig6(eng) {
			t.Fatalf("lane %d (seed %d) diverges from the fused engine:\n%s", i, s, lane)
		}
		if lane != RenderFig6(ref) {
			t.Fatalf("lane %d (seed %d) diverges from the reference loop:\n%s", i, s, lane)
		}
	}
}

// TestBatchLaneTranscriptsFig7 is the Fig. 7 (histogram) version of the
// lane-transcript oracle, storms and resizes included.
func TestBatchLaneTranscriptsFig7(t *testing.T) {
	cfg := DefaultFig7Config(60_000)
	seeds := xrand.Seeds(7, 3)
	b, err := NewBatchCampaign(cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	b.RunAll()
	for i, s := range seeds {
		c := cfg
		c.Seed = s
		eng, err := RunAdaptive(c)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := RunAdaptiveReference(c)
		if err != nil {
			t.Fatal(err)
		}
		lane := RenderFig7(b.Result(i), cfg.Policy.Min)
		if lane != RenderFig7(eng, cfg.Policy.Min) {
			t.Fatalf("lane %d (seed %d) diverges from the fused engine:\n%s", i, s, lane)
		}
		if lane != RenderFig7(ref, cfg.Policy.Min) {
			t.Fatalf("lane %d (seed %d) diverges from the reference loop:\n%s", i, s, lane)
		}
	}
}

// TestBatchLaneSnapshotCrossRestore cuts a batch mid-run, extracts
// every lane as a scalar snapshot, and finishes each lane on the fused
// engine, on the reference loop, and back inside a restored batch: all
// three continuations must render byte-identically to the
// uninterrupted scalar run.
func TestBatchLaneSnapshotCrossRestore(t *testing.T) {
	cfg := DefaultFig7Config(40_000)
	cfg.SampleEvery = 500 // exercise the series sections too
	seeds := xrand.Seeds(1906, 4)
	b, err := NewBatchCampaign(cfg, seeds)
	if err != nil {
		t.Fatal(err)
	}
	b.Run(17_000) // mid-run, inside the second storm window

	snaps := make([]*checkpoint.Snapshot, len(seeds))
	for i := range seeds {
		if snaps[i], err = b.LaneSnapshot(i); err != nil {
			t.Fatal(err)
		}
	}

	// The oracle: uninterrupted scalar runs.
	want := make([]string, len(seeds))
	for i, s := range seeds {
		c := cfg
		c.Seed = s
		res, err := RunAdaptive(c)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = RenderFig6(res) + RenderFig7(res, cfg.Policy.Min)
	}

	// batch -> fused and batch -> reference.
	for i := range seeds {
		fused, err := RestoreCampaign(snaps[i])
		if err != nil {
			t.Fatal(err)
		}
		fused.Run(fused.Remaining())
		if got := RenderFig6(fused.Result()) + RenderFig7(fused.Result(), cfg.Policy.Min); got != want[i] {
			t.Fatalf("lane %d: batch->fused continuation diverged:\n%s", i, got)
		}
		ref, err := RestoreReferenceCampaign(snaps[i])
		if err != nil {
			t.Fatal(err)
		}
		ref.Run(ref.Remaining())
		if got := RenderFig6(ref.Result()) + RenderFig7(ref.Result(), cfg.Policy.Min); got != want[i] {
			t.Fatalf("lane %d: batch->reference continuation diverged:\n%s", i, got)
		}
	}

	// batch -> batch: resume mid-batch from the lane snapshots.
	rb, err := RestoreBatchCampaign(snaps)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Rounds() != 17_000 || rb.Remaining() != cfg.Steps-17_000 {
		t.Fatalf("restored batch at round %d, remaining %d", rb.Rounds(), rb.Remaining())
	}
	rb.RunAll()
	for i := range seeds {
		res := rb.Result(i)
		if got := RenderFig6(res) + RenderFig7(res, cfg.Policy.Min); got != want[i] {
			t.Fatalf("lane %d: resumed-batch continuation diverged:\n%s", i, got)
		}
	}
}

// TestScalarSnapshotsRestoreIntoBatch goes the other way: snapshots
// taken mid-run on the fused engine and the reference loop become lanes
// of one batch, whose continuation must match the uninterrupted runs.
func TestScalarSnapshotsRestoreIntoBatch(t *testing.T) {
	cfg := DefaultFig7Config(30_000)
	const cut = 11_000
	seeds := []uint64{1906, 42}

	// Lane 0 from the fused engine, lane 1 from the reference loop.
	c0 := cfg
	c0.Seed = seeds[0]
	fused, err := NewCampaign(c0)
	if err != nil {
		t.Fatal(err)
	}
	fused.Run(cut)
	snap0, err := fused.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	c1 := cfg
	c1.Seed = seeds[1]
	ref, err := NewReferenceCampaign(c1)
	if err != nil {
		t.Fatal(err)
	}
	ref.Run(cut)
	snap1, err := ref.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	b, err := RestoreBatchCampaign([]*checkpoint.Snapshot{snap0, snap1})
	if err != nil {
		t.Fatal(err)
	}
	b.RunAll()
	for i, s := range seeds {
		c := cfg
		c.Seed = s
		res, err := RunAdaptive(c)
		if err != nil {
			t.Fatal(err)
		}
		if got, wantT := RenderFig7(b.Result(i), cfg.Policy.Min), RenderFig7(res, cfg.Policy.Min); got != wantT {
			t.Fatalf("lane %d: scalar->batch continuation diverged:\n%s\nwant:\n%s", i, got, wantT)
		}
	}
}

// TestRestoreBatchCampaignRejectsMismatches pins the lockstep
// preconditions: lanes must agree on the shared configuration and the
// round they were cut at.
func TestRestoreBatchCampaignRejectsMismatches(t *testing.T) {
	cfg := DefaultFig7Config(10_000)
	mk := func(cfg AdaptiveRunConfig, rounds int64) *checkpoint.Snapshot {
		t.Helper()
		c, err := NewCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Run(rounds)
		snap, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	a := mk(cfg, 100)

	other := cfg
	other.Steps = 20_000
	if _, err := RestoreBatchCampaign([]*checkpoint.Snapshot{a, mk(other, 100)}); err == nil {
		t.Fatal("shared-config mismatch accepted")
	}
	if _, err := RestoreBatchCampaign([]*checkpoint.Snapshot{a, mk(cfg, 101)}); err == nil {
		t.Fatal("lockstep round mismatch accepted")
	}
	if _, err := RestoreBatchCampaign(nil); err == nil {
		t.Fatal("empty snapshot set accepted")
	}
}

// TestBatchE8MatchesScalarCells runs the lane-based E8 sweep against
// the same contenders run one by one on the reference loop: a fixed
// contender is RunAdaptiveReference with Min == Max == n, whose
// controller can never resize, and the autonomic one runs the default
// policy. Every contender row must be identical.
func TestBatchE8MatchesScalarCells(t *testing.T) {
	const steps = 50_000
	const seed = 1906
	rows, err := RunE8(steps, seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	normSteps, storms := e8Setup(steps)
	row := func(strategy string, policy redundancy.Policy) E8Row {
		res, err := RunAdaptiveReference(AdaptiveRunConfig{Steps: normSteps, Seed: seed, Policy: policy, Storms: storms})
		if err != nil {
			t.Fatal(err)
		}
		return E8Row{
			Strategy:      strategy,
			Failures:      res.Failures,
			ReplicaRounds: res.ReplicaRounds,
			AvgRedundancy: float64(res.ReplicaRounds) / float64(res.Rounds),
		}
	}
	want := make([]E8Row, 0, len(e8FixedSizes)+1)
	for _, n := range e8FixedSizes {
		fixed := redundancy.Policy{Min: n, Max: n, CriticalDTOF: 1, Step: 2, LowerAfter: 1000}
		want = append(want, row(fmt.Sprintf("fixed n=%d", n), fixed))
	}
	want = append(want, row("autonomic", redundancy.DefaultPolicy()))
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("batch E8 rows %+v\nreference rows %+v", rows, want)
	}
}

// TestBatchE10MatchesScalarCells is the E10 version: the lane-based
// hysteresis sweep must reproduce each setting run alone on the
// reference loop.
func TestBatchE10MatchesScalarCells(t *testing.T) {
	const steps = 60_000
	const seed = 1906
	las := []int{10, 1000, 10000}
	rows, err := RunE10(steps, seed, las, 3)
	if err != nil {
		t.Fatal(err)
	}
	normSteps, normLas, storms := e10Setup(steps, las)
	want := make([]E10Row, len(normLas))
	for i, la := range normLas {
		policy := redundancy.DefaultPolicy()
		policy.LowerAfter = la
		res, err := RunAdaptiveReference(AdaptiveRunConfig{Steps: normSteps, Seed: seed, Policy: policy, Storms: storms})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = E10Row{
			LowerAfter:    la,
			Failures:      res.Failures,
			AvgRedundancy: float64(res.ReplicaRounds) / float64(res.Rounds),
			Resizes:       res.Raises + res.Lowers,
			MinFraction:   res.MinFraction,
		}
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("batch E10 rows %+v\nreference rows %+v", rows, want)
	}
}

// TestBatchStepZeroAlloc is the batch engine's allocation gate: with
// sampling off, a steady-state lockstep round allocates nothing, for
// any width.
func TestBatchStepZeroAlloc(t *testing.T) {
	cfg := DefaultFig7Config(10_000_000)
	b, err := NewBatchCampaign(cfg, xrand.Seeds(1906, 16))
	if err != nil {
		t.Fatal(err)
	}
	b.Run(1000) // reach steady state
	allocs := testing.AllocsPerRun(20_000, b.Step)
	if allocs != 0 {
		t.Fatalf("batch Step allocates %v/round in steady state", allocs)
	}
}

// TestBatchStepZeroAllocUnderBackground forces frequent corruption
// rounds (Background 0.3): the packed tally and its scratch reuse must
// keep even dissent-heavy rounds allocation-free.
func TestBatchStepZeroAllocUnderBackground(t *testing.T) {
	cfg := AdaptiveRunConfig{
		Steps:  10_000_000,
		Seed:   1906,
		Policy: redundancy.Policy{Min: 5, Max: 9, CriticalDTOF: 0, Step: 2, LowerAfter: 1000},
		Storms: StormConfig{Background: 0.3},
	}
	b, err := NewBatchCampaign(cfg, xrand.Seeds(1906, 8))
	if err != nil {
		t.Fatal(err)
	}
	b.Run(1000)
	allocs := testing.AllocsPerRun(20_000, b.Step)
	if allocs != 0 {
		t.Fatalf("batch Step allocates %v/round under background corruption", allocs)
	}
}

// decodedLane is a lane's decoded snapshot state, engine name blanked,
// so the batch and the reference loop compare field for field.
func decodedLane(snap *checkpoint.Snapshot, err error) (campaignState, error) {
	if err != nil {
		return campaignState{}, err
	}
	st, err := decodeCampaign(snap)
	st.engine = ""
	return st, err
}

// TestBatchRunChunksMatchReference is the property test of Run's bulk
// runs. A batch runs in seeded random chunks, some cut at (or one round
// either side of) a random lane's next storm onset, sample-grid round,
// LowerAfter round, storm level end (onset + k·level) or stormEnd, the
// rest from 1 to 3 000 rounds. After every chunk each lane's decoded
// state must equal a reference campaign stepped to the same round: PRNG
// positions, counters, occupancy, controller streak and series. Only
// this state shows a skipped corrupt-value draw or a streak left
// unwrapped at Policy.Min; the transcripts do not.
//
// The configurations cover every way a bulk run can end: storm onsets
// and level ends, hits at several background rates (none, rare,
// frequent, every round), storm hits that raise and storm hits the run
// absorbs, the sampling grid, a LowerAfter of 1 (no quiet run ever
// fits) and one shorter than a storm level, and a policy critical at
// every dimensioning (the bulk path is never taken). StormP 0 and 1 are
// the two storm rates whose rounds draw nothing. They also cover every
// kind of storm round: golden keeping a strict majority (with and
// without a raise, and critical with the organ at Max), golden losing
// it, and more corrupt replicas than the organ holds. background-1e-3
// puts background hits inside scans: a hit that raises, one the organ
// absorbs, and one lane's hit ending the others' scan. nine-lanes runs
// a group of eight and a group of one, which never parks. Above
// Policy.Min a lane parks only up to the round before its streak
// reaches LowerAfter: in above-min-lower, lanes lowering after a storm
// end parked runs at LowerAfter−1 and lower on the per-round path, and
// in above-min-absorb, lanes above Min absorb background hits inside
// scans, which resets their streaks mid-scan.
func TestBatchRunChunksMatchReference(t *testing.T) {
	def := redundancy.DefaultPolicy()
	eager := def
	eager.LowerAfter = 1
	// MaxDTOF(9) = 5: every round is critical, whatever the dimensioning.
	critical := redundancy.Policy{Min: 3, Max: 9, CriticalDTOF: 5, Step: 2, LowerAfter: 1000}
	wide := redundancy.Policy{Min: 5, Max: 9, CriticalDTOF: 0, Step: 2, LowerAfter: 1000}
	// Pinned organs meet a level-4 storm at their own size: at 3
	// replicas k = 4 exceeds n, and k >= 2 loses the majority.
	pinned3 := redundancy.Policy{Min: 3, Max: 3, CriticalDTOF: 1, Step: 2, LowerAfter: 1000}
	pinned5 := redundancy.Policy{Min: 5, Max: 5, CriticalDTOF: 1, Step: 2, LowerAfter: 1000}
	// A strict-majority storm round never raises this lane; only a lost
	// majority does.
	lax := redundancy.Policy{Min: 3, Max: 9, CriticalDTOF: 0, Step: 2, LowerAfter: 1000}
	// Lowers inside a sparse storm, between its hits.
	short := def
	short.LowerAfter = 100
	lanes := func(policies ...redundancy.Policy) []BatchLane {
		seeds := xrand.Seeds(1906, len(policies))
		out := make([]BatchLane, len(policies))
		for i, p := range policies {
			out[i] = BatchLane{Seed: seeds[i], Policy: p}
		}
		return out
	}
	fig7 := DefaultFig7Config(60_000)
	fig7.Storms.StormEvery = 9_000
	peak4 := fig7
	peak4.Storms.PeakMin = 4
	peak4.SampleEvery = 50 // the dtof series records rounds no lane raises on
	sparse, p0, p1, bg, lower, absorb := fig7, fig7, fig7, fig7, fig7, fig7
	sparse.Storms.StormP = 0.02
	bg.Storms.Background = 1e-3
	// A storm every 3 000 rounds keeps lanes above Min for much of the
	// window, each lowering Step at a time after LowerAfter quiet rounds.
	lower.Storms.StormEvery = 3_000
	lower600 := def
	lower600.LowerAfter = 600
	// Above Min, def absorbs a lone background hit (DTOF(5, 1) = 2 > 1),
	// and wide absorbs one at every size.
	absorb.Storms.StormEvery = 3_000
	absorb.Storms.Background = 2e-3
	p0.Storms.StormP = 0
	p1.Storms.StormP = 1
	for _, tc := range []struct {
		name  string
		cfg   AdaptiveRunConfig
		lanes []BatchLane
	}{
		{"fig7", fig7, lanes(def, def, eager, critical)},
		{"fig6", DefaultFig6Config(), lanes(def, eager, critical)},
		// def sits at Max through level 4, where every corrupt round is
		// critical.
		{"storms-peak4", peak4, lanes(lax, pinned3, pinned5, def)},
		{"storms-sparse", sparse, lanes(def, short)},
		{"storm-p0", p0, lanes(def, eager)},
		{"storm-p1", p1, lanes(def, lax, pinned3)},
		// At Min, wide absorbs a background hit and def and short raise
		// on one; critical never parks.
		{"background-1e-3", bg, lanes(def, wide, short, def, wide, eager, critical)},
		{"nine-lanes", fig7, lanes(def, short, def, eager, def, wide, def, critical, def)},
		{"above-min-lower", lower, lanes(def, lower600, def, lower600, def)},
		{"above-min-absorb", absorb, lanes(def, wide, def, lower600, wide)},
		{"background-0.3", AdaptiveRunConfig{Steps: 20_000, Policy: def, Storms: StormConfig{Background: 0.3}},
			lanes(def, wide, eager)},
		{"background-1", AdaptiveRunConfig{Steps: 5_000, Policy: def, Storms: StormConfig{Background: 1}},
			lanes(def, wide)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := NewBatchCampaignLanes(tc.cfg, tc.lanes)
			if err != nil {
				t.Fatal(err)
			}
			refs := make([]*ReferenceCampaign, len(tc.lanes))
			for i := range tc.lanes {
				if refs[i], err = NewReferenceCampaign(b.state(i).cfg); err != nil {
					t.Fatal(err)
				}
			}
			rng := xrand.New(0xc0ffee)
			se := tc.cfg.SampleEvery
			for chunks := 0; b.Remaining() > 0; chunks++ {
				step := b.Rounds()
				var n int64
				switch rng.Intn(4) {
				case 0:
					n = 1 + int64(rng.Intn(16))
				case 1:
					c := rng.Intn(len(tc.lanes))
					st := &b.lanes[c].storms
					var to []int64
					if st.nextOnset > step {
						to = append(to, st.nextOnset-step)
					}
					if st.inStorm {
						level := (step - st.onset) / st.level
						to = append(to, st.onset+(level+1)*st.level-step, st.stormEnd-step)
					}
					if se > 0 {
						to = append(to, se-step%se)
					}
					to = append(to, int64(tc.lanes[c].Policy.LowerAfter-b.lanes[c].sb.Controller.Quiet))
					n = to[rng.Intn(len(to))] + int64(rng.Intn(3)) - 1
				default:
					n = 1 + int64(rng.Intn(3000))
				}
				n = max(1, min(n, b.Remaining()))
				b.Run(n)
				for i, rc := range refs {
					rc.Run(n)
					got, err := decodedLane(b.LaneSnapshot(i))
					if err != nil {
						t.Fatal(err)
					}
					want, err := decodedLane(rc.Snapshot())
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("chunk %d (rounds %d..%d) lane %d: batch state\n%+v\nreference\n%+v",
							chunks, step, step+n, i, got, want)
					}
				}
			}
		})
	}
}

// kernelWorkGolden pins the kernel's work counts; -update rewrites it.
const kernelWorkGolden = "testdata/kernel-work.golden"

// TestKernelWorkGolden pins what the kernel does for the paper's
// campaigns at seed 1906: rounds on the per-round path, TallyWords
// calls, bulk runs in the background and inside storm levels, resize
// messages, and scans with the lane-rounds they took. Counts are exact
// where times drift, so a kernel change that sends more rounds down
// the per-round path, or scans fewer lane-rounds, fails here even when
// every transcript stays the same. The one-lane rows run as RunAdaptive
// does; fig7-500k-w16 is a 16-lane batch over xrand.Seeds(1906, 16),
// the shape of the benchmark's seed sweep. The counts do not depend on
// which scan kernel the CPU runs.
func TestKernelWorkGolden(t *testing.T) {
	var got strings.Builder
	got.WriteString("config per-round tallies quiet-runs storm-runs resizes scans scan-rounds\n")
	for _, tc := range []struct {
		name  string
		cfg   AdaptiveRunConfig
		seeds []uint64
	}{
		{"fig6", DefaultFig6Config(), []uint64{1906}},
		{"fig7-500k", DefaultFig7Config(500_000), []uint64{1906}},
		{"fig7-65M", DefaultFig7Config(0), []uint64{1906}},
		{"fig7-500k-w16", DefaultFig7Config(500_000), xrand.Seeds(1906, 16)},
	} {
		b, err := NewBatchCampaign(tc.cfg, tc.seeds)
		if err != nil {
			t.Fatal(err)
		}
		b.RunAll()
		w := b.work
		fmt.Fprintf(&got, "%s %d %d %d %d %d %d %d\n", tc.name,
			w.perRound, w.tallies, w.quietRuns, w.stormRuns, w.resizes, w.scans, w.scanRounds)
	}
	if *update {
		if err := os.WriteFile(kernelWorkGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(kernelWorkGolden)
	if err != nil {
		t.Fatalf("missing kernel work golden (run with -update to create): %v", err)
	}
	if got.String() != string(want) {
		t.Fatalf("kernel work counts changed:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestBatchRunZeroAlloc is Run's allocation gate: with sampling off,
// windows of quiet and background-dissent rounds, and windows that
// cross storms with their raises and lowers, allocate nothing on a
// 16-lane batch.
func TestBatchRunZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     AdaptiveRunConfig
		window  int64
		resizes bool // the measured windows must raise and lower
	}{
		// The first storm is 769 230 rounds in, past every window here.
		{"fig7", DefaultFig7Config(10_000_000), 10_000, false},
		// A single corruption is never critical at Min 5, so no resize.
		{"background-0.3", AdaptiveRunConfig{
			Steps:  10_000_000,
			Policy: redundancy.Policy{Min: 5, Max: 9, CriticalDTOF: 0, Step: 2, LowerAfter: 1000},
			Storms: StormConfig{Background: 0.3},
		}, 10_000, false},
		// A storm every 384 615 rounds: the 21 windows cross several on
		// every lane.
		{"fig7-storms", DefaultFig7Config(5_000_000), 100_000, true},
	} {
		b, err := NewBatchCampaign(tc.cfg, xrand.Seeds(1906, 16))
		if err != nil {
			t.Fatal(err)
		}
		b.Run(1000)
		raises, lowers := decisions(b)
		if allocs := testing.AllocsPerRun(20, func() { b.Run(tc.window) }); allocs != 0 {
			t.Fatalf("%s: batch Run(%d) allocates %v per call", tc.name, tc.window, allocs)
		}
		if r, l := decisions(b); tc.resizes && (r == raises || l == lowers) {
			t.Fatalf("%s: the measured windows raised %d and lowered %d times; want both",
				tc.name, r-raises, l-lowers)
		}
	}
}

// decisions adds up every lane's raises and lowers.
func decisions(b *BatchCampaign) (raises, lowers int64) {
	for _, l := range b.lanes {
		raises += l.sb.Controller.Raises
		lowers += l.sb.Controller.Lowers
	}
	return raises, lowers
}
