package experiments

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"aft/internal/voting"
)

// --- E1 / Fig. 4 --------------------------------------------------------

func TestFig4VerdictFlipsAtThreshold(t *testing.T) {
	res, err := RunFig4(DefaultFig4Config())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Firings) == 0 {
		t.Fatal("watchdog never fired")
	}
	// With K=0.5 and consecutive firings, alpha goes 1, 2, 3: the flip
	// happens at the third firing with alpha >= 3.0, matching the
	// paper's threshold-3.0 run.
	if res.FlipIndex != 3 {
		t.Fatalf("flip at firing %d, want 3", res.FlipIndex)
	}
	if res.FlipAlpha < 3.0 {
		t.Fatalf("flip alpha %v < threshold 3.0", res.FlipAlpha)
	}
	// Before the flip the verdict reads transient, after it permanent.
	if res.Firings[0].Verdict != "transient" {
		t.Fatalf("first firing verdict %q", res.Firings[0].Verdict)
	}
	last := res.Firings[len(res.Firings)-1]
	if last.Verdict != "permanent or intermittent" {
		t.Fatalf("final verdict %q", last.Verdict)
	}
	// The alpha trajectory is non-decreasing while the task stays
	// permanently silent.
	for i := 1; i < len(res.Firings); i++ {
		if res.Firings[i].Alpha < res.Firings[i-1].Alpha {
			t.Fatalf("alpha decreased between firings %d and %d", i-1, i)
		}
	}
	out := res.Render()
	if !strings.Contains(out, "permanent or intermittent") {
		t.Fatalf("render missing flip label:\n%s", out)
	}
}

func TestFig4HealthyBeforeFault(t *testing.T) {
	cfg := DefaultFig4Config()
	res, err := RunFig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Firings {
		if f.Time <= int64(cfg.FaultAt) {
			t.Fatalf("watchdog fired at t=%d before the fault at %d", f.Time, cfg.FaultAt)
		}
	}
}

func TestFig4Deterministic(t *testing.T) {
	a, err := RunFig4(DefaultFig4Config())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFig4(DefaultFig4Config())
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Fatal("Fig. 4 scenario nondeterministic")
	}
}

// --- E2 / Fig. 5 --------------------------------------------------------

func TestFig5MatchesPaper(t *testing.T) {
	rows, err := RunFig5(1)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{4, 3, 2, 1, 0}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, row := range rows {
		if row.DTOF != want[i] {
			t.Errorf("m=%d: dtof=%d, want %d", row.Dissent, row.DTOF, want[i])
		}
	}
	if rows[0].Label != "consensus (farthest from failure)" {
		t.Errorf("m=0 label %q", rows[0].Label)
	}
	if rows[4].HasMajority {
		t.Error("m=4 of 7 should have no majority")
	}
	out := RenderFig5(rows)
	if !strings.Contains(out, "failure (no majority)") {
		t.Fatalf("render missing failure row:\n%s", out)
	}
}

// --- E3 / Fig. 6 --------------------------------------------------------

// fig6Resize is one re-dimensioning of the Fig. 6 organ: the round
// whose outcome made the controller decide, that outcome, and the size
// the organ runs at from the next round on.
type fig6Resize struct {
	round int64
	o     voting.Outcome
	to    int
}

// fig6Resizes steps DefaultFig6Config on the reference loop and returns
// its resizes and the outcome of its last round.
func fig6Resizes(t *testing.T) ([]fig6Resize, voting.Outcome) {
	t.Helper()
	rc, err := NewReferenceCampaign(DefaultFig6Config())
	if err != nil {
		t.Fatal(err)
	}
	var resizes []fig6Resize
	var o voting.Outcome
	for rc.Remaining() > 0 {
		round, n := rc.Rounds(), rc.Switchboard().Controller().N()
		o = rc.Step()
		if to := rc.Switchboard().Controller().N(); to != n {
			resizes = append(resizes, fig6Resize{round, o, to})
		}
	}
	return resizes, o
}

// TestFig6Staircase pins the Fig. 6 staircase. The storm raises the
// organ 3→5→7→9 at rounds 3000, 3300 and 3601, calm lowers it 9→7→5→3
// at rounds 5199, 6199 and 7199 (read on the reference loop), the last
// round runs at 3 replicas, and no round fails. The rounds are the
// figure's own claim, so -update cannot rewrite them: a storm dwell of
// 320 rounds in place of 300 moves every one.
func TestFig6Staircase(t *testing.T) {
	res, err := RunAdaptive(DefaultFig6Config())
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 {
		t.Fatalf("failures = %d, want 0", res.Failures)
	}
	if peak := res.Redundancy.State().Max; peak != 9 {
		t.Fatalf("peak redundancy %v, want 9", peak)
	}
	if res.Raises != 3 || res.Lowers != 3 {
		t.Fatalf("raises/lowers = %d/%d, want 3/3 (3->5->7->9->7->5->3)", res.Raises, res.Lowers)
	}
	resizes, last := fig6Resizes(t)
	want := []struct {
		round int64
		to    int
	}{{3000, 5}, {3300, 7}, {3601, 9}, {5199, 7}, {6199, 5}, {7199, 3}}
	if len(resizes) != len(want) {
		t.Fatalf("%d resizes (%v), want %d", len(resizes), resizes, len(want))
	}
	for i, w := range want {
		if r := resizes[i]; r.round != w.round || r.to != w.to {
			t.Errorf("resize %d: to %d after round %d, want to %d after round %d", i, r.to, r.round, w.to, w.round)
		}
	}
	if last.N != 3 {
		t.Fatalf("final redundancy %d, want 3 (decay after calm)", last.N)
	}
	out := RenderFig6(res)
	if !strings.Contains(out, "redundancy") {
		t.Fatalf("render broken:\n%s", out)
	}
}

// TestFig6DTOFDropsBeforeRaise checks the §3.3 causality on every raise
// of the Fig. 6 staircase: the outcome that made the controller raise
// the organ had a distance to failure at or below CriticalDTOF, and
// the organ ran at minimal redundancy until the first raise.
func TestFig6DTOFDropsBeforeRaise(t *testing.T) {
	policy := DefaultFig6Config().Policy
	resizes, _ := fig6Resizes(t)
	raises := 0
	for _, r := range resizes {
		if r.to <= r.o.N {
			continue
		}
		raises++
		if r.o.DTOF > policy.CriticalDTOF {
			t.Errorf("raise to %d after round %d, whose DTOF %d is above CriticalDTOF %d", r.to, r.round, r.o.DTOF, policy.CriticalDTOF)
		}
	}
	if raises == 0 {
		t.Fatal("redundancy never rose")
	}
	if resizes[0].o.N != policy.Min {
		t.Fatalf("first resize from %d replicas: the run did not start at minimal redundancy %d", resizes[0].o.N, policy.Min)
	}
}

// --- E4 / Fig. 7 --------------------------------------------------------

func TestFig7ShapeScaledDown(t *testing.T) {
	// A 2M-step run keeps the paper's storm density; the shape targets
	// are the paper's headline: overwhelming occupancy at r=3 and zero
	// voting failures despite the injected storms.
	cfg := DefaultFig7Config(2_000_000)
	res, err := RunAdaptive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 {
		t.Fatalf("failures = %d, want 0 (paper: no clashes observed)", res.Failures)
	}
	if res.MinFraction < 0.97 {
		t.Fatalf("time at r=3 = %.5f, want >= 0.97 at this scale", res.MinFraction)
	}
	// All four redundancy degrees must actually be exercised.
	for _, r := range []int{3, 5, 7, 9} {
		if res.Hist.Count(r) == 0 {
			t.Errorf("redundancy %d never used", r)
		}
	}
	// The histogram is monotone: lower redundancy dominates.
	if res.Hist.Count(3) < res.Hist.Count(5) ||
		res.Hist.Count(5) < res.Hist.Count(7) ||
		res.Hist.Count(7) < res.Hist.Count(9) {
		t.Fatalf("occupancy not monotone: 3=%d 5=%d 7=%d 9=%d",
			res.Hist.Count(3), res.Hist.Count(5), res.Hist.Count(7), res.Hist.Count(9))
	}
	out := RenderFig7(res, 3)
	if !strings.Contains(out, "99.92798") {
		t.Fatalf("render missing paper reference:\n%s", out)
	}
}

// fig7ClaimsGolden records the spread of Fig. 7's headline number
// across replicas; -update rewrites it.
const fig7ClaimsGolden = "testdata/fig7-claims.golden"

// TestFig7PaperClaims checks Fig. 7's claims against 32 replicas of the
// paper's full 65M-round campaign (seeds xrand.Seeds(1906, 32)): no
// replica has a voting failure (the paper observed no clashes), and the
// paper's 99.92798% time at minimal redundancy lies within the
// replicas' range. The golden records that time's minimum, median and
// maximum to five decimals, so a change that moves the distribution
// fails here even while the paper's value stays inside it.
func TestFig7PaperClaims(t *testing.T) {
	const paper = 99.92798
	res, err := SweepReplicas(DefaultFig7Config(65_000_000), 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	pct := make([]float64, len(res))
	for i, r := range res {
		if r.Failures != 0 {
			t.Errorf("replica %d: %d voting failures, want 0 (paper: no clashes observed)", i, r.Failures)
		}
		pct[i] = 100 * r.MinFraction
	}
	slices.Sort(pct)
	lo, hi := pct[0], pct[len(pct)-1]
	if paper < lo || paper > hi {
		t.Errorf("paper's %.5f%% at r=3 outside the replicas' range [%.5f%%, %.5f%%]", paper, lo, hi)
	}
	// The median of an even count is the upper middle value here.
	got := fmt.Sprintf("replicas %d\nmin %.5f\nmedian %.5f\nmax %.5f\n",
		len(pct), lo, pct[len(pct)/2], hi)
	if *update {
		if err := os.WriteFile(fig7ClaimsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(fig7ClaimsGolden)
	if err != nil {
		t.Fatalf("missing Fig. 7 claims golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("Fig. 7 time at r=3 across replicas moved:\n%s\nwant:\n%s", got, want)
	}
}

func TestFig7Deterministic(t *testing.T) {
	cfg := DefaultFig7Config(300_000)
	a, err := RunAdaptive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunAdaptive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Failures != b.Failures || a.ReplicaRounds != b.ReplicaRounds ||
		a.Raises != b.Raises || a.Lowers != b.Lowers {
		t.Fatal("Fig. 7 run nondeterministic for equal seeds")
	}
}

func TestRunAdaptiveValidation(t *testing.T) {
	if _, err := RunAdaptive(AdaptiveRunConfig{Steps: 0}); err == nil {
		t.Fatal("zero steps accepted")
	}
}

// --- E5 -----------------------------------------------------------------

func TestE5LivelockAndAdaptiveEscape(t *testing.T) {
	rows, err := RunE5(DefaultE5Config())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]PatternRow{}
	for _, r := range rows {
		byName[r.Strategy] = r
	}
	redo := byName["static redoing"]
	adaptive := byName["adaptive (alpha-count)"]
	reconf := byName["static reconfiguration"]

	// Claim 1: redoing under a permanent fault fails every request after
	// the fault and burns maximal attempts (the livelock).
	if redo.Failures != 150 {
		t.Fatalf("static redoing failures = %d, want 150 (every post-fault request)", redo.Failures)
	}
	// Reconfiguration handles it with one spare activation.
	if reconf.Failures != 0 || reconf.Activations != 1 {
		t.Fatalf("static reconfiguration = %+v", reconf)
	}
	// The adaptive executor fails only during the discrimination window
	// and then restores service.
	if adaptive.Failures == 0 {
		t.Fatal("adaptive executor shows no discrimination window; suspicious")
	}
	if adaptive.Failures > 5 {
		t.Fatalf("adaptive failures = %d, want <= 5 (short window)", adaptive.Failures)
	}
	// And it spends far fewer attempts than the livelocked redoing.
	if adaptive.Attempts*3 > redo.Attempts {
		t.Fatalf("adaptive attempts %d not clearly below redoing %d",
			adaptive.Attempts, redo.Attempts)
	}
	out := RenderPatternRows("E5", rows)
	if !strings.Contains(out, "static redoing") {
		t.Fatalf("render broken:\n%s", out)
	}
}

// --- E6 -----------------------------------------------------------------

func TestE6SpareWasteAndAdaptiveThrift(t *testing.T) {
	rows, err := RunE6(DefaultE6Config())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]PatternRow{}
	for _, r := range rows {
		byName[r.Strategy] = r
	}
	redo := byName["static redoing"]
	reconf := byName["static reconfiguration"]
	adaptive := byName["adaptive (alpha-count)"]

	// Redoing masks every transient for free.
	if redo.Failures != 0 || redo.Activations != 0 {
		t.Fatalf("static redoing = %+v", redo)
	}
	// Claim 2: reconfiguration burns all spares on transients and then
	// starts failing.
	if reconf.Activations != int64(DefaultE6Config().Spares) {
		t.Fatalf("static reconfiguration burned %d spares, want %d",
			reconf.Activations, DefaultE6Config().Spares)
	}
	if reconf.Failures == 0 {
		t.Fatal("static reconfiguration never failed after exhausting spares")
	}
	// The adaptive executor stays in the redoing regime: no waste, no
	// failures.
	if adaptive.Failures != 0 || adaptive.Activations != 0 {
		t.Fatalf("adaptive = %+v, want clean run", adaptive)
	}
}

// --- E7 -----------------------------------------------------------------

func TestE7SelectionAndSurvival(t *testing.T) {
	cells, err := RunE7(DefaultE7Config())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 25 {
		t.Fatalf("matrix has %d cells, want 25", len(cells))
	}
	selected := map[string]string{}
	errorsAt := map[string]map[string]int64{}
	for _, c := range cells {
		if c.Selected {
			selected[c.Profile] = c.Method
		}
		if errorsAt[c.Profile] == nil {
			errorsAt[c.Profile] = map[string]int64{}
		}
		errorsAt[c.Profile][c.Method] = c.DataErrors
	}
	// The selector picks Mi for fi.
	want := map[string]string{
		"f0": "M0-raw", "f1": "M1-scrub", "f2": "M2-remap",
		"f3": "M3-tmr", "f4": "M4-fullsee",
	}
	for profile, method := range want {
		if selected[profile] != method {
			t.Errorf("profile %s selected %s, want %s", profile, selected[profile], method)
		}
	}
	// The chosen method survives its own profile with zero data errors.
	for profile, method := range want {
		if n := errorsAt[profile][method]; n != 0 {
			t.Errorf("chosen %s on %s had %d data errors", method, profile, n)
		}
	}
	// Negative controls: on each faulty profile the raw method loses
	// data.
	for _, profile := range []string{"f1", "f2", "f3", "f4"} {
		if errorsAt[profile]["M0-raw"] == 0 {
			t.Errorf("M0-raw survived profile %s; injection too weak", profile)
		}
	}
	// And the under-provisioned method one step below the chosen one
	// loses data on f3/f4 (M2 lacks SEL tolerance; M3 lacks SFI
	// recovery).
	if errorsAt["f3"]["M2-remap"] == 0 {
		t.Error("M2-remap survived SEL profile f3")
	}
	if errorsAt["f4"]["M3-tmr"] == 0 {
		t.Error("M3-tmr survived SFI profile f4")
	}
	out := RenderE7(cells)
	if !strings.Contains(out, "chosen by autoconf") {
		t.Fatalf("render broken:\n%s", out)
	}
}

// --- E8 -----------------------------------------------------------------

func TestE8FixedVsAutonomic(t *testing.T) {
	rows, err := RunE8(120_000, 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]E8Row{}
	for _, r := range rows {
		byName[r.Strategy] = r
	}
	fixed3 := byName["fixed n=3"]
	fixed9 := byName["fixed n=9"]
	autonomic := byName["autonomic"]

	// The minimal Thermostat fails under the storms.
	if fixed3.Failures == 0 {
		t.Fatal("fixed n=3 never failed; storms too weak")
	}
	// Maximal fixed redundancy survives but at maximal cost.
	if fixed9.Failures != 0 {
		t.Fatalf("fixed n=9 failed %d times", fixed9.Failures)
	}
	// The autonomic Cell: no failures at near-minimal cost.
	if autonomic.Failures != 0 {
		t.Fatalf("autonomic failed %d times", autonomic.Failures)
	}
	if autonomic.AvgRedundancy >= 4.0 {
		t.Fatalf("autonomic average redundancy %.3f, want < 4.0", autonomic.AvgRedundancy)
	}
	if autonomic.ReplicaRounds*2 >= fixed9.ReplicaRounds {
		t.Fatalf("autonomic cost %d not clearly below fixed-9 cost %d",
			autonomic.ReplicaRounds, fixed9.ReplicaRounds)
	}
	out := RenderE8(rows)
	if !strings.Contains(out, "autonomic") {
		t.Fatalf("render broken:\n%s", out)
	}
}

// --- cross-cutting ------------------------------------------------------

func TestStormRampNeverOutpacesController(t *testing.T) {
	// Run several seeds of the Fig. 6 regime; zero failures must hold
	// across all of them, not just the default seed.
	for seed := uint64(1); seed <= 10; seed++ {
		cfg := DefaultFig6Config()
		cfg.Seed = seed
		res, err := RunAdaptive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failures != 0 {
			t.Fatalf("seed %d: %d failures", seed, res.Failures)
		}
	}
}
