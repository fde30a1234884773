// The batch campaign engine: W independent §3.3 campaigns, one lane
// struct each, run eight lanes at a time.
//
// The scalar fused engine (engine.go) is zero-allocation but pays, per
// round, a pointer-chase through Switchboard -> Controller/Farm, and n
// ballot writes plus an n-wide scan even on the all-quiet rounds that
// make up 98% of the rounds of a scaled Fig. 7 campaign. BatchCampaign
// removes both. Each lane is one struct that holds its whole campaign:
// its storm generator, which owns its PRNG words; its corruption-value
// stream; its switchboard state (controller target and streak, farm
// size, decision and nonce counters) as one redundancy.SwitchboardState;
// its occupancy row and series. The round loop is straight code on that
// struct, with no interface or closure in sight. No lane points into
// another or into a shared slice, so a lane's state is a plain value:
// it snapshots, restores and folds into a result through the
// campaignState every engine shares (snapshot.go).
//
// Run takes the lanes in groups of eight, each lane through the whole
// window at its own pace; lanes share no state, so the result is the
// one lockstep stepping gives. A lane takes its rounds in bulk wherever
// no outcome can change the organ: the quiet rounds of the background,
// and whole storm levels whose corrupt rounds keep golden's strict
// majority without reaching the critical dtof (or reach it with the
// controller already at Max). The draw of every round is still made,
// on the lane's storm PRNG held in registers (xrand.Rand.Misses, whose
// hit test is an integer compare on the raw draw against a threshold
// converted once per batch), and a storm hit still draws its corrupt
// values, but the counters advance once per run. The per-round path
// takes only what bulk cannot: a storm's onset round (which draws its
// shape) and end round, a hit that raises or loses golden's majority,
// the round whose quiet streak reaches LowerAfter above Policy.Min,
// every round of an organ whose quiet rounds are critical, sample-grid
// rounds, and recorded rounds. A bulk round thus costs a draw and a
// compare.
//
// Most of a Fig. 7 lane's rounds are one kind of bulk round: the
// background, where only a hit, the run's end or (above Policy.Min) the
// round that would lower the organ ends the run. A lane parks at such a
// run, and its group's parked lanes draw together, one xrand.MissesN
// call per scan: on CPUs with AVX-512F the eight storm streams step in
// one vector register per state word, and with AVX2 in one or two, so
// a draw costs a fraction of a scalar one. The streams are independent
// and share only the background's threshold, so a scan is each lane's
// own bulk run cut at a common length, and each lane is credited its
// own rounds. Per-lane cost thus falls at widths of two and up; a
// one-lane batch draws as before.
//
// A round on the per-round path costs what its outcome needs. While
// golden keeps a strict majority the outcome is a function of the organ
// size and the corruption count alone, so the round draws its corrupt
// values (to keep the stream in step) and builds the outcome directly;
// only a round where golden lacks a strict majority packs its ballots
// into bitset words and tallies them (voting.TallyWords). Each resize
// is signed and verified by one keyed signer the batch holds.
//
// Correctness is lane equivalence, not approximation: every lane runs
// the same per-round draw order (storm generator split first,
// corruption-value stream second), the same first-K corruption pattern,
// the same tally semantics (the direct outcome is the one TallyWords's
// strict-majority branch returns, and TallyWords falls back to the
// scalar tally whenever golden lacks a strict majority), and the same
// controller policy (redundancy.Policy.Decide, the pure kernel
// Controller.Observe itself runs). A lane's transcript is therefore
// byte-identical to the scalar fused engine and the reference loop for
// the same seed — the differential tests in batch_test.go assert it
// round by round and chunk by chunk — and a lane extracted with
// LaneSnapshot restores on either scalar engine (and vice versa via
// RestoreBatchCampaign), because it writes the exact scalar campaign
// snapshot schema.
//
// RunAdaptive runs a one-lane batch, and the seed and replica sweeps
// and the E8/E10 sweeps run pool tasks of up to eight lanes
// (lanesPerTask).

package experiments

import (
	"fmt"
	"math"

	"aft/internal/checkpoint"
	"aft/internal/metrics"
	"aft/internal/redundancy"
	"aft/internal/voting"
	"aft/internal/xrand"
)

// DefaultBatchWidth is the customary lane count of one batch, the unit
// the repository's benchmark sizes its seed sweep in (two batches per
// pass, one per core of a two-core machine). The sweeps do not group
// lanes by it: they cut a sweep into pool tasks of at most eight lanes,
// the width Run scans at (lanesPerTask).
const DefaultBatchWidth = 16

const (
	// groupWidth is how many lanes Run takes together: the most streams
	// one xrand.MissesN call scans, the eight 64-bit lanes of an
	// AVX-512 register, so one call scans a whole group.
	groupWidth = xrand.MaxStreams
	// minParkRun is the shortest background run a lane waits for its
	// group to scan. A parked lane caps its group's next scan at its
	// own run's length, and a scan gathers and scatters the parked
	// states and re-parks every lane, so a short remainder is drawn
	// alone. Runs at Policy.Min in a Fig. 7 campaign are thousands of
	// rounds long, and runs above it up to LowerAfter−1 (999) rounds.
	// 64, 256 and 1 024 gave BenchmarkBatchRun/w16 0.79, 0.78 and 0.84
	// ns/lane-round (medians of five interleaved runs on AVX-512F, 2-vCPU
	// VM), the same within noise.
	minParkRun = 256
	// minScanLanes is the fewest parked lanes a scan takes. A step of
	// the eight-wide AVX-512F scan costs less than two scalar draws
	// (BenchmarkMisses8: 0.37 against 1.69 ns per draw, so about 3.0
	// against 3.4 ns), and the four-wide AVX2 one about as much (0.85
	// per draw, 3.4 ns), so two lanes with padding slots gain or break
	// even, and only a lone lane draws alone.
	minScanLanes = 2
)

// BatchLane describes one lane of a batch: its seed and its controller
// policy. Lanes of one batch share Steps, the storm regime, and the
// sampling period, but may differ in seed and policy — which is how the
// E8 fixed-dimensioning contenders (Min == Max pins the organ) and the
// E10 hysteresis sweep (varying LowerAfter) ride the same batch.
type BatchLane struct {
	// Seed drives the lane's randomness, exactly as AdaptiveRunConfig.Seed
	// drives a scalar campaign.
	Seed uint64
	// Policy is the lane's controller policy.
	Policy redundancy.Policy
}

// BatchCampaign runs W independent campaigns, one lane struct each;
// every lane is at the same round between Run calls. Construct with
// NewBatchCampaign or NewBatchCampaignLanes, drive with Step/Run/RunAll,
// and harvest one AdaptiveRunResult per lane with Result.
type BatchCampaign struct {
	cfg   AdaptiveRunConfig // Seed and Policy are per-lane; see lanes
	lanes []lane

	// step is the round every lane has reached between Run calls.
	step int64

	// background and storm are the storm regime's two hit rates,
	// converted once per batch.
	background, storm hitRate

	// signer signs and verifies every lane's resizes under campaignKey.
	signer *redundancy.ResizeSigner

	// Packed-ballot scratch, reused by every lane within a round.
	words   []uint64
	vals    []uint64
	ballots []uint64

	// record captures each lane's outcome for the differential tests;
	// off by default to keep the hot loop free of the stores.
	record bool

	// work counts what the kernel did, over every lane, for the kernel
	// work golden. It is in no snapshot and no output.
	work kernelWork
}

// lane is one campaign of a batch: everything its future and its result
// depend on, besides the shared configuration and round.
type lane struct {
	BatchLane
	// storms owns the lane's storm PRNG; crng is its corruption-value
	// stream.
	storms storms
	crng   xrand.Rand
	// sb is the switchboard: controller target, quiet streak and
	// decisions, farm size and counters, and the resize nonce watermark.
	sb redundancy.SwitchboardState

	failures, replicaRounds int64
	// occ counts rounds by replica count, Policy.Max+1 slots.
	occ       []int64
	red, dtof *metrics.Series // nil unless cfg.SampleEvery > 0

	// last is the lane's most recent outcome while the batch records.
	last voting.Outcome
}

// kernelWork counts the kernel's units of work. Each counter moves once
// per run, once per scan or once per round on the per-round path, never
// per bulk round.
type kernelWork struct {
	perRound   int64 // rounds on the per-round path (laneRound)
	tallies    int64 // voting.TallyWords calls
	quietRuns  int64 // bulk runs in the background, one lane at a time
	stormRuns  int64 // bulk runs inside a storm level
	resizes    int64 // resize messages signed and verified
	scans      int64 // scans of parked background runs
	scanRounds int64 // lane-rounds those scans took in bulk
}

// hitRate is a per-round hit probability and its xrand.HitThreshold,
// converted once per batch.
type hitRate struct {
	p      float64
	thresh uint64 // non-zero exactly when 0 < p < 1
}

// newHitRate converts p once, for every lane and round of a batch.
func newHitRate(p float64) hitRate {
	r := hitRate{p: p}
	if p > 0 && p < 1 {
		r.thresh = xrand.HitThreshold(p)
	}
	return r
}

// NewBatchCampaign builds a batch with one lane per seed, all lanes
// running cfg.Policy (cfg.Seed is ignored; the seeds argument is the
// per-lane truth).
func NewBatchCampaign(cfg AdaptiveRunConfig, seeds []uint64) (*BatchCampaign, error) {
	lanes := make([]BatchLane, len(seeds))
	for i, s := range seeds {
		lanes[i] = BatchLane{Seed: s, Policy: cfg.Policy}
	}
	return NewBatchCampaignLanes(cfg, lanes)
}

// NewBatchCampaignLanes builds a batch from explicit lanes. cfg.Steps,
// cfg.Storms, and cfg.SampleEvery are shared by every lane; cfg.Seed
// and cfg.Policy are superseded by the lanes.
func NewBatchCampaignLanes(cfg AdaptiveRunConfig, lanes []BatchLane) (*BatchCampaign, error) {
	if cfg.Steps <= 0 {
		return nil, fmt.Errorf("experiments: Steps must be positive")
	}
	if err := cfg.Storms.Validate(); err != nil {
		return nil, err
	}
	if len(lanes) == 0 {
		return nil, fmt.Errorf("experiments: batch needs at least one lane")
	}
	maxMax := 0
	for i, bl := range lanes {
		if err := bl.Policy.Validate(); err != nil {
			return nil, fmt.Errorf("experiments: lane %d: %w", i, err)
		}
		maxMax = max(maxMax, bl.Policy.Max)
	}
	b := &BatchCampaign{
		cfg:        cfg,
		lanes:      make([]lane, len(lanes)),
		background: newHitRate(cfg.Storms.Background),
		storm:      newHitRate(cfg.Storms.StormP),
		signer:     redundancy.NewResizeSigner(campaignKey),
		words:      make([]uint64, voting.DissentWords(maxMax)),
		vals:       make([]uint64, maxMax),
		ballots:    make([]uint64, maxMax),
	}
	for i, bl := range lanes {
		// Stream discipline matches NewCampaign exactly: the storm
		// generator splits off the lane's root stream first, the
		// corruption-value stream second.
		root := xrand.New(bl.Seed)
		l := &b.lanes[i]
		l.BatchLane = bl
		l.storms = *newStorms(cfg.Storms, root)
		l.crng = *root.Split()
		l.sb.Controller.N, l.sb.Farm.Replicas = bl.Policy.Min, bl.Policy.Min
		l.occ = make([]int64, bl.Policy.Max+1)
		l.red, l.dtof = newSeries(cfg)
	}
	return b, nil
}

// Width reports the number of lanes.
func (b *BatchCampaign) Width() int { return len(b.lanes) }

// Rounds reports how many rounds have been run so far (every lane has
// run exactly this many).
func (b *BatchCampaign) Rounds() int64 { return b.step }

// Remaining reports how many configured rounds are left.
func (b *BatchCampaign) Remaining() int64 {
	if r := b.cfg.Steps - b.step; r > 0 {
		return r
	}
	return 0
}

// Config returns the shared configuration (Seed and Policy are
// per-lane, from the BatchLane each lane was built with).
func (b *BatchCampaign) Config() AdaptiveRunConfig { return b.cfg }

// RecordOutcomes toggles per-lane outcome capture for LaneOutcome. It
// is a testing aid (the differential tests compare every lane's
// per-round outcome against a scalar campaign); leaving it off keeps
// the hot loop free of the per-lane stores.
func (b *BatchCampaign) RecordOutcomes(on bool) { b.record = on }

// LaneOutcome returns the lane's outcome of the most recent Step.
// Outcomes are only captured while RecordOutcomes(true) is in force;
// the Votes field is always nil.
func (b *BatchCampaign) LaneOutcome(lane int) voting.Outcome { return b.lanes[lane].last }

// Step runs one round of every lane; it is Run(1).
func (b *BatchCampaign) Step() { b.Run(1) }

// Run steps the batch n more rounds. Lanes share no state, so Run takes
// them a group of eight at a time (runGroup), each lane through the
// whole window at its own pace, and every lane ends where lockstep
// stepping would have left it. Off the sampling grid it performs zero
// heap allocations.
func (b *BatchCampaign) Run(n int64) {
	if n <= 0 {
		return
	}
	end := b.step + n
	for lo := 0; lo < len(b.lanes); lo += groupWidth {
		b.runGroup(b.lanes[lo:min(lo+groupWidth, len(b.lanes))], end)
	}
	b.step = end
}

// runGroup steps the lanes of g, at most groupWidth of them, from
// b.step to end. Each lane runs alone until it reaches end or parks at
// a background run a scan can take (parks). Once every lane has,
// the parked lanes take their runs together, scan by scan, each from
// its own round, and run on. Every other lane has reached end when
// fewer than minScanLanes are parked, so those finish alone, and a
// one-lane group never parks: RunAdaptive's one-lane batch draws as
// the scalar bulkRun does.
func (b *BatchCampaign) runGroup(g []lane, end int64) {
	var at, stop [groupWidth]int64 // each lane's round; its parked run's end, or 0
	for j := range at {
		at[j] = b.step
	}
	park := len(g) >= minScanLanes
	for {
		parked := 0
		for j := range g {
			if stop[j] == 0 {
				at[j], stop[j] = b.runLane(&g[j], at[j], end, park)
			}
			if stop[j] != 0 {
				parked++
			}
		}
		if parked < minScanLanes {
			break
		}
		b.scan(g, &at, &stop)
	}
	for j := range g {
		if stop[j] != 0 {
			b.runLane(&g[j], at[j], end, false)
		}
	}
}

// runLane steps lane l from round step toward end and returns the round
// it stopped at. With park set it stops early where it would hand
// bulkRun a background run parks takes, and also returns the round its
// parked run stops at; otherwise it runs to end and returns 0 there.
//
// A round of the background (no storm in progress, none due) or of a
// storm level (past the onset round, which draws the storm's shape) is
// one Bool(p) draw, exactly the draw corruptions() takes, that corrupts
// k replicas on a hit and mutates nothing else in the generator. Such
// rounds go to bulkRun up to stop, where that stops holding: the next
// onset, or the level's end (stormEnd at the last level). A round
// quietLimit or bulkRun cannot take — a sample-grid round, a recorded
// round, the round whose streak would lower the organ, a hit that
// raises or loses golden's majority (already drawn) — takes the
// per-round path, and so do the onset round and the round a storm ends.
func (b *BatchCampaign) runLane(l *lane, step, end int64, park bool) (int64, int64) {
	st := &l.storms
	for step < end {
		rate, k, stop := b.background, 1, st.nextOnset
		storm := st.inStorm && step > st.onset && step < st.stormEnd
		if storm {
			level := (step - st.onset) / st.level
			rate, k = b.storm, min(int(level)+1, st.peak)
			stop = min(st.onset+(level+1)*st.level, st.stormEnd)
		} else if st.inStorm || (stop >= 0 && step >= stop) {
			b.laneRound(l, step, st.corruptions(step))
			step++
			continue
		}
		if limit := b.quietLimit(l, step, end, stop); limit > 0 {
			if park && !storm {
				if run := b.parks(l, limit); run > 0 {
					return step, step + run
				}
			}
			var hit bool
			if step, hit = b.bulkRun(l, step, step+limit, rate, k, storm); !hit {
				continue
			}
		} else if !st.rng.Bool(rate.p) {
			k = 0
		}
		b.laneRound(l, step, k)
		step++
	}
	return step, 0
}

// parks returns how many rounds of lane l's background run of limit
// rounds wait for a scan, or 0 when the lane draws them alone. The
// background must draw (0 < p < 1, so it has a threshold). At
// Policy.Min the streak wraps (see bulkRun), so the whole run parks;
// above it the parked run stops where bulkRun stops a run, one round
// before the streak would reach LowerAfter, so the streak stays below
// LowerAfter in the scan and the lowering round takes the per-round
// path. A run parks only when it is at least minParkRun rounds long.
func (b *BatchCampaign) parks(l *lane, limit int64) int64 {
	if c := &l.sb.Controller; c.N > l.Policy.Min {
		limit = min(limit, int64(l.Policy.LowerAfter-1-c.Quiet))
	}
	if b.background.thresh == 0 || limit < minParkRun {
		return 0
	}
	return limit
}

// scan takes the parked lanes of group g through one xrand.MissesN call
// on their storm generators, as long as the shortest run any of them
// has left.
//
// It is bulkRun cut at a common length. The streams are independent
// and share only the background's threshold, so each lane draws
// exactly the draws its own bulkRun would, and is credited by
// bulkRun's accounting: m quiet rounds, or m+1 when another lane's hit
// ended the scan (this lane missed that draw), with the streak wrapped
// at LowerAfter. Above Policy.Min the wrap does nothing, since parks
// ends such a lane's run before its streak reaches LowerAfter. A lane
// that hit takes that round as bulkRun takes a hit: absorbed, which
// resets the streak, or on the per-round path. Every scanned lane is
// unparked, and runGroup parks it again, with its new room, if its run
// goes on.
func (b *BatchCampaign) scan(g []lane, at, stop *[groupWidth]int64) {
	var rngs [groupWidth]*xrand.Rand
	var slot [groupWidth]int // the group index of each slot's lane
	k, n := 0, int64(math.MaxInt64)
	for j, s := range stop {
		if s != 0 {
			rngs[k], slot[k] = &g[j].storms.rng, j
			n = min(n, s-at[j])
			k++
		}
	}
	m, hits := xrand.MissesN(rngs[:k], b.background.thresh, n)
	var taken int64
	for i, j := range slot[:k] {
		l := &g[j]
		rounds, hit := m, hits>>i&1 != 0
		if hits != 0 && !hit {
			rounds++
		}
		quiet := int64(l.sb.Controller.Quiet) + rounds
		if hit {
			if kk, ok := l.absorbs(1); ok {
				corrupt(&l.crng, at[j]+rounds, kk)
				quiet, hit = 0, false
				rounds++
			}
		}
		l.credit(rounds, quiet%int64(l.Policy.LowerAfter))
		taken += rounds
		at[j] += rounds
		if hit {
			b.laneRound(l, at[j], 1)
			at[j]++
		}
		stop[j] = 0
	}
	b.work.scans++
	b.work.scanRounds += taken
}

// quietLimit is how many rounds from step lane l may take in bulk. It
// is 0, and the round takes the per-round path, when outcomes are
// recorded, when a quiet round is critical (MaxDTOF(n) ≤
// CriticalDTOF), on a sample-grid round, and when a quiet round would
// bring the streak to LowerAfter with the controller above Policy.Min
// (at Min, Decide only wraps the streak, so a run may cross that
// round). Otherwise it reaches the window's end, stop (when not
// negative) or the next sample-grid round, whichever comes first;
// bulkRun keeps the streak below LowerAfter inside the run.
func (b *BatchCampaign) quietLimit(l *lane, step, end, stop int64) int64 {
	p, c := &l.Policy, &l.sb.Controller
	if b.record || voting.MaxDTOF(l.sb.Farm.Replicas) <= p.CriticalDTOF ||
		(c.N > p.Min && c.Quiet >= p.LowerAfter-1) {
		return 0
	}
	limit := end - step
	if stop >= 0 && stop-step < limit {
		limit = stop - step
	}
	if se := b.cfg.SampleEvery; se > 0 {
		if d := (se - step%se) % se; d < limit {
			limit = d
		}
	}
	return limit
}

// bulkRun takes lane l's rounds from step toward stop in bulk, each a
// draw at rate that corrupts k replicas on a hit; quietLimit has
// checked that they may be quiet and that the first one may. A hit is
// absorbed when absorbs says its outcome cannot change the organ; it
// still draws its corrupt values. A quiet round only adds to the
// streak, which must stay below LowerAfter except at Policy.Min, where
// Decide wraps it to 0: there the streak ends at (q + r) mod
// LowerAfter. The counters advance once for the whole run (credit).
// bulkRun returns the round it stopped at and whether that round is a
// hit it did not absorb, which the caller runs on the per-round path.
func (b *BatchCampaign) bulkRun(l *lane, step, stop int64, rate hitRate, k int, storm bool) (int64, bool) {
	if storm {
		b.work.stormRuns++
	} else {
		b.work.quietRuns++
	}
	pol := &l.Policy
	kk, absorb := l.absorbs(k)
	wrap := l.sb.Controller.N <= pol.Min
	rng := &l.storms.rng
	from, quiet, hit := step, int64(l.sb.Controller.Quiet), false
	for step < stop {
		limit := stop - step
		if !wrap {
			room := int64(pol.LowerAfter) - 1 - quiet
			if room <= 0 {
				break
			}
			limit = min(limit, room)
		}
		// Bool draws nothing at p <= 0 (always false) and p >= 1
		// (always true), so neither does the run.
		misses := limit
		if rate.thresh != 0 {
			misses, hit = rng.Misses(rate.thresh, limit)
		} else if rate.p >= 1 {
			misses, hit = 0, true
		}
		step += misses
		quiet += misses
		if !hit {
			continue
		}
		if !absorb {
			break
		}
		corrupt(&l.crng, step, kk)
		hit, quiet = false, 0
		step++
	}
	if wrap {
		quiet %= int64(pol.LowerAfter)
	}
	l.credit(step-from, quiet)
	return step, hit
}

// absorbs reports how many replicas a hit corrupting k of them
// corrupts, kk = min(k, n), and whether the organ absorbs it: with
// golden keeping a strict majority, and its dtof above critical or the
// controller already at Max, Decide orders no resize and only resets
// the streak.
func (l *lane) absorbs(k int) (int, bool) {
	n := l.sb.Farm.Replicas
	kk := min(k, n)
	return kk, n-kk > n/2 && (voting.DTOF(n, kk) > l.Policy.CriticalDTOF || l.sb.Controller.N >= l.Policy.Max)
}

// corrupt draws an absorbed hit's kk corrupt values for round step, in
// replica order, to keep the lane's corruption stream crng in step; the
// outcome does not need them.
func corrupt(crng *xrand.Rand, step int64, kk int) {
	for range kk {
		voting.CorruptValue(identity(uint64(step)), crng)
	}
}

// credit adds rounds bulk rounds at the lane's organ size to its
// counters, once for the whole run, and leaves its streak at quiet,
// which is below LowerAfter.
func (l *lane) credit(rounds, quiet int64) {
	n := l.sb.Farm.Replicas
	l.sb.Farm.Rounds += rounds
	l.replicaRounds += rounds * int64(n)
	l.occ[n] += rounds
	l.sb.Controller.Quiet = int(quiet)
}

// laneRound runs round step of lane l with k replicas corrupted (k is
// capped at the organ's n). The corrupt values are always drawn, in
// replica order, so the lane's corruption stream stays in step with the
// scalar engines. While golden keeps a strict majority (n−k > n/2, and
// always when k = 0) the outcome follows from n and k alone — it is the
// one TallyWords's strict-majority branch returns — so the values go
// unused; only a round where golden lacks a strict majority packs its
// ballots and tallies them. The outcome is then sampled, the policy
// kernel decides, and any resize is applied.
func (b *BatchCampaign) laneRound(l *lane, step int64, k int) {
	b.work.perRound++
	golden := identity(uint64(step))
	n := l.sb.Farm.Replicas
	k = min(k, n)
	for i := 0; i < k; i++ {
		b.vals[i] = voting.CorruptValue(golden, &l.crng)
	}
	var o voting.Outcome
	if n-k > n/2 {
		o = voting.Outcome{
			N: n, HasMajority: true, Value: golden,
			Dissent: k, DTOF: voting.DTOF(n, k), Correct: true,
		}
	} else {
		b.work.tallies++
		voting.SetFirstK(b.words, k)
		o = voting.TallyWords(n, golden, b.words, b.vals[:k], b.ballots)
		if o.Failed() {
			l.sb.Farm.Failures++
			l.failures++
		}
	}
	l.sb.Farm.Rounds++
	l.replicaRounds += int64(n)
	l.occ[n]++
	if l.red != nil && step%b.cfg.SampleEvery == 0 {
		l.red.Append(float64(o.N))
		l.dtof.Append(float64(o.DTOF))
	}
	c := &l.sb.Controller
	newN, quiet, dir := l.Policy.Decide(c.N, c.Quiet, o.DTOF, o.Dissent)
	c.Quiet = quiet
	if dir != 0 {
		c.N = newN
		switch dir {
		case redundancy.Raise:
			c.Raises++
		case redundancy.Lower:
			c.Lowers++
		}
		b.applyResize(l, newN, dir)
	}
	if b.record {
		o.Votes = nil
		l.last = o
	}
}

// applyResize carries a lane's dimensioning revision as a real signed
// resize message, mirroring Switchboard.deliver/Apply: sign with the
// next nonce, verify on receipt, and only then adopt. The reserved
// maximum nonce is rejected exactly as the scalar switchboard rejects
// it, so a lane restored near the end of the nonce space stays in
// lockstep with its scalar twin.
func (b *BatchCampaign) applyResize(l *lane, newN int, dir redundancy.Direction) {
	b.work.resizes++
	nonce := l.sb.LastNonce + 1
	req := b.signer.Sign(newN, dir, nonce)
	if err := b.signer.Verify(req); err != nil {
		// Unreachable: the same key signs and verifies.
		panic(err)
	}
	if nonce <= l.sb.LastNonce || nonce == ^uint64(0) {
		// nonce wrapped past the watermark (replay check) or hit the
		// reserved maximum — the scalar Apply rejects both.
		l.sb.Rejected++
		return
	}
	l.sb.LastNonce = nonce
	l.sb.Resizes++
	l.sb.Farm.Replicas = newN
}

// RunAll steps the batch through every remaining configured round.
func (b *BatchCampaign) RunAll() { b.Run(b.Remaining()) }

// state is lane i's campaign state: the state of the scalar campaign
// run with the lane's seed and policy, which the lane is equivalent to.
func (b *BatchCampaign) state(i int) campaignState {
	l := &b.lanes[i]
	cfg := b.cfg
	cfg.Seed, cfg.Policy = l.Seed, l.Policy
	return campaignState{
		engine:        engineBatch,
		cfg:           cfg,
		step:          b.step,
		failures:      l.failures,
		replicaRounds: l.replicaRounds,
		occupancy:     l.occ,
		sb:            l.sb,
		storms:        l.storms,
		crng:          l.crng,
		red:           l.red,
		dtof:          l.dtof,
	}
}

// Result folds one lane's state into the AdaptiveRunResult shape shared
// with the scalar engines; it is field-identical to the Result of a
// scalar campaign run with the lane's seed and policy.
func (b *BatchCampaign) Result(lane int) AdaptiveRunResult { return b.state(lane).result() }

// LaneSnapshot extracts one lane as a scalar campaign snapshot: the
// exact schema Campaign.Snapshot writes, so the lane restores on the
// fused engine (RestoreCampaign), the reference loop
// (RestoreReferenceCampaign), or back into a batch
// (RestoreBatchCampaign), and its continuation is byte-identical on all
// three.
func (b *BatchCampaign) LaneSnapshot(lane int) (*checkpoint.Snapshot, error) {
	if lane < 0 || lane >= len(b.lanes) {
		return nil, fmt.Errorf("experiments: lane %d outside batch of width %d", lane, len(b.lanes))
	}
	return snapshotCampaign(b.state(lane))
}

// RestoreBatchCampaign rebuilds a batch from one scalar campaign
// snapshot per lane — snapshots taken on any engine (batch lanes, the
// fused engine, the reference loop). All snapshots must be storm-driven
// and agree on the shared configuration (Steps, Storms, SampleEvery)
// and on the round they were taken at; seed and policy may differ per
// lane.
func RestoreBatchCampaign(snaps []*checkpoint.Snapshot) (*BatchCampaign, error) {
	if len(snaps) == 0 {
		return nil, fmt.Errorf("experiments: restore needs at least one lane snapshot")
	}
	states := make([]campaignState, len(snaps))
	for i, snap := range snaps {
		st, err := decodeCampaign(snap)
		if err != nil {
			return nil, fmt.Errorf("experiments: lane %d: %w", i, err)
		}
		if !st.hasStorms {
			return nil, fmt.Errorf("experiments: lane %d was taken with an external corruption source; batches are storm-driven only", i)
		}
		states[i] = st
	}
	shared := func(st campaignState) AdaptiveRunConfig {
		c := st.cfg
		c.Seed = 0
		c.Policy = redundancy.Policy{}
		return c
	}
	base := shared(states[0])
	lanes := make([]BatchLane, len(states))
	for i, st := range states {
		if shared(st) != base {
			return nil, fmt.Errorf("experiments: lane %d disagrees on the shared configuration (Steps/Storms/SampleEvery)", i)
		}
		if st.step != states[0].step {
			return nil, fmt.Errorf("experiments: lane %d at round %d, lane 0 at %d — lanes must be in lockstep",
				i, st.step, states[0].step)
		}
		if err := st.sb.Validate(st.cfg.Policy); err != nil {
			return nil, fmt.Errorf("experiments: lane %d: %w", i, err)
		}
		lanes[i] = BatchLane{Seed: st.cfg.Seed, Policy: st.cfg.Policy}
	}
	b, err := NewBatchCampaignLanes(states[0].cfg, lanes)
	if err != nil {
		return nil, err
	}
	for i, st := range states {
		l := &b.lanes[i]
		l.storms, l.crng, l.sb = st.storms, st.crng, st.sb
		l.failures, l.replicaRounds, l.occ = st.failures, st.replicaRounds, st.occupancy
		l.red, l.dtof = st.red, st.dtof
	}
	b.step = states[0].step
	return b, nil
}

// runLanesParallel runs the lane-based sweeps: it cuts the lanes into
// pool tasks of lanesPerTask lanes each, runs every task to completion
// on its own batch, and returns the results in lane order.
func runLanesParallel(cfg AdaptiveRunConfig, lanes []BatchLane, workers int) ([]AdaptiveRunResult, error) {
	size := lanesPerTask(len(lanes), Workers(workers))
	tasks, err := RunParallel((len(lanes)+size-1)/size, workers, func(g int) ([]AdaptiveRunResult, error) {
		lo := g * size
		b, err := NewBatchCampaignLanes(cfg, lanes[lo:min(lo+size, len(lanes))])
		if err != nil {
			return nil, err
		}
		b.RunAll()
		out := make([]AdaptiveRunResult, b.Width())
		for i := range out {
			out[i] = b.Result(i)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]AdaptiveRunResult, 0, len(lanes))
	for _, t := range tasks {
		out = append(out, t...)
	}
	return out, nil
}

// lanesPerTask is how many lanes runLanesParallel puts in one pool
// task: the lanes spread evenly over the workers, at most groupWidth
// to a task. A sweep of at least groupWidth lanes per worker runs in
// groups of eight, the width Run scans at, and a worker that finishes
// early takes the next group. A smaller sweep gives every worker a
// share rather than leaving cores idle, down to one lane per task when
// there are no more lanes than workers. E10's four lanes on two
// workers run as two tasks of two: as one group of four on one core
// they took 1.79 ms against 1.31 ms one lane per task, and as two
// tasks of two they take 1.25 ms (in process, 2-core VM with AVX2).
func lanesPerTask(lanes, workers int) int {
	return max(1, min(groupWidth, (lanes+workers-1)/workers))
}
