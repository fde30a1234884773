// The batch campaign engine: W independent §3.3 campaigns over
// struct-of-arrays state, run four lanes at a time.
//
// The scalar fused engine (engine.go) is zero-allocation but pays, per
// round, an interface dispatch for the corruption source, a
// pointer-chase through Switchboard -> Controller/Farm, and n ballot
// writes plus an n-wide scan even on the all-quiet rounds that make up
// 98% of the rounds of a scaled Fig. 7 campaign. BatchCampaign removes
// all three: every lane's state — PRNG words, controller counters, nonce
// watermarks, occupancy rows — lives in flat slices indexed by lane, and
// the round loop is straight array code with no interface or closure in
// sight.
//
// Run takes the lanes in groups of four, each lane through the whole
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
// background at Policy.Min, where the streak wraps and only a hit ends
// the run. A lane parks at such a run, and its group's parked lanes
// draw together, one xrand.Misses4 call per scan: on CPUs with AVX2 the
// four storm streams step in one vector register per state word, so a
// draw costs less than half a scalar one. The streams are independent
// and share only the background's threshold, so a scan is each lane's
// own bulk run cut at a common length, and each lane is credited its
// own rounds. Per-lane cost thus falls at widths of four and up; a
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
// and the E8/E10 sweeps run pool tasks of up to four lanes
// (lanesPerTask).
//
// A BatchCampaign holds interior pointers into its own slices (the
// per-lane storm generators alias stormRng), so it must not be copied
// after construction.

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
// lanes by it: they cut a sweep into pool tasks of at most four lanes,
// the vector width Run scans at (lanesPerTask).
const DefaultBatchWidth = 16

const (
	// groupWidth is how many lanes Run takes together: the four 64-bit
	// lanes of an AVX2 register, so one xrand.Misses4 call scans a
	// whole group.
	groupWidth = 4
	// minParkRun is the shortest background run a lane waits for its
	// group to scan. A parked lane caps its group's next scan at its
	// own run's length, and a scan costs two 128-byte copies and a
	// re-park per lane, so a short remainder is drawn alone. Runs at
	// Policy.Min in a Fig. 7 campaign are thousands of rounds long, and
	// 64, 256, 1 024 and 4 096 gave the same BenchmarkBatchRun/w16
	// within noise (1.2–1.7 ns/lane-round on a 2-core Xeon VM).
	minParkRun = 256
	// minScanLanes is the fewest parked lanes a scan takes. One
	// four-wide step costs less than two scalar draws (BenchmarkMisses4:
	// 0.9 against 2.1 ns per draw, so about 3.6 against 4.2 ns), so two
	// lanes with two padding slots already gain, and only a lone lane
	// draws alone.
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

// BatchCampaign runs W independent campaigns over struct-of-arrays
// state; every lane is always at the same round. Construct with
// NewBatchCampaign or NewBatchCampaignLanes, drive with Step/Run/RunAll,
// and harvest one AdaptiveRunResult per lane with Result. Do not copy a
// constructed BatchCampaign.
type BatchCampaign struct {
	cfg   AdaptiveRunConfig // Seed and Policy are per-lane; see lanes
	lanes []BatchLane

	// step is the round every lane has reached between Run calls.
	step int64

	// Per-lane struct-of-arrays state, all indexed by lane.
	storms   []storms     // storm generators; rng aliases stormRng
	stormRng []xrand.Rand // storm-generator PRNG words, flat
	crng     []xrand.Rand // corruption-value PRNG words, flat

	nCtrl []int   // controller target dimensioning
	nFarm []int   // organ dimensioning actually in force
	quiet []int64 // consecutive full-consensus streak

	raises, lowers    []int64 // controller decision counters
	lastNonce         []uint64
	resizes, rejected []int64
	farmRounds        []int64
	farmFailures      []int64
	failures          []int64
	replicaRounds     []int64
	occ               []int64 // occupancy rows, stride slots per lane
	stride            int
	red, dtof         []*metrics.Series // nil unless cfg.SampleEvery > 0

	// background and storm are the storm regime's two hit rates,
	// converted once per batch.
	background, storm hitRate

	// signer signs and verifies every lane's resizes under campaignKey.
	signer *redundancy.ResizeSigner

	// Packed-ballot scratch, reused by every lane within a round.
	words   []uint64
	vals    []uint64
	ballots []uint64

	// record/last capture per-lane outcomes for the differential tests;
	// off by default to keep the hot loop free of the stores.
	record bool
	last   []voting.Outcome

	// work counts what the kernel did, over every lane, for the kernel
	// work golden. It is in no snapshot and no output.
	work kernelWork
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
	scans      int64 // four-wide scans of parked background runs
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
	for i, lane := range lanes {
		if err := lane.Policy.Validate(); err != nil {
			return nil, fmt.Errorf("experiments: lane %d: %w", i, err)
		}
		if lane.Policy.Max > maxMax {
			maxMax = lane.Policy.Max
		}
	}
	w := len(lanes)
	b := &BatchCampaign{
		cfg:           cfg,
		lanes:         append([]BatchLane(nil), lanes...),
		storms:        make([]storms, w),
		stormRng:      make([]xrand.Rand, w),
		crng:          make([]xrand.Rand, w),
		nCtrl:         make([]int, w),
		nFarm:         make([]int, w),
		quiet:         make([]int64, w),
		raises:        make([]int64, w),
		lowers:        make([]int64, w),
		lastNonce:     make([]uint64, w),
		resizes:       make([]int64, w),
		rejected:      make([]int64, w),
		farmRounds:    make([]int64, w),
		farmFailures:  make([]int64, w),
		failures:      make([]int64, w),
		replicaRounds: make([]int64, w),
		stride:        maxMax + 1,
		background:    newHitRate(cfg.Storms.Background),
		storm:         newHitRate(cfg.Storms.StormP),
		signer:        redundancy.NewResizeSigner(campaignKey),
		words:         make([]uint64, voting.DissentWords(maxMax)),
		vals:          make([]uint64, maxMax),
		ballots:       make([]uint64, maxMax),
		last:          make([]voting.Outcome, w),
	}
	b.occ = make([]int64, w*b.stride)
	if cfg.SampleEvery > 0 {
		b.red = make([]*metrics.Series, w)
		b.dtof = make([]*metrics.Series, w)
		for i := range b.red {
			b.red[i] = metrics.NewSeries("redundancy")
			b.dtof[i] = metrics.NewSeries("dtof")
		}
	}
	for i := range b.lanes {
		// Stream discipline matches NewCampaign exactly: the storm
		// generator splits off the lane's root stream first, the
		// corruption-value stream second.
		root := xrand.New(b.lanes[i].Seed)
		env := newStorms(cfg.Storms, root)
		b.stormRng[i] = *env.rng
		b.storms[i] = *env
		b.storms[i].rng = &b.stormRng[i]
		b.crng[i] = *root.Split()
		b.nCtrl[i] = b.lanes[i].Policy.Min
		b.nFarm[i] = b.lanes[i].Policy.Min
	}
	return b, nil
}

// Width reports the number of lanes.
func (b *BatchCampaign) Width() int { return len(b.lanes) }

// Lane returns the descriptor of one lane.
func (b *BatchCampaign) Lane(i int) BatchLane { return b.lanes[i] }

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
// per-lane; see Lane).
func (b *BatchCampaign) Config() AdaptiveRunConfig { return b.cfg }

// RecordOutcomes toggles per-lane outcome capture for LaneOutcome. It
// is a testing aid (the differential tests compare every lane's
// per-round outcome against a scalar campaign); leaving it off keeps
// the hot loop free of the per-lane stores.
func (b *BatchCampaign) RecordOutcomes(on bool) { b.record = on }

// LaneOutcome returns the lane's outcome of the most recent Step.
// Outcomes are only captured while RecordOutcomes(true) is in force;
// the Votes field is always nil.
func (b *BatchCampaign) LaneOutcome(lane int) voting.Outcome { return b.last[lane] }

// Step runs one round of every lane; it is Run(1).
func (b *BatchCampaign) Step() { b.Run(1) }

// Run steps the batch n more rounds. Lanes share no state, so Run takes
// them a group of four at a time (runGroup), each lane through the
// whole window at its own pace, and every lane ends where lockstep
// stepping would have left it. Off the sampling grid it performs zero
// heap allocations.
func (b *BatchCampaign) Run(n int64) {
	if n <= 0 {
		return
	}
	end := b.step + n
	for lo := 0; lo < len(b.lanes); lo += groupWidth {
		b.runGroup(lo, min(lo+groupWidth, len(b.lanes)), end)
	}
	b.step = end
}

// runGroup steps lanes lo..hi-1, at most groupWidth of them, from
// b.step to end. Each lane runs alone until it reaches end or parks at
// a background run a scan can take (see parks). Once every lane has,
// the parked lanes take their runs together, scan by scan, each from
// its own round, and run on. Every other lane has reached end when
// fewer than minScanLanes are parked, so those finish alone, and a
// one-lane group never parks: RunAdaptive's one-lane batch draws as
// the scalar bulkRun does.
func (b *BatchCampaign) runGroup(lo, hi int, end int64) {
	var at, stop [groupWidth]int64 // each lane's round; its parked run's end, or 0
	for j := range at {
		at[j] = b.step
	}
	park := hi-lo >= minScanLanes
	for {
		parked := 0
		for j := range hi - lo {
			if stop[j] == 0 {
				at[j], stop[j] = b.runLane(lo+j, at[j], end, park)
			}
			if stop[j] != 0 {
				parked++
			}
		}
		if parked < minScanLanes {
			break
		}
		b.scan(lo, &at, &stop)
	}
	for j := range hi - lo {
		if stop[j] != 0 {
			b.runLane(lo+j, at[j], end, false)
		}
	}
}

// runLane steps lane l from round step toward end and returns the round
// it stopped at. With park set it stops early where it would hand
// bulkRun a run parks accepts, and also returns the round that run
// stops at; otherwise it runs to end and returns 0 there.
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
func (b *BatchCampaign) runLane(l int, step, end int64, park bool) (int64, int64) {
	st := &b.storms[l]
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
			if park && !storm && b.parks(l, limit) {
				return step, step + limit
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

// parks reports whether lane l's background run of limit rounds waits
// for a four-wide scan: the background draws (0 < p < 1, so it has a
// threshold), the run is at least minParkRun rounds long, and the
// controller is at Policy.Min, so the streak wraps (see bulkRun) and
// only a hit or the run's end stops the lane's draws.
func (b *BatchCampaign) parks(l int, limit int64) bool {
	return b.background.thresh != 0 && limit >= minParkRun && b.nCtrl[l] <= b.lanes[l].Policy.Min
}

// scan takes the parked lanes of the group at lo through one
// xrand.Misses4 call on their storm generators, as long as the
// shortest run any of them has left. A slot no parked lane fills
// repeats the first parked lane's generator, which then advances as
// one and hits only where that lane does.
//
// It is bulkRun cut at a common length. The four streams are
// independent and share only the background's threshold, so each lane
// draws exactly the draws its own bulkRun would, and is credited by
// bulkRun's accounting: m quiet rounds, or m+1 when another lane's hit
// ended the scan (this lane missed that draw), with the streak wrapped
// at LowerAfter. A lane that hit takes that round as bulkRun takes a
// hit: absorbed, or on the per-round path. Every scanned lane is
// unparked, and runGroup parks it again if its run goes on.
func (b *BatchCampaign) scan(lo int, at, stop *[groupWidth]int64) {
	var rngs [groupWidth]*xrand.Rand
	var slot [groupWidth]int // the group index of each slot's lane
	k, n := 0, int64(math.MaxInt64)
	for j, s := range stop {
		if s != 0 {
			rngs[k], slot[k] = b.storms[lo+j].rng, j
			n = min(n, s-at[j])
			k++
		}
	}
	for i := k; i < groupWidth; i++ {
		rngs[i] = rngs[0]
	}
	m, hits := xrand.Misses4(&rngs, b.background.thresh, n)
	var taken int64
	for i, j := range slot[:k] {
		l := lo + j
		rounds, hit := m, hits>>i&1 != 0
		if hits != 0 && !hit {
			rounds++
		}
		quiet := b.quiet[l] + rounds
		if hit {
			if kk, ok := b.absorbs(l, 1); ok {
				corrupt(&b.crng[l], at[j]+rounds, kk)
				quiet, hit = 0, false
				rounds++
			}
		}
		b.credit(l, rounds, quiet%int64(b.lanes[l].Policy.LowerAfter))
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
func (b *BatchCampaign) quietLimit(l int, step, end, stop int64) int64 {
	p := &b.lanes[l].Policy
	if b.record || voting.MaxDTOF(b.nFarm[l]) <= p.CriticalDTOF ||
		(b.nCtrl[l] > p.Min && b.quiet[l] >= int64(p.LowerAfter)-1) {
		return 0
	}
	limit := end - step
	if stop >= 0 && stop-step < limit {
		limit = stop - step
	}
	if b.red != nil {
		if d := (b.cfg.SampleEvery - step%b.cfg.SampleEvery) % b.cfg.SampleEvery; d < limit {
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
func (b *BatchCampaign) bulkRun(l int, step, stop int64, rate hitRate, k int, storm bool) (int64, bool) {
	if storm {
		b.work.stormRuns++
	} else {
		b.work.quietRuns++
	}
	pol := &b.lanes[l].Policy
	kk, absorb := b.absorbs(l, k)
	wrap := b.nCtrl[l] <= pol.Min
	rng, crng := b.storms[l].rng, &b.crng[l]
	from, quiet, hit := step, b.quiet[l], false
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
		corrupt(crng, step, kk)
		hit, quiet = false, 0
		step++
	}
	if wrap {
		quiet %= int64(pol.LowerAfter)
	}
	b.credit(l, step-from, quiet)
	return step, hit
}

// absorbs reports how many replicas a hit on lane l corrupting k of
// them corrupts, kk = min(k, n), and whether the organ absorbs it: with
// golden keeping a strict majority, and its dtof above critical or the
// controller already at Max, Decide orders no resize and only resets
// the streak.
func (b *BatchCampaign) absorbs(l, k int) (int, bool) {
	pol := &b.lanes[l].Policy
	n := b.nFarm[l]
	kk := min(k, n)
	return kk, n-kk > n/2 && (voting.DTOF(n, kk) > pol.CriticalDTOF || b.nCtrl[l] >= pol.Max)
}

// corrupt draws an absorbed hit's kk corrupt values for round step, in
// replica order, to keep the lane's corruption stream crng in step; the
// outcome does not need them.
func corrupt(crng *xrand.Rand, step int64, kk int) {
	for range kk {
		voting.CorruptValue(identity(uint64(step)), crng)
	}
}

// credit adds rounds bulk rounds at lane l's organ size to its
// counters, once for the whole run, and leaves its streak at quiet.
func (b *BatchCampaign) credit(l int, rounds, quiet int64) {
	n := b.nFarm[l]
	b.farmRounds[l] += rounds
	b.replicaRounds[l] += rounds * int64(n)
	b.occ[l*b.stride+n] += rounds
	b.quiet[l] = quiet
}

// laneRound runs round step of lane l with k replicas corrupted (k is
// capped at the organ's n). The corrupt values are always drawn, in
// replica order, so the lane's corruption stream stays in step with the
// scalar engines. While golden keeps a strict majority (n−k > n/2, and
// always when k = 0) the outcome follows from n and k alone — it is the
// one TallyWords's strict-majority branch returns — so the values go
// unused; only a round where golden lacks a strict majority packs its
// ballots and tallies them.
func (b *BatchCampaign) laneRound(l int, step int64, k int) {
	b.work.perRound++
	golden := identity(uint64(step))
	sample := b.red != nil && step%b.cfg.SampleEvery == 0
	n := b.nFarm[l]
	k = min(k, n)
	crng := &b.crng[l]
	for i := 0; i < k; i++ {
		b.vals[i] = voting.CorruptValue(golden, crng)
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
			b.farmFailures[l]++
			b.failures[l]++
		}
	}
	b.farmRounds[l]++
	b.replicaRounds[l] += int64(n)
	b.occ[l*b.stride+n]++
	b.finishRound(l, step, sample, o)
}

// finishRound is the shared tail of the slow paths: sample the outcome,
// run the policy kernel, apply any resize, and capture the outcome when
// recording.
func (b *BatchCampaign) finishRound(l int, step int64, sample bool, o voting.Outcome) {
	if sample {
		b.red[l].Append(step, float64(o.N))
		b.dtof[l].Append(step, float64(o.DTOF))
	}
	newN, newQuiet, dir := b.lanes[l].Policy.Decide(b.nCtrl[l], int(b.quiet[l]), o.DTOF, o.Dissent)
	b.quiet[l] = int64(newQuiet)
	if dir != 0 {
		b.nCtrl[l] = newN
		switch dir {
		case redundancy.Raise:
			b.raises[l]++
		case redundancy.Lower:
			b.lowers[l]++
		}
		b.applyResize(l, newN, dir)
	}
	if b.record {
		o.Votes = nil
		b.last[l] = o
	}
}

// applyResize carries a lane's dimensioning revision as a real signed
// resize message, mirroring Switchboard.deliver/Apply: sign with the
// next nonce, verify on receipt, and only then adopt. The reserved
// maximum nonce is rejected exactly as the scalar switchboard rejects
// it, so a lane restored near the end of the nonce space stays in
// lockstep with its scalar twin.
func (b *BatchCampaign) applyResize(l, newN int, dir redundancy.Direction) {
	b.work.resizes++
	nonce := b.lastNonce[l] + 1
	req := b.signer.Sign(newN, dir, nonce)
	if err := b.signer.Verify(req); err != nil {
		// Unreachable: the same key signs and verifies.
		panic(err)
	}
	if nonce <= b.lastNonce[l] || nonce == ^uint64(0) {
		// nonce wrapped past the watermark (replay check) or hit the
		// reserved maximum — the scalar Apply rejects both.
		b.rejected[l]++
		return
	}
	b.lastNonce[l] = nonce
	b.resizes[l]++
	b.nFarm[l] = newN
}

// RunAll steps the batch through every remaining configured round.
func (b *BatchCampaign) RunAll() { b.Run(b.Remaining()) }

// laneConfig is the scalar configuration one lane is equivalent to.
func (b *BatchCampaign) laneConfig(lane int) AdaptiveRunConfig {
	cfg := b.cfg
	cfg.Seed = b.lanes[lane].Seed
	cfg.Policy = b.lanes[lane].Policy
	return cfg
}

// Result folds one lane's counters into the AdaptiveRunResult shape
// shared with the scalar engines; it is field-identical to the Result
// of a scalar campaign run with laneConfig(lane).
func (b *BatchCampaign) Result(lane int) AdaptiveRunResult {
	res := AdaptiveRunResult{
		Hist:          metrics.NewIntHistogram(),
		Rounds:        b.step,
		Failures:      b.failures[lane],
		ReplicaRounds: b.replicaRounds[lane],
	}
	if b.red != nil {
		res.Redundancy = b.red[lane]
		res.DTOF = b.dtof[lane]
	}
	for n := 0; n < b.stride; n++ {
		if cnt := b.occ[lane*b.stride+n]; cnt > 0 {
			res.Hist.ObserveN(n, cnt)
		}
	}
	res.Raises, res.Lowers = b.raises[lane], b.lowers[lane]
	res.MinFraction = res.Hist.Fraction(b.lanes[lane].Policy.Min)
	return res
}

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
	st := campaignState{
		engine:        engineBatch,
		cfg:           b.laneConfig(lane),
		step:          b.step,
		failures:      b.failures[lane],
		replicaRounds: b.replicaRounds[lane],
		occupancy:     make(map[int]int64),
		sb: redundancy.SwitchboardState{
			Controller: redundancy.ControllerState{
				N:      b.nCtrl[lane],
				Quiet:  int(b.quiet[lane]),
				Raises: b.raises[lane],
				Lowers: b.lowers[lane],
			},
			Farm: voting.FarmState{
				Replicas: b.nFarm[lane],
				Rounds:   b.farmRounds[lane],
				Failures: b.farmFailures[lane],
			},
			LastNonce: b.lastNonce[lane],
			Resizes:   b.resizes[lane],
			Rejected:  b.rejected[lane],
		},
		hasStorms: true,
		storms:    b.storms[lane].exportState(),
		crng:      b.crng[lane].State(),
	}
	if b.red != nil {
		st.red = b.red[lane]
		st.dtof = b.dtof[lane]
	}
	for n := 0; n < b.stride; n++ {
		if cnt := b.occ[lane*b.stride+n]; cnt > 0 {
			st.occupancy[n] = cnt
		}
	}
	return snapshotCampaign(st)
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
	cfg := states[0].cfg
	b, err := NewBatchCampaignLanes(cfg, lanes)
	if err != nil {
		return nil, err
	}
	for i, st := range states {
		if err := b.storms[i].restoreState(st.storms); err != nil {
			return nil, fmt.Errorf("experiments: lane %d: %w", i, err)
		}
		if err := b.crng[i].SetState(st.crng); err != nil {
			return nil, fmt.Errorf("experiments: lane %d: %w", i, err)
		}
		b.nCtrl[i] = st.sb.Controller.N
		b.nFarm[i] = st.sb.Farm.Replicas
		b.quiet[i] = int64(st.sb.Controller.Quiet)
		b.raises[i] = st.sb.Controller.Raises
		b.lowers[i] = st.sb.Controller.Lowers
		b.lastNonce[i] = st.sb.LastNonce
		b.resizes[i] = st.sb.Resizes
		b.rejected[i] = st.sb.Rejected
		b.farmRounds[i] = st.sb.Farm.Rounds
		b.farmFailures[i] = st.sb.Farm.Failures
		b.failures[i] = st.failures
		b.replicaRounds[i] = st.replicaRounds
		for n, cnt := range st.occupancy {
			if n >= b.stride {
				return nil, fmt.Errorf("experiments: lane %d: occupancy at %d replicas outside policy band (max %d)",
					i, n, b.stride-1)
			}
			b.occ[i*b.stride+n] = cnt
		}
		if b.red != nil {
			b.red[i], b.dtof[i] = st.red, st.dtof
		}
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
// groups of four, the width Run scans at, and a worker that finishes
// early takes the next group. A smaller sweep gives every worker a
// share rather than leaving cores idle, down to one lane per task when
// there are no more lanes than workers. E10's four lanes on two
// workers run as two tasks of two: as one group of four on one core
// they took 1.79 ms against 1.31 ms one lane per task, and as two
// tasks of two they take 1.25 ms (in process, 2-core VM with AVX2).
func lanesPerTask(lanes, workers int) int {
	return max(1, min(groupWidth, (lanes+workers-1)/workers))
}
