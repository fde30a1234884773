// The batch campaign engine: W independent §3.3 campaigns over
// struct-of-arrays state, run one lane at a time.
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
// Run takes each lane through the whole window before the next; lanes
// share no state, so the result is the one lockstep stepping gives. A
// lane takes its rounds in bulk wherever no outcome can change the
// organ: the quiet rounds of the background, and whole storm levels
// whose corrupt rounds keep golden's strict majority without reaching
// the critical dtof (or reach it with the controller already at Max).
// The draw of every round is still made, on the lane's storm PRNG held
// in registers (xrand.Rand.Misses, whose hit test is an integer compare
// on the raw draw), and a storm hit still draws its corrupt values, but
// the counters advance once per run. The per-round path takes only
// what bulk cannot: a storm's onset round (which draws its shape) and
// end round, a hit that raises or loses golden's majority, the round
// whose quiet streak reaches LowerAfter above Policy.Min, every round
// of an organ whose quiet rounds are critical, sample-grid rounds, and
// recorded rounds. A bulk round thus costs a draw and a compare, and
// the width of the batch does not change the per-lane cost.
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
// and the E8/E10 sweeps run one lane per pool task.
//
// A BatchCampaign holds interior pointers into its own slices (the
// per-lane storm generators alias stormRng), so it must not be copied
// after construction.

package experiments

import (
	"fmt"

	"aft/internal/checkpoint"
	"aft/internal/metrics"
	"aft/internal/redundancy"
	"aft/internal/voting"
	"aft/internal/xrand"
)

// DefaultBatchWidth is the customary lane count of one batch, the unit
// the repository's benchmark sizes its seed sweep in (two batches per
// pass, one per core of a two-core machine). The sweeps do not group
// lanes by it: they run each lane as its own pool task, since Run's
// per-lane cost does not depend on the width.
const DefaultBatchWidth = 16

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
// per run or once per round on the per-round path, never per bulk round.
type kernelWork struct {
	perRound  int64 // rounds on the per-round path (laneRound)
	tallies   int64 // voting.TallyWords calls
	quietRuns int64 // bulk runs in the background
	stormRuns int64 // bulk runs inside a storm level
	resizes   int64 // resize messages signed and verified
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
// them one at a time through the whole window — lane 0's n rounds, then
// lane 1's — and every lane ends where lockstep stepping would have left
// it. Off the sampling grid it performs zero heap allocations.
func (b *BatchCampaign) Run(n int64) {
	if n <= 0 {
		return
	}
	end := b.step + n
	for l := range b.lanes {
		b.runLane(l, b.step, end)
	}
	b.step = end
}

// runLane steps lane l through rounds [step, end).
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
func (b *BatchCampaign) runLane(l int, step, end int64) {
	st := &b.storms[l]
	for step < end {
		p, k, stop := st.cfg.Background, 1, st.nextOnset
		storm := st.inStorm && step > st.onset && step < st.stormEnd
		if storm {
			level := (step - st.onset) / st.level
			p, k = st.cfg.StormP, min(int(level)+1, st.peak)
			stop = min(st.onset+(level+1)*st.level, st.stormEnd)
		} else if st.inStorm || (stop >= 0 && step >= stop) {
			b.laneRound(l, step, st.corruptions(step))
			step++
			continue
		}
		if limit := b.quietLimit(l, step, end, stop); limit > 0 {
			var hit bool
			if step, hit = b.bulkRun(l, step, step+limit, p, k, storm); !hit {
				continue
			}
		} else if !st.rng.Bool(p) {
			k = 0
		}
		b.laneRound(l, step, k)
		step++
	}
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
// Bool(p) draw that corrupts k replicas on a hit; quietLimit has
// checked that they may be quiet and that the first one may. A hit is
// absorbed when its outcome cannot change the organ: with kk =
// min(k, n), golden keeps a strict majority, and its dtof is above
// critical or the controller is already at Max, so Decide only resets
// the streak. The hit still draws its kk corrupt values, in order, to
// keep the corruption stream in step. A quiet round only adds to the
// streak, which must stay below LowerAfter except at Policy.Min, where
// Decide wraps it to 0: there the streak ends at (q + r) mod
// LowerAfter. The counters advance once for the whole run. bulkRun
// returns the round it stopped at and whether that round is a hit it
// did not absorb, which the caller runs on the per-round path.
func (b *BatchCampaign) bulkRun(l int, step, stop int64, p float64, k int, storm bool) (int64, bool) {
	if storm {
		b.work.stormRuns++
	} else {
		b.work.quietRuns++
	}
	pol := &b.lanes[l].Policy
	n := b.nFarm[l]
	kk := min(k, n)
	absorb := n-kk > n/2 && (voting.DTOF(n, kk) > pol.CriticalDTOF || b.nCtrl[l] >= pol.Max)
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
		var misses int64
		misses, hit = rng.Misses(p, limit)
		step += misses
		quiet += misses
		if !hit {
			continue
		}
		if !absorb {
			break
		}
		golden := identity(uint64(step))
		for range kk {
			voting.CorruptValue(golden, crng)
		}
		hit, quiet = false, 0
		step++
	}
	if wrap {
		quiet %= int64(pol.LowerAfter)
	}
	rounds := step - from
	b.farmRounds[l] += rounds
	b.replicaRounds[l] += rounds * int64(n)
	b.occ[l*b.stride+n] += rounds
	b.quiet[l] = quiet
	return step, hit
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

// runLanesParallel is the driver behind the lane-based sweeps: every
// lane is its own pool task, run to completion on a one-lane batch, and
// the results come back in lane order. Run's per-lane cost does not
// depend on the batch width, so the finest split costs nothing, and a
// worker that finishes early takes the next lane instead of idling
// while a slower core works through a fixed share.
func runLanesParallel(cfg AdaptiveRunConfig, lanes []BatchLane, workers int) ([]AdaptiveRunResult, error) {
	return RunParallel(len(lanes), workers, func(i int) (AdaptiveRunResult, error) {
		b, err := NewBatchCampaignLanes(cfg, lanes[i:i+1])
		if err != nil {
			return AdaptiveRunResult{}, err
		}
		b.RunAll()
		return b.Result(0), nil
	})
}
