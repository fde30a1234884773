// Campaign snapshot/resume: the §3.3 engines serialized into
// internal/checkpoint containers.
//
// A snapshot captures everything a campaign's future depends on — the
// configuration, the cumulative counters and occupancy, the switchboard
// (farm dimensioning, controller streaks, accepted resize nonce), and,
// critically, the exact positions of both PRNG streams (the storm
// generator's and the corruption-value stream's). Restoring it yields a
// campaign whose continuation is byte-identical to the uninterrupted
// run: RenderFig6/RenderFig7 transcripts cannot tell the difference.
// That holds across engines, too — a snapshot taken on the fused engine
// resumes on the reference loop and vice versa, which is how the
// differential tests extend to resume.
//
// SplitCampaign cuts a long campaign into sequential shards whose
// snapshots chain, so the job fleet (internal/jobs) can run a campaign
// as leased, preemptible pieces with a durable checkpoint between each.
//
// The payload schema (sections, field order, integrity rules) is
// documented in DESIGN.md under "Checkpointable campaigns"; bump
// campaignSnapshotVersion whenever it changes.

package experiments

import (
	"encoding/json"
	"errors"
	"fmt"

	"aft/internal/checkpoint"
	"aft/internal/metrics"
	"aft/internal/redundancy"
	"aft/internal/xrand"
)

// CampaignSnapshotKind identifies campaign snapshots inside a
// checkpoint container.
const CampaignSnapshotKind = "aft/campaign"

// campaignSnapshotVersion is the campaign payload schema version.
const campaignSnapshotVersion = 1

// Engine names recorded in snapshots (informational: either engine can
// restore either snapshot).
const (
	engineFused     = "fused"
	engineReference = "reference"
	engineBatch     = "batch"
)

// envKind bytes of the "env" section. Every engine writes envStorms;
// envExternal marks a snapshot of a campaign that took an external
// corruption source, which older builds wrote and which no engine
// restores.
const (
	envExternal = 0
	envStorms   = 1
)

// campaignState is one campaign's whole state, in the form every engine
// snapshots (snapshotCampaign), restores from (decodeCampaign) and folds
// into its result (result).
type campaignState struct {
	engine string
	cfg    AdaptiveRunConfig

	step, failures, replicaRounds int64
	// occupancy counts rounds by replica count, cfg.Policy.Max+1 slots.
	occupancy []int64

	sb redundancy.SwitchboardState

	// hasStorms is false only for a decoded envExternal snapshot.
	hasStorms bool
	storms    storms
	crng      xrand.Rand

	red, dtof *metrics.Series
}

// result folds the state into the AdaptiveRunResult every engine
// reports.
func (st campaignState) result() AdaptiveRunResult {
	hist := histogram(st.occupancy)
	return AdaptiveRunResult{
		Hist:          hist,
		Redundancy:    st.red,
		DTOF:          st.dtof,
		Rounds:        st.step,
		Failures:      st.failures,
		Raises:        st.sb.Controller.Raises,
		Lowers:        st.sb.Controller.Lowers,
		ReplicaRounds: st.replicaRounds,
		MinFraction:   hist.Fraction(st.cfg.Policy.Min),
	}
}

// histogram is the occupancy histogram of an occupancy row.
func histogram(occ []int64) *metrics.IntHistogram {
	h := metrics.NewIntHistogram()
	for n, cnt := range occ {
		if cnt > 0 {
			h.ObserveN(n, cnt)
		}
	}
	return h
}

// snapshotCampaign serializes the shared state of either engine.
func snapshotCampaign(st campaignState) (*checkpoint.Snapshot, error) {
	snap := checkpoint.New(CampaignSnapshotKind, campaignSnapshotVersion)

	snap.Add("meta", []byte(st.engine))

	cfgJSON, err := json.Marshal(st.cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: encode config: %w", err)
	}
	snap.Add("config", cfgJSON)

	var counters checkpoint.Writer
	counters.I64(st.step)
	counters.I64(st.failures)
	counters.I64(st.replicaRounds)
	snap.Add("counters", counters.Data())

	// The replica counts that occur, ascending.
	var occ checkpoint.Writer
	var entries uint32
	for _, cnt := range st.occupancy {
		if cnt > 0 {
			entries++
		}
	}
	occ.U32(entries)
	for n, cnt := range st.occupancy {
		if cnt > 0 {
			occ.I64(int64(n))
			occ.I64(cnt)
		}
	}
	snap.Add("occupancy", occ.Data())

	var sb checkpoint.Writer
	sb.U64(st.sb.LastNonce)
	sb.I64(st.sb.Resizes)
	sb.I64(st.sb.Rejected)
	sb.I64(int64(st.sb.Controller.N))
	sb.I64(int64(st.sb.Controller.Quiet))
	sb.I64(st.sb.Controller.Raises)
	sb.I64(st.sb.Controller.Lowers)
	sb.I64(int64(st.sb.Farm.Replicas))
	sb.I64(st.sb.Farm.Rounds)
	sb.I64(st.sb.Farm.Failures)
	snap.Add("switchboard", sb.Data())

	var env checkpoint.Writer
	env.Byte(envStorms)
	rng := st.storms.rng.State()
	env.U64s(rng[:])
	env.I64(st.storms.nextOnset)
	env.I64(st.storms.stormEnd)
	env.I64(st.storms.level)
	env.I64(st.storms.onset)
	env.I64(int64(st.storms.peak))
	env.Bool(st.storms.inStorm)
	snap.Add("env", env.Data())

	var crng checkpoint.Writer
	words := st.crng.State()
	crng.U64s(words[:])
	snap.Add("crng", crng.Data())

	if st.red != nil {
		var series checkpoint.Writer
		writeSeries(&series, st.red)
		writeSeries(&series, st.dtof)
		snap.Add("series", series.Data())
	}
	return snap, nil
}

// writeSeries appends one sampled series.
func writeSeries(w *checkpoint.Writer, s *metrics.Series) {
	pts := s.Points()
	w.U32(uint32(len(pts)))
	for _, p := range pts {
		w.I64(p.Time)
		w.F64(p.Value)
	}
}

// readSeries decodes one sampled series.
func readSeries(r *checkpoint.Reader, name string) *metrics.Series {
	s := metrics.NewSeries(name)
	n := r.U32()
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		t := r.I64()
		v := r.F64()
		s.Append(t, v)
	}
	return s
}

// decodeCampaign parses and cross-checks a campaign snapshot.
func decodeCampaign(snap *checkpoint.Snapshot) (campaignState, error) {
	var st campaignState
	if snap == nil {
		return st, fmt.Errorf("experiments: nil snapshot")
	}
	if snap.Kind != CampaignSnapshotKind {
		return st, fmt.Errorf("experiments: snapshot kind %q is not %q", snap.Kind, CampaignSnapshotKind)
	}
	if snap.Version != campaignSnapshotVersion {
		return st, fmt.Errorf("experiments: campaign snapshot version %d unsupported (this build reads %d)",
			snap.Version, campaignSnapshotVersion)
	}
	for _, name := range []string{"meta", "config", "counters", "occupancy", "switchboard", "env", "crng"} {
		if !snap.Has(name) {
			return st, fmt.Errorf("experiments: snapshot missing section %q", name)
		}
	}

	st.engine = string(snap.Section("meta"))
	if err := json.Unmarshal(snap.Section("config"), &st.cfg); err != nil {
		return st, fmt.Errorf("experiments: decode config: %w", err)
	}
	// The policy sizes the occupancy row and bounds its replica counts.
	if err := st.cfg.Policy.Validate(); err != nil {
		return st, err
	}
	maxN := st.cfg.Policy.Max

	counters := checkpoint.NewReader(snap.Section("counters"))
	st.step = counters.I64()
	st.failures = counters.I64()
	st.replicaRounds = counters.I64()
	if err := counters.Close(); err != nil {
		return st, err
	}

	occ := checkpoint.NewReader(snap.Section("occupancy"))
	n := occ.U32()
	st.occupancy = make([]int64, maxN+1)
	var occRounds, occReplicaRounds int64
	for i := uint32(0); i < n && occ.Err() == nil; i++ {
		v := occ.I64()
		cnt := occ.I64()
		if v < 0 || cnt <= 0 {
			return st, fmt.Errorf("experiments: corrupt occupancy entry (%d, %d)", v, cnt)
		}
		if v > int64(maxN) {
			return st, fmt.Errorf("experiments: occupancy at %d replicas outside policy band (max %d)", v, maxN)
		}
		st.occupancy[v] = cnt
		occRounds += cnt
		occReplicaRounds += int64(v) * cnt
	}
	if err := occ.Close(); err != nil {
		return st, err
	}

	sb := checkpoint.NewReader(snap.Section("switchboard"))
	st.sb.LastNonce = sb.U64()
	st.sb.Resizes = sb.I64()
	st.sb.Rejected = sb.I64()
	st.sb.Controller.N = int(sb.I64())
	st.sb.Controller.Quiet = int(sb.I64())
	st.sb.Controller.Raises = sb.I64()
	st.sb.Controller.Lowers = sb.I64()
	st.sb.Farm.Replicas = int(sb.I64())
	st.sb.Farm.Rounds = sb.I64()
	st.sb.Farm.Failures = sb.I64()
	if err := sb.Close(); err != nil {
		return st, err
	}

	env := checkpoint.NewReader(snap.Section("env"))
	switch kind := env.Byte(); kind {
	case envStorms:
		st.hasStorms = true
		rng := env.U64s()
		if len(rng) != 4 {
			return st, fmt.Errorf("experiments: storm rng state has %d words, want 4", len(rng))
		}
		if err := st.storms.rng.SetState([4]uint64(rng)); err != nil {
			return st, err
		}
		st.storms.cfg = st.cfg.Storms
		st.storms.nextOnset = env.I64()
		st.storms.stormEnd = env.I64()
		st.storms.level = env.I64()
		st.storms.onset = env.I64()
		st.storms.peak = int(env.I64())
		st.storms.inStorm = env.Bool()
	case envExternal:
	default:
		return st, fmt.Errorf("experiments: unknown env kind %d", kind)
	}
	if err := env.Close(); err != nil {
		return st, err
	}

	crng := checkpoint.NewReader(snap.Section("crng"))
	words := crng.U64s()
	if err := crng.Close(); err != nil {
		return st, err
	}
	if len(words) != 4 {
		return st, fmt.Errorf("experiments: corruption rng state has %d words, want 4", len(words))
	}
	if err := st.crng.SetState([4]uint64(words)); err != nil {
		return st, err
	}

	if snap.Has("series") {
		series := checkpoint.NewReader(snap.Section("series"))
		st.red = readSeries(series, "redundancy")
		st.dtof = readSeries(series, "dtof")
		if err := series.Close(); err != nil {
			return st, err
		}
	}

	// Cross-checks: the occupancy must account for exactly the rounds
	// run and the replica-rounds spent, the sampled series must be
	// present iff sampling is configured, and the round count must not
	// exceed the configured campaign length. A snapshot failing any of
	// these is internally inconsistent, whatever its checksum says.
	if st.step < 0 || st.step > st.cfg.Steps {
		return st, fmt.Errorf("experiments: snapshot at round %d of a %d-round campaign", st.step, st.cfg.Steps)
	}
	if occRounds != st.step {
		return st, fmt.Errorf("experiments: occupancy covers %d rounds, counters say %d", occRounds, st.step)
	}
	if occReplicaRounds != st.replicaRounds {
		return st, fmt.Errorf("experiments: occupancy accounts %d replica-rounds, counters say %d",
			occReplicaRounds, st.replicaRounds)
	}
	if st.failures < 0 || st.failures > st.step {
		return st, fmt.Errorf("experiments: %d failures over %d rounds", st.failures, st.step)
	}
	if (st.cfg.SampleEvery > 0) != (st.red != nil) {
		return st, fmt.Errorf("experiments: sampling config and series section disagree")
	}
	return st, nil
}

// state is the fused campaign's state.
func (c *Campaign) state() campaignState {
	return campaignState{
		engine:        engineFused,
		cfg:           c.cfg,
		step:          c.step,
		failures:      c.failures,
		replicaRounds: c.replicaRounds,
		occupancy:     c.occ,
		sb:            c.sb.ExportState(),
		storms:        *c.env,
		crng:          *c.crng,
		red:           c.red,
		dtof:          c.dtof,
	}
}

// Snapshot captures the fused campaign's complete state. The campaign
// keeps running; the snapshot is an independent copy.
func (c *Campaign) Snapshot() (*checkpoint.Snapshot, error) { return snapshotCampaign(c.state()) }

// state is the reference campaign's state; its histogram becomes the
// occupancy row.
func (rc *ReferenceCampaign) state() campaignState {
	occ := make([]int64, rc.cfg.Policy.Max+1)
	for _, n := range rc.hist.Values() {
		occ[n] = rc.hist.Count(n)
	}
	return campaignState{
		engine:        engineReference,
		cfg:           rc.cfg,
		step:          rc.step,
		failures:      rc.failures,
		replicaRounds: rc.replicaRounds,
		occupancy:     occ,
		sb:            rc.sb.ExportState(),
		storms:        *rc.env,
		crng:          *rc.crng,
		red:           rc.red,
		dtof:          rc.dtof,
	}
}

// Snapshot captures the reference campaign's complete state, in the
// same schema the fused engine writes.
func (rc *ReferenceCampaign) Snapshot() (*checkpoint.Snapshot, error) {
	return snapshotCampaign(rc.state())
}

// errSourceSnapshot refuses a snapshot taken with an external
// corruption source: the source is not part of the snapshot, and every
// engine now runs on the storm generator alone.
var errSourceSnapshot = errors.New("experiments: snapshot was taken with an external corruption source; only storm-driven campaigns restore")

// decodeStormCampaign decodes a snapshot of a storm-driven campaign.
func decodeStormCampaign(snap *checkpoint.Snapshot) (campaignState, error) {
	st, err := decodeCampaign(snap)
	if err == nil && !st.hasStorms {
		err = errSourceSnapshot
	}
	return st, err
}

// RestoreCampaign rebuilds a fused campaign from a snapshot of a
// storm-driven run. Snapshots taken with an external corruption source
// are refused.
func RestoreCampaign(snap *checkpoint.Snapshot) (*Campaign, error) {
	st, err := decodeStormCampaign(snap)
	if err != nil {
		return nil, err
	}
	c, err := NewCampaign(st.cfg)
	if err != nil {
		return nil, err
	}
	if err := c.restore(st); err != nil {
		return nil, err
	}
	return c, nil
}

// restore overwrites a freshly constructed fused campaign with decoded
// state.
func (c *Campaign) restore(st campaignState) error {
	if err := c.sb.RestoreState(st.sb); err != nil {
		return err
	}
	*c.env, *c.crng = st.storms, st.crng
	c.step, c.failures, c.replicaRounds, c.occ = st.step, st.failures, st.replicaRounds, st.occupancy
	c.red, c.dtof = st.red, st.dtof
	return nil
}

// RestoreReferenceCampaign rebuilds a reference campaign from a
// snapshot of a storm-driven run. Snapshots taken on the fused engine
// restore here just as well — the state schema is engine-agnostic.
func RestoreReferenceCampaign(snap *checkpoint.Snapshot) (*ReferenceCampaign, error) {
	st, err := decodeStormCampaign(snap)
	if err != nil {
		return nil, err
	}
	rc, err := NewReferenceCampaign(st.cfg)
	if err != nil {
		return nil, err
	}
	if err := rc.restore(st); err != nil {
		return nil, err
	}
	return rc, nil
}

// restore overwrites a freshly constructed reference campaign with
// decoded state.
func (rc *ReferenceCampaign) restore(st campaignState) error {
	if err := rc.sb.RestoreState(st.sb); err != nil {
		return err
	}
	*rc.env, *rc.crng = st.storms, st.crng
	rc.step, rc.failures, rc.replicaRounds = st.step, st.failures, st.replicaRounds
	rc.hist = histogram(st.occupancy)
	rc.red, rc.dtof = st.red, st.dtof
	return nil
}

// --- Sharding -----------------------------------------------------------

// Shard is one contiguous slice of a campaign's rounds. Shards are
// sequential, not parallel: shard i+1 resumes from the snapshot shard i
// produced, so the chain renders transcripts byte-identical to a single
// uninterrupted run while surviving a kill between any two shards.
type Shard struct {
	// Index and Count locate the shard in the chain.
	Index, Count int
	// Start (inclusive) and End (exclusive) bound the shard's rounds.
	Start, End int64
}

// Rounds reports the shard's length.
func (s Shard) Rounds() int64 { return s.End - s.Start }

// SplitCampaign cuts a cfg.Steps-round campaign into n sequential,
// non-empty shards covering every round exactly once. Earlier shards
// absorb the remainder, so shard lengths differ by at most one round.
func SplitCampaign(cfg AdaptiveRunConfig, n int) ([]Shard, error) {
	if cfg.Steps <= 0 {
		return nil, fmt.Errorf("experiments: Steps must be positive")
	}
	if n <= 0 {
		return nil, fmt.Errorf("experiments: shard count %d must be positive", n)
	}
	if int64(n) > cfg.Steps {
		return nil, fmt.Errorf("experiments: %d shards over %d rounds would leave empty shards", n, cfg.Steps)
	}
	base, rem := cfg.Steps/int64(n), cfg.Steps%int64(n)
	shards := make([]Shard, n)
	start := int64(0)
	for i := range shards {
		length := base
		if int64(i) < rem {
			length++
		}
		shards[i] = Shard{Index: i, Count: n, Start: start, End: start + length}
		start += length
	}
	return shards, nil
}

// ShardForRound returns the shard containing the given round of the
// chain, used by the job fleet to find where a restored campaign left
// off.
func ShardForRound(shards []Shard, round int64) (Shard, error) {
	for _, s := range shards {
		if round >= s.Start && round < s.End {
			return s, nil
		}
	}
	return Shard{}, fmt.Errorf("experiments: round %d outside every shard", round)
}
