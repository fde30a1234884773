package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"aft/internal/checkpoint"
	"aft/internal/experiments"
	"aft/internal/jobs"
	"aft/internal/jobs/sched"
	"aft/internal/pubsub"
	"aft/internal/redundancy"
	"aft/internal/voting"
	"aft/internal/xrand"
)

// The layer replays: the traced run feeds the same generated inputs
// directly through each layer's public function and times it. Kernels
// that take nanoseconds are timed over a batch (one span covering N
// operations); everything else is timed per call.

const (
	replayChunk      = 100_000 // rounds per Campaign.Run span
	referenceRounds  = 200_000 // the reference loop is slow; time fewer rounds
	ballots          = 4096    // generated ballots for the voting kernels
	kernelReps       = 64      // passes over the ballots
	snapshotReps     = 50      // snapshot/encode/decode/restore repetitions per config
	snapshotConfigs  = 6       // fleet configs replayed through the snapshot path
	writeAtomicCount = 1000    // WriteFileAtomic calls; enough for a p99
	perCallTarget    = 2000    // calls timed for the per-call replays
	schedReps        = 50      // replays of the arrival order through sched.Queue
)

// replayLayers times every layer on the seed's generated inputs.
// arrivals is the serve-scenario arrival order to replay through the
// scheduler and the event bus.
func replayLayers(seed uint64, arrivals []popJob, clients int, work string, tr *tracer) (map[string]float64, []string, error) {
	out := make(map[string]float64)
	var notes []string
	note := func(format string, args ...any) { notes = append(notes, fmt.Sprintf(format, args...)) }

	in := fig7Population(seed, 0)
	if err := replayEngines(in, out, tr); err != nil {
		return nil, nil, err
	}
	note("  engines: fused %d rounds, batch %d lanes × %d rounds, reference %d rounds",
		in.cfg.Steps, len(in.seeds), in.cfg.Steps, int64(referenceRounds))
	if err := replayKernels(seed, out, tr); err != nil {
		return nil, nil, err
	}
	note("  kernels: %d ballots × %d passes through TallyWords, Tally and StepFirstK", ballots, kernelReps)

	fleet, err := fleetPopulation(seed, fleetJobs, clients)
	if err != nil {
		return nil, nil, err
	}
	snapSizes, err := replaySnapshots(fleet.unique(), out, tr)
	if err != nil {
		return nil, nil, err
	}
	note("  snapshots: %d configs × %d reps at round %d", snapshotConfigs, snapshotReps, int64(replayChunk))

	serve, err := servePopulation(seed, serveJobs, clients)
	if err != nil {
		return nil, nil, err
	}
	u := serve.unique()
	sizes, err := replayJobs(u, out, tr)
	if err != nil {
		return nil, nil, err
	}
	sizes = append(sizes, snapSizes...)
	lat, err := replayWriteAtomic(sizes, work, tr)
	if err != nil {
		return nil, nil, err
	}
	out["checkpoint.write_atomic_us"] = percentile(lat, 0.5)
	out["checkpoint.write_atomic_p99_us"] = percentile(lat, 0.99)
	out["checkpoint.write_atomic_count"] = float64(len(lat))
	note("  write_atomic  %s (sizes %v bytes)", describe(lat, "us", 0.5, 0.99), sizes)

	if len(arrivals) == 0 {
		arrivals = u
	}
	out["sched.push_pop_ns"] = replaySched(arrivals, clients, tr)
	out["pubsub.publish_ns"] = replayPublish(arrivals, clients, tr)
	note("  sched/pubsub: %d arrivals replayed", len(arrivals))
	return out, notes, nil
}

// timed runs f and records it as one replay span covering n operations.
func timed(tr *tracer, name string, n int64, f func()) time.Duration {
	t0 := time.Now()
	f()
	t1 := time.Now()
	tr.record("replay", name, "", 0, t0, t1, n)
	return t1.Sub(t0)
}

func replayEngines(in fig7Inputs, out map[string]float64, tr *tracer) error {
	c, err := experiments.NewCampaign(in.cfg)
	if err != nil {
		return err
	}
	var d time.Duration
	for c.Remaining() > 0 {
		n := min(int64(replayChunk), c.Remaining())
		d += timed(tr, "experiments.Campaign.Run", n, func() { c.Run(n) })
	}
	out["experiments.round_ns"] = float64(d) / float64(in.cfg.Steps)

	b, err := experiments.NewBatchCampaign(in.cfg, in.seeds)
	if err != nil {
		return err
	}
	d = 0
	for b.Remaining() > 0 {
		n := min(int64(replayChunk), b.Remaining())
		d += timed(tr, "experiments.BatchCampaign.Run", n*int64(b.Width()), func() { b.Run(n) })
	}
	out["experiments.batch_lane_round_ns"] = float64(d) / float64(in.cfg.Steps*int64(b.Width()))

	rc, err := experiments.NewReferenceCampaign(in.cfg)
	if err != nil {
		return err
	}
	d = 0
	for r := int64(0); r < referenceRounds; r += replayChunk {
		d += timed(tr, "experiments.ReferenceCampaign.Run", replayChunk, func() { rc.Run(replayChunk) })
	}
	out["experiments.reference_round_ns"] = float64(d) / referenceRounds
	return nil
}

// ballot is one generated voting round: n replicas, the first k of them
// corrupted, as in the §3.3 storm model.
type ballot struct {
	n, k   int
	golden uint64
	vals   []uint64 // the k corrupted values
	votes  []uint64 // the materialized ballot
	words  []uint64 // dissent bitmask
}

// genBallots draws quiet rounds nine times in ten and storm rounds of
// 1..n corrupted replicas otherwise, over farms of 3, 5 and 7 replicas.
func genBallots(seed uint64) []ballot {
	rng := xrand.New(seed ^ 0xba110)
	bs := make([]ballot, ballots)
	for i := range bs {
		n := 3 + 2*rng.Intn(3)
		k := 0
		if !rng.Bool(0.9) {
			k = 1 + rng.Intn(n)
		}
		b := ballot{n: n, k: k, golden: rng.Uint64(), words: make([]uint64, voting.DissentWords(n))}
		voting.SetFirstK(b.words, k)
		for j := 0; j < n; j++ {
			v := b.golden
			if j < k {
				v = voting.CorruptValue(b.golden, rng)
				b.vals = append(b.vals, v)
			}
			b.votes = append(b.votes, v)
		}
		bs[i] = b
	}
	return bs
}

func replayKernels(seed uint64, out map[string]float64, tr *tracer) error {
	bs := genBallots(seed)
	ops := int64(len(bs) * kernelReps)
	scratch := make([]uint64, 0, 8)
	var sink int
	d := timed(tr, "voting.TallyWords", ops, func() {
		for r := 0; r < kernelReps; r++ {
			for i := range bs {
				sink += voting.TallyWords(bs[i].n, bs[i].golden, bs[i].words, bs[i].vals, scratch).Dissent
			}
		}
	})
	out["voting.tally_ns"] = float64(d) / float64(ops)
	d = timed(tr, "voting.Tally", ops, func() {
		for r := 0; r < kernelReps; r++ {
			for i := range bs {
				sink += voting.Tally(bs[i].votes, bs[i].golden).Dissent
			}
		}
	})
	out["voting.tally_scalar_ns"] = float64(d) / float64(ops)

	policy := redundancy.DefaultPolicy()
	farm, err := voting.NewFarm(policy.Min, func(x uint64) uint64 { return x*0x9e3779b97f4a7c15 + 1 })
	if err != nil {
		return err
	}
	sb, err := redundancy.NewSwitchboard(farm, policy, []byte("perfbench"))
	if err != nil {
		return err
	}
	rng := xrand.New(seed ^ 0x57e9)
	d = timed(tr, "redundancy.Switchboard.StepFirstK", ops, func() {
		for r := 0; r < kernelReps; r++ {
			for i := range bs {
				// A storm never corrupts a majority here, so every round
				// is decided and the controller keeps adapting.
				k := min(bs[i].k, (sb.Farm().N()-1)/2)
				o, _ := sb.StepFirstK(bs[i].golden, k, rng)
				sink += o.Dissent
			}
		}
	})
	out["redundancy.step_ns"] = float64(d) / float64(ops)
	if sink < 0 {
		return fmt.Errorf("unreachable")
	}
	return nil
}

// replaySnapshots runs each of the first fleet configs to its first
// checkpoint and times the checkpoint path on it: Campaign.Snapshot,
// encode, decode, RestoreCampaign. It returns the encoded sizes.
func replaySnapshots(fleet []popJob, out map[string]float64, tr *tracer) ([]int, error) {
	var snap, enc, dec, restore, bytes []float64
	var sizes []int
	for i, j := range fleet {
		if i == snapshotConfigs {
			break
		}
		c, err := experiments.NewCampaign(*j.Spec.Campaign)
		if err != nil {
			return nil, err
		}
		c.Run(replayChunk)
		var data []byte
		for r := 0; r < snapshotReps; r++ {
			var s *checkpoint.Snapshot
			var derr error
			snap = append(snap, us(timed(tr, "experiments.Campaign.Snapshot", 1, func() { s, derr = c.Snapshot() })))
			if derr != nil {
				return nil, derr
			}
			enc = append(enc, us(timed(tr, "checkpoint.Encode", 1, func() { data = s.Encode() })))
			dec = append(dec, us(timed(tr, "checkpoint.Decode", 1, func() { s, derr = checkpoint.Decode(data) })))
			if derr != nil {
				return nil, derr
			}
			restore = append(restore, us(timed(tr, "experiments.RestoreCampaign", 1, func() { _, derr = experiments.RestoreCampaign(s) })))
			if derr != nil {
				return nil, derr
			}
		}
		bytes = append(bytes, float64(len(data)))
		sizes = append(sizes, len(data))
	}
	out["experiments.snapshot_us"] = median(snap)
	out["checkpoint.encode_us"] = median(enc)
	out["checkpoint.decode_us"] = median(dec)
	out["experiments.restore_us"] = median(restore)
	out["checkpoint.snapshot_bytes"] = median(bytes)
	return sizes, nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// replayJobs times Spec.ID and ExecuteScenario on the serve-scenario
// specs and returns the spec and result sizes the store writes for them.
func replayJobs(u []popJob, out map[string]float64, tr *tracer) ([]int, error) {
	var ids, runs []float64
	for len(ids) < perCallTarget {
		for _, j := range u {
			var err error
			ids = append(ids, us(timed(tr, "jobs.Spec.ID", 1, func() { _, err = j.Spec.ID() })))
			if err != nil {
				return nil, err
			}
		}
	}
	var res *jobs.Result
	for i := 0; i < len(u) && i < perCallTarget/4; i++ {
		j := u[i]
		runs = append(runs, us(timed(tr, "jobs.ExecuteScenario", 1, func() { res = jobs.ExecuteScenario(j.ID, j.Spec.Scenario) })))
		if res.State != jobs.StateDone {
			return nil, fmt.Errorf("replay: scenario %s ended %s: %s", j.ID, res.State, res.Error)
		}
	}
	out["jobs.spec_id_us"] = median(ids)
	out["scenario.run_us"] = median(runs)
	// The sizes of the spec and result files the store writes per job.
	resultJSON, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	return []int{len(u[0].Body) + 1, len(resultJSON) + 1}, nil
}

// replayWriteAtomic writes files of the given sizes through
// checkpoint.WriteFileAtomic in a fresh directory beside the job stores
// and returns each call's latency in microseconds.
func replayWriteAtomic(sizes []int, work string, tr *tracer) ([]float64, error) {
	dir, err := freshDir(work, "atomic-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	bufs := make([][]byte, len(sizes))
	for i, n := range sizes {
		bufs[i] = make([]byte, n)
		for j := range bufs[i] {
			bufs[i][j] = byte(j)
		}
	}
	lat := make([]float64, 0, writeAtomicCount)
	for i := 0; i < writeAtomicCount; i++ {
		path := filepath.Join(dir, fmt.Sprintf("f%03d", i%64))
		var werr error
		lat = append(lat, us(timed(tr, "checkpoint.WriteFileAtomic", 1, func() {
			werr = checkpoint.WriteFileAtomic(path, bufs[i%len(bufs)])
		})))
		if werr != nil {
			return nil, werr
		}
	}
	return lat, nil
}

// replaySched replays the arrival order through a fair sched.Queue at
// the depth the closed-loop clients keep (one queued job per client),
// and returns nanoseconds per push+pop pair.
func replaySched(arrivals []popJob, clients int, tr *tracer) float64 {
	items := make([]sched.Item, len(arrivals))
	for i, j := range arrivals {
		items[i] = sched.Item{ID: j.ID, Client: j.Spec.Client, Class: sched.Class(j.Spec.Priority)}
	}
	ops := int64(len(items) * schedReps)
	d := timed(tr, "sched.Queue.PushPop", ops, func() {
		for r := 0; r < schedReps; r++ {
			q := sched.New(sched.Fair)
			for _, it := range items {
				q.Push(it)
				if q.Len() >= clients {
					q.Pop()
				}
			}
			for q.Len() > 0 {
				q.Pop()
			}
		}
	})
	return float64(d) / float64(ops)
}

// replayPublish publishes each arrival's lifecycle (queued, running,
// done) on an async bus shaped like the server's, with one subscriber
// per client stream, and returns nanoseconds per publish.
func replayPublish(arrivals []popJob, clients int, tr *tracer) float64 {
	bus := pubsub.New().Async(64)
	defer bus.Close()
	for c := 0; c < clients && c < len(arrivals); c++ {
		bus.Subscribe("jobs/"+arrivals[c].ID, func(pubsub.Message) {})
	}
	states := []jobs.State{jobs.StateQueued, jobs.StateRunning, jobs.StateDone}
	ops := int64(len(arrivals) * len(states) * schedReps)
	d := timed(tr, "pubsub.Bus.Publish", ops, func() {
		for r := 0; r < schedReps; r++ {
			for _, j := range arrivals {
				for _, s := range states {
					bus.Publish(pubsub.Message{Topic: "jobs/" + j.ID, Payload: jobs.Status{ID: j.ID, Kind: j.Spec.Kind, State: s}})
				}
			}
		}
	})
	return float64(d) / float64(ops)
}
