package worker

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"aft/internal/experiments"
	"aft/internal/jobs"
	"aft/internal/netchaos"
	"aft/internal/redundancy"
	"aft/internal/scenario"
	"aft/internal/xrand"
)

// waitCtx bounds every blocking wait in the tests.
func waitCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// startCoordinator builds a pure coordinator on a fresh store and
// serves it over a real socket (workers need one).
func startCoordinator(t *testing.T, opts jobs.Options) (*jobs.Server, string) {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	opts.DisableLocalPool = true
	srv, err := jobs.NewServer(opts)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return srv, hs.URL
}

// singleProcess renders the transcript an uninterrupted, unsharded,
// single-process run of cfg produces — the byte-exact reference.
func singleProcess(t *testing.T, id string, cfg experiments.AdaptiveRunConfig) string {
	t.Helper()
	res, err := experiments.RunAdaptive(cfg)
	if err != nil {
		t.Fatalf("RunAdaptive: %v", err)
	}
	return jobs.CampaignResult(id, cfg, res, false).Transcript
}

// fleet manages a set of worker loops that can be SIGKILLed (context
// cancellation: the loop stops instantly, mid-anything, sends no
// goodbyes, and cleans nothing up — exactly what kill -9 leaves).
type fleet struct {
	t    *testing.T
	base string
	poll time.Duration

	mu      sync.Mutex
	alive   []string
	cancels map[string]context.CancelFunc
	dones   map[string]chan Stats
	next    int
}

func newFleet(t *testing.T, base string, poll time.Duration) *fleet {
	f := &fleet{
		t: t, base: base, poll: poll,
		cancels: make(map[string]context.CancelFunc),
		dones:   make(map[string]chan Stats),
	}
	t.Cleanup(f.killAll)
	return f
}

// spawn starts one worker loop under a fresh name.
func (f *fleet) spawn() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	name := fmt.Sprintf("w%d", f.next)
	f.next++
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan Stats, 1)
	f.cancels[name] = cancel
	f.dones[name] = done
	f.alive = append(f.alive, name)
	go func() {
		st, _ := Run(ctx, Options{
			Coordinator: f.base,
			Name:        name,
			Poll:        f.poll,
			Client:      &http.Client{Timeout: 10 * time.Second},
		})
		done <- st
	}()
	return name
}

// kill SIGKILLs one worker and waits for its goroutine to be gone.
func (f *fleet) kill(name string) Stats {
	f.mu.Lock()
	cancel, ok := f.cancels[name]
	done := f.dones[name]
	if ok {
		delete(f.cancels, name)
		delete(f.dones, name)
		for i, n := range f.alive {
			if n == name {
				f.alive = append(f.alive[:i], f.alive[i+1:]...)
				break
			}
		}
	}
	f.mu.Unlock()
	if !ok {
		return Stats{}
	}
	cancel()
	return <-done
}

// killRandom kills one currently-alive worker picked by the test's
// deterministic rng; false when none are alive.
func (f *fleet) killRandom(rng *xrand.Rand) (Stats, bool) {
	f.mu.Lock()
	if len(f.alive) == 0 {
		f.mu.Unlock()
		return Stats{}, false
	}
	name := f.alive[rng.Intn(len(f.alive))]
	f.mu.Unlock()
	return f.kill(name), true
}

func (f *fleet) killAll() {
	for {
		f.mu.Lock()
		if len(f.alive) == 0 {
			f.mu.Unlock()
			return
		}
		name := f.alive[0]
		f.mu.Unlock()
		f.kill(name)
	}
}

// tinyScenario is a fast, violation-free inline scenario.
func tinyScenario() *scenario.Spec {
	return &scenario.Spec{
		Name:    "tiny",
		Seed:    7,
		Horizon: 200,
		Organ:   true,
		Policy:  redundancy.DefaultPolicy(),
		Phases: []scenario.Phase{
			{Name: "quiet", Start: 0, Model: scenario.ModelSpec{Kind: "never"}},
		},
	}
}

// TestFleetPropertyKillWorkerAfterEveryCheckpoint is the crash-safety
// property test: three workers run one sharded campaign, and after
// every observed checkpoint upload a randomly chosen worker is
// SIGKILLed and replaced. However the kills land — mid-run, mid-upload,
// between renewals — the finished transcript must be byte-identical to
// an uninterrupted single-process run.
func TestFleetPropertyKillWorkerAfterEveryCheckpoint(t *testing.T) {
	srv, base := startCoordinator(t, jobs.Options{
		CheckpointEvery: 2_000,
		ShardRounds:     5_000,
		LeaseTTL:        250 * time.Millisecond,
	})
	cfg := experiments.DefaultFig7Config(20_000)
	st, _, err := srv.Submit(jobs.Spec{Kind: jobs.KindCampaign, Campaign: &cfg})
	if err != nil {
		t.Fatal(err)
	}

	f := newFleet(t, base, 2*time.Millisecond)
	for i := 0; i < 3; i++ {
		f.spawn()
	}

	rng := xrand.New(0xF1EE7)
	kills := 0
	lastCkpt := int64(0)
	ctx := waitCtx(t)
	for {
		status, ok := srv.StatusOf(st.ID)
		if !ok {
			t.Fatal("job vanished")
		}
		if status.State.Terminal() {
			break
		}
		if status.CheckpointRounds > lastCkpt {
			lastCkpt = status.CheckpointRounds
			if _, ok := f.killRandom(rng); ok {
				kills++
				f.spawn() // keep the fleet at strength
			}
		}
		select {
		case <-ctx.Done():
			t.Fatalf("campaign did not finish; last checkpoint at %d rounds after %d kills",
				lastCkpt, kills)
		case <-time.After(2 * time.Millisecond):
		}
	}
	if kills < 2 {
		t.Fatalf("only %d kills happened; the property was barely exercised", kills)
	}

	res, err := srv.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != jobs.StateDone {
		t.Fatalf("final state %s: %s", res.State, res.Error)
	}
	if want := singleProcess(t, st.ID, cfg); res.Transcript != want {
		t.Fatalf("transcript after %d kills differs from single-process run", kills)
	}
	t.Logf("survived %d kills; %d rounds, transcript %d bytes", kills, res.Rounds, len(res.Transcript))
}

// TestDistributedSmokeThroughNetchaos is the end-to-end chaos drill the
// CI distributed job runs: a coordinator behind a seed-deterministic
// flaky proxy (drops, duplicates, delays), three workers, one sever
// with a heal, one worker killed mid-campaign, and an identical spec
// resubmitted mid-flight. The resubmission must dedup onto the running
// job and the final transcript must be byte-identical to a
// single-process run.
func TestDistributedSmokeThroughNetchaos(t *testing.T) {
	srv, base := startCoordinator(t, jobs.Options{
		CheckpointEvery: 2_000,
		ShardRounds:     6_000,
		LeaseTTL:        600 * time.Millisecond,
	})
	proxy, err := netchaos.New(base, netchaos.Config{
		Seed:     11,
		Drop:     0.05,
		Dup:      0.15,
		Delay:    0.2,
		MaxDelay: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ps := httptest.NewServer(proxy)
	t.Cleanup(ps.Close)

	cfg := experiments.DefaultFig7Config(18_000)
	st, _, err := srv.Submit(jobs.Spec{Kind: jobs.KindCampaign, Campaign: &cfg})
	if err != nil {
		t.Fatal(err)
	}

	// The workers only ever see the flaky link.
	f := newFleet(t, ps.URL, 5*time.Millisecond)
	first := f.spawn()
	f.spawn()
	f.spawn()

	// Wait for the first durable checkpoint, then kill a worker and
	// sever the link briefly — mid-campaign, like a switch dying.
	ctx := waitCtx(t)
	for {
		status, _ := srv.StatusOf(st.ID)
		if status.CheckpointRounds > 0 || status.State.Terminal() {
			break
		}
		select {
		case <-ctx.Done():
			t.Fatal("no checkpoint ever uploaded")
		case <-time.After(2 * time.Millisecond):
		}
	}
	f.kill(first)

	// An identical spec submitted mid-flight (directly, not through the
	// chaos link: this is a client, not a worker) dedups onto the
	// running job instead of forking the work.
	specJSON, err := json.Marshal(jobs.Spec{Kind: jobs.KindCampaign, Campaign: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(string(specJSON)))
	if err != nil {
		t.Fatal(err)
	}
	var sub jobs.SubmitReply
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if !sub.Deduped || sub.ID != st.ID {
		t.Fatalf("mid-flight resubmission did not dedup: %+v", sub)
	}

	proxy.Sever()
	time.Sleep(150 * time.Millisecond)
	proxy.Heal()

	res, err := srv.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != jobs.StateDone {
		t.Fatalf("final state %s: %s", res.State, res.Error)
	}
	if want := singleProcess(t, st.ID, cfg); res.Transcript != want {
		t.Fatal("transcript through netchaos differs from single-process run")
	}
	stats := proxy.Stats()
	if stats.Requests < 20 {
		t.Fatalf("chaos proxy barely exercised: %+v", stats)
	}
	t.Logf("netchaos stats: %+v", stats)
}

// TestWorkerRunRequiresOptions pins the option contract: a worker with
// no coordinator or no name refuses to start.
func TestWorkerRunRequiresOptions(t *testing.T) {
	if _, err := Run(waitCtx(t), Options{}); err == nil {
		t.Fatal("empty options accepted")
	}
	if _, err := Run(waitCtx(t), Options{Coordinator: "http://x"}); err == nil {
		t.Fatal("missing Name accepted")
	}
}

// TestWorkerAbandonsFencedLeaseAndRecovers severs the only worker's
// link long enough for its lease to expire, then heals it. The worker's
// blocked checkpoint upload must be rejected with the fenced 409, the
// worker must abandon the grant, re-lease the requeued job, resume from
// the last durable checkpoint, and still produce a byte-identical
// transcript.
func TestWorkerAbandonsFencedLeaseAndRecovers(t *testing.T) {
	srv, base := startCoordinator(t, jobs.Options{
		CheckpointEvery: 5_000,
		LeaseTTL:        100 * time.Millisecond,
	})
	proxy, err := netchaos.New(base, netchaos.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ps := httptest.NewServer(proxy)
	t.Cleanup(ps.Close)

	cfg := experiments.DefaultFig7Config(1_000_000)
	st, _, err := srv.Submit(jobs.Spec{Kind: jobs.KindCampaign, Campaign: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	f := newFleet(t, ps.URL, 2*time.Millisecond)
	name := f.spawn()

	ctx := waitCtx(t)
	for {
		status, _ := srv.StatusOf(st.ID)
		if status.State.Terminal() {
			t.Fatalf("campaign finished before the sever (state %s); raise Steps", status.State)
		}
		if status.CheckpointRounds > 0 {
			break
		}
		select {
		case <-ctx.Done():
			t.Fatal("no checkpoint ever uploaded")
		case <-time.After(time.Millisecond):
		}
	}
	// Down for three lease TTLs: the reaper is guaranteed to expire the
	// lease and requeue the job while the worker retries into the void.
	proxy.Sever()
	time.Sleep(300 * time.Millisecond)
	proxy.Heal()

	res, err := srv.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != jobs.StateDone {
		t.Fatalf("final state %s: %s", res.State, res.Error)
	}
	if want := singleProcess(t, st.ID, cfg); res.Transcript != want {
		t.Fatal("transcript after fence-and-recover differs from single-process run")
	}
	stats := f.kill(name)
	if stats.Abandoned == 0 {
		t.Fatalf("worker never abandoned its fenced lease: %+v", stats)
	}
	if stats.Grants < 2 {
		t.Fatalf("worker never re-leased the requeued job: %+v", stats)
	}
}

// TestWorkerObservesCancellation cancels a campaign mid-lease and
// asserts the worker parks it at a durable checkpoint instead of
// running to completion: the job ends cancelled with rounds short of
// the configured horizon.
func TestWorkerObservesCancellation(t *testing.T) {
	srv, base := startCoordinator(t, jobs.Options{
		CheckpointEvery: 5_000,
		LeaseTTL:        200 * time.Millisecond,
	})
	cfg := experiments.DefaultFig7Config(50_000_000)
	st, _, err := srv.Submit(jobs.Spec{Kind: jobs.KindCampaign, Campaign: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	f := newFleet(t, base, 2*time.Millisecond)
	name := f.spawn()

	ctx := waitCtx(t)
	for {
		status, _ := srv.StatusOf(st.ID)
		if status.CheckpointRounds > 0 || status.State.Terminal() {
			break
		}
		select {
		case <-ctx.Done():
			t.Fatal("no checkpoint ever uploaded")
		case <-time.After(time.Millisecond):
		}
	}
	if _, err := srv.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	res, err := srv.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != jobs.StateCancelled {
		t.Fatalf("final state %s, want cancelled", res.State)
	}
	if res.Rounds == 0 || res.Rounds >= cfg.Steps {
		t.Fatalf("cancelled at %d rounds of %d; expected a mid-flight checkpoint", res.Rounds, cfg.Steps)
	}
	stats := f.kill(name)
	if stats.Uploads == 0 {
		t.Fatalf("worker never uploaded a checkpoint: %+v", stats)
	}
}

// TestWorkerRunsSweepAndScenario covers the non-campaign kinds end to
// end: a bounded worker leases both jobs, executes them with the shared
// helpers, and the stored results match a local computation exactly.
func TestWorkerRunsSweepAndScenario(t *testing.T) {
	srv, base := startCoordinator(t, jobs.Options{LeaseTTL: time.Minute})
	scSpec := jobs.Spec{Kind: jobs.KindScenario, Scenario: &jobs.ScenarioSpec{Spec: tinyScenario()}}
	swSpec := jobs.Spec{Kind: jobs.KindSweep, Sweep: &jobs.SweepSpec{Grid: "chaos", Count: 2, Seed: 5}}
	scSt, _, err := srv.Submit(scSpec)
	if err != nil {
		t.Fatal(err)
	}
	swSt, _, err := srv.Submit(swSpec)
	if err != nil {
		t.Fatal(err)
	}

	st, err := Run(waitCtx(t), Options{
		Coordinator: base,
		Name:        "bounded",
		Poll:        2 * time.Millisecond,
		MaxJobs:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Grants != 2 || st.Completed != 2 || st.Abandoned != 0 {
		t.Fatalf("stats %+v, want 2 grants and 2 completions", st)
	}

	scRes, err := srv.Wait(waitCtx(t), scSt.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := jobs.ExecuteScenario(scSt.ID, scSpec.Scenario); scRes.Transcript != want.Transcript ||
		scRes.State != want.State || string(scRes.Summary) != string(want.Summary) {
		t.Fatal("remote scenario result differs from local execution")
	}
	swRes, err := srv.Wait(waitCtx(t), swSt.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := jobs.ExecuteSweep(swSt.ID, swSpec.Sweep); swRes.Transcript != want.Transcript ||
		swRes.State != want.State {
		t.Fatal("remote sweep result differs from local execution")
	}
}

// metricz reads the server's registry into a map by sample name.
func metricz(srv *jobs.Server) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range srv.Metrics().Snapshot() {
		out[s.Name] = s.Value
	}
	return out
}

// TestCoordinatorCountersMatchLocal pins the rounds and resume counters
// on a coordinator with one remote worker, so they mean what they mean
// with in-process holders: aft_rounds_executed_total covers every round
// of a finished job, the chunk after its last checkpoint included, and
// aft_jobs_resumed_total counts each grant that ships a checkpoint —
// here the two shard handbacks of the 250 000-round chain.
func TestCoordinatorCountersMatchLocal(t *testing.T) {
	srv, base := startCoordinator(t, jobs.Options{
		CheckpointEvery: 100_000,
		ShardRounds:     100_000,
		LeaseTTL:        time.Minute,
	})
	newFleet(t, base, 2*time.Millisecond).spawn()
	ctx := waitCtx(t)
	for _, step := range []struct{ steps, rounds, resumed int64 }{
		{250_000, 250_000, 2},
		{50_000, 300_000, 2},
	} {
		cfg := experiments.DefaultFig7Config(step.steps)
		st, _, err := srv.Submit(jobs.Spec{Kind: jobs.KindCampaign, Campaign: &cfg})
		if err != nil {
			t.Fatal(err)
		}
		if res, err := srv.Wait(ctx, st.ID); err != nil || res.State != jobs.StateDone {
			t.Fatalf("%d-round job: %+v err %v", step.steps, res, err)
		}
		m := metricz(srv)
		if got := m["aft_rounds_executed_total"]; got != step.rounds {
			t.Fatalf("after the %d-round job: aft_rounds_executed_total %d, want %d", step.steps, got, step.rounds)
		}
		if got := m["aft_jobs_resumed_total"]; got != step.resumed {
			t.Fatalf("after the %d-round job: aft_jobs_resumed_total %d, want %d", step.steps, got, step.resumed)
		}
	}
}

// TestHybridShardChainKillRemoteWorker runs sharded campaigns on a
// server with an in-process holder plus one HTTP worker.Run loop, and
// SIGKILLs the remote worker (spawning a replacement) after
// seeded-random checkpoint uploads. Three campaigns keep more shards
// runnable than the one local holder can take, so both kinds of holder
// run shards of the same chains; every stitched transcript must be
// byte-identical to a single-process run.
func TestHybridShardChainKillRemoteWorker(t *testing.T) {
	srv, err := jobs.NewServer(jobs.Options{
		Dir:             t.TempDir(),
		Workers:         1,
		CheckpointEvery: 2_000,
		ShardRounds:     10_000,
		LeaseTTL:        250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)

	cfgs := make(map[string]experiments.AdaptiveRunConfig)
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := experiments.DefaultFig7Config(60_000)
		cfg.Seed = seed
		st, _, err := srv.Submit(jobs.Spec{Kind: jobs.KindCampaign, Campaign: &cfg})
		if err != nil {
			t.Fatal(err)
		}
		cfgs[st.ID] = cfg
	}

	f := newFleet(t, hs.URL, 2*time.Millisecond)
	f.spawn()
	rng := xrand.New(0x4B1D)
	kills := 0
	last := int64(0)
	ctx := waitCtx(t)
	for {
		done, ckpt := true, int64(0)
		for id := range cfgs {
			st, _ := srv.StatusOf(id)
			done = done && st.State.Terminal()
			ckpt += st.CheckpointRounds
		}
		if done {
			break
		}
		if ckpt > last {
			last = ckpt
			if rng.Intn(3) == 0 {
				if _, ok := f.killRandom(rng); ok {
					kills++
					f.spawn()
				}
			}
		}
		select {
		case <-ctx.Done():
			t.Fatalf("campaigns did not finish; %d kills", kills)
		case <-time.After(2 * time.Millisecond):
		}
	}
	if kills == 0 {
		t.Fatal("the remote worker was never killed; the property was not exercised")
	}
	for id, cfg := range cfgs {
		res, err := srv.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if res.State != jobs.StateDone {
			t.Fatalf("job %s: state %s (%s)", id, res.State, res.Error)
		}
		if res.Transcript != singleProcess(t, id, cfg) {
			t.Fatalf("job %s: hybrid transcript after %d kills differs from single-process run", id, kills)
		}
	}

	resp, err := http.Get(hs.URL + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	var wr jobs.WorkersReply
	err = json.NewDecoder(resp.Body).Decode(&wr)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var local, remote int64
	for _, w := range wr.Workers {
		if strings.HasPrefix(w.Name, "local-") {
			local += w.Uploads
		} else {
			remote += w.Uploads
		}
	}
	if local == 0 || remote == 0 {
		t.Fatalf("shard uploads: in-process %d, remote %d; want both kinds of holder to run shards (%+v)",
			local, remote, wr.Workers)
	}
	t.Logf("survived %d remote kills; uploads in-process %d, remote %d", kills, local, remote)
}
