package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"aft/internal/experiments"
	"aft/internal/jobs"
	"aft/internal/xrand"
)

// runConfig is one measurement's settings.
type runConfig struct {
	seed uint64
	// budget is how long the run keeps starting passes; every pass runs
	// its whole population, so the run ends with the pass in flight.
	budget time.Duration
	// maxPasses caps the passes (0: no cap).
	maxPasses int
	// serveJobs and fleetJobs size one pass's population.
	serveJobs, fleetJobs int
	clients, workers     int
	// work holds the job stores.
	work string
	// recover times a restart on the last serve-scenario pass's store.
	recover bool
	// warmup is how long untimed passes run before the first measured
	// one.
	warmup time.Duration
	// alternate runs every other pass untraced, starting with the first,
	// and keeps its figures apart in runStats.untraced; the difference
	// between the halves is the tracing overhead, unconfounded by drift
	// in the machine over the run.
	alternate bool
}

// more reports whether the run starts pass number pass.
func (c runConfig) more(pass int, deadline time.Time) bool {
	if pass == 0 || c.alternate && pass == 1 {
		return true
	}
	if c.maxPasses > 0 && pass >= c.maxPasses {
		return false
	}
	return time.Now().Before(deadline)
}

// half picks where a pass is recorded and whether it is traced.
func (c runConfig) half(pass int, st *runStats, tr *tracer) (*runStats, *tracer) {
	if c.alternate && pass%2 == 0 {
		return st.untraced, nil
	}
	return st, tr
}

// runStats is what one run of a workload measured.
type runStats struct {
	setups    []float64 // seconds
	latencies []float64 // ms per job
	jobs      int64     // completed jobs
	rounds    int64     // §3.3 rounds (scenario steps on serve-scenario)
	timed     time.Duration
	passes    int
	// jobRates and roundRates are each pass's completed jobs and rounds
	// per second; the run reports their medians, which a few passes
	// slowed by a neighbour on the machine do not move.
	jobRates, roundRates []float64

	attempted, failed int64
	mismatches        []string

	// layers holds the per-layer metrics this run measured.
	layers map[string]float64
	// report is human-readable detail: sample counts, parts sums.
	report []string
	// arrivals is the first pass's jobs in the order the server accepted
	// them (served workloads).
	arrivals []popJob
	// parts splits each traced job's latency (served workloads).
	parts []jobParts
	// untraced holds the untraced passes of an alternating run.
	untraced *runStats
}

func newRunStats(c runConfig) *runStats {
	st := &runStats{layers: make(map[string]float64)}
	if c.alternate {
		st.untraced = &runStats{layers: make(map[string]float64)}
	}
	return st
}

// halves lists the stats a run fills: itself, and its untraced half.
func (st *runStats) halves() []*runStats {
	if st.untraced == nil {
		return []*runStats{st}
	}
	return []*runStats{st, st.untraced}
}

func (st *runStats) mismatch(format string, args ...any) {
	st.mismatches = append(st.mismatches, fmt.Sprintf(format, args...))
}

func (st *runStats) note(format string, args ...any) {
	st.report = append(st.report, fmt.Sprintf(format, args...))
}

// addPass records one pass's throughput.
func (st *runStats) addPass(jobs, rounds int64, d time.Duration) {
	st.passes++
	st.jobs += jobs
	st.rounds += rounds
	st.timed += d
	st.jobRates = append(st.jobRates, ratio(float64(jobs), d.Seconds()))
	st.roundRates = append(st.roundRates, ratio(float64(rounds), d.Seconds()))
}

// endToEnd computes the end-to-end metrics every workload reports.
func (st *runStats) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":        median(st.setups),
		"max_rss_mb":     maxRSSMB(),
		"jobs_per_s":     median(st.jobRates),
		"rounds_per_s":   median(st.roundRates),
		"latency_p50_ms": percentile(st.latencies, 0.5),
		"latency_p90_ms": percentile(st.latencies, 0.9),
	}
}

// failedRatio is failed over attempted operations.
func (st *runStats) failedRatio() float64 {
	return ratio(float64(st.failed), float64(st.attempted))
}

const (
	// fig7SetupReps is how often fig7-campaign repeats its set-up; the
	// median is reported.
	fig7SetupReps = 5
	// fig7Checked is how many passes are also run on the reference
	// loop to check their transcripts.
	fig7Checked = 4
	// fig7WarmSteps is the length of the set-up's warm-up campaign and
	// sweep, which fault in the engines' code and memory before timing.
	fig7WarmSteps = 20_000
)

// runFig7 is the fig7-campaign workload: one Fig. 7 campaign through
// experiments.RunAdaptive on one goroutine, then the seed sweep through
// experiments.SweepSeeds on the batch engine, per pass.
func runFig7(c runConfig, tr *tracer) (*runStats, error) {
	st := newRunStats(c)
	var in fig7Inputs
	for i := 0; i < fig7SetupReps; i++ {
		t0 := time.Now()
		in = fig7Population(c.seed, 0)
		warm := in.cfg
		warm.Steps = fig7WarmSteps
		if _, err := experiments.RunAdaptive(warm); err != nil {
			return nil, err
		}
		if _, err := experiments.SweepSeeds(warm, in.seeds, c.workers); err != nil {
			return nil, err
		}
		for _, h := range st.halves() {
			h.setups = append(h.setups, time.Since(t0).Seconds())
		}
	}
	minN := in.cfg.Policy.Min
	campaignS := make(map[*runStats][]float64)
	sweepS := make(map[*runStats][]float64)
	var checked []experiments.AdaptiveRunConfig
	var want []string
	deadline := time.Now().Add(c.budget)
	for pass := 0; c.more(pass, deadline); pass++ {
		h, tr := c.half(pass, st, tr)
		in := fig7Population(c.seed, pass)
		h.attempted += int64(1 + len(in.seeds))
		t0 := time.Now()
		res, err := experiments.RunAdaptive(in.cfg)
		t1 := time.Now()
		if err != nil {
			h.failed += int64(1 + len(in.seeds))
			st.mismatch("pass %d: RunAdaptive: %v", pass, err)
			continue
		}
		lanes, err := experiments.SweepSeeds(in.cfg, in.seeds, c.workers)
		t2 := time.Now()
		if err != nil {
			h.failed += int64(len(in.seeds))
			st.mismatch("pass %d: SweepSeeds: %v", pass, err)
			continue
		}
		trace := fmt.Sprintf("fig7-pass-%d", pass)
		tr.record(trace, "fig7.pass", "", 0, t0, t2, 0)
		tr.record(trace, "experiments.RunAdaptive", "fig7.pass", 0, t0, t1, in.cfg.Steps)
		tr.record(trace, "experiments.SweepSeeds", "fig7.pass", 0, t1, t2, in.cfg.Steps*int64(len(lanes)))
		h.latencies = append(h.latencies, float64(t2.Sub(t0))/1e6)
		campaignS[h] = append(campaignS[h], t1.Sub(t0).Seconds())
		sweepS[h] = append(sweepS[h], t2.Sub(t1).Seconds())
		rounds := res.Rounds
		for _, l := range lanes {
			rounds += l.Rounds
		}
		h.addPass(int64(1+len(lanes)), rounds, t2.Sub(t0))
		got := experiments.RenderFig7(res, minN)
		if lane0 := experiments.RenderFig7(lanes[0], minN); lane0 != got {
			st.mismatch("pass %d: sweep lane 0 transcript differs from the single campaign", pass)
		}
		if pass < fig7Checked {
			checked = append(checked, in.cfg)
			want = append(want, got)
		}
	}

	// Output checks, outside the timed region.
	for i, cfg := range checked {
		ref, err := experiments.RunAdaptiveReference(cfg)
		if err != nil {
			st.mismatch("pass %d: RunAdaptiveReference: %v", i, err)
		} else if experiments.RenderFig7(ref, minN) != want[i] {
			st.mismatch("pass %d: campaign transcript differs from RunAdaptiveReference on the same config", i)
		}
	}

	for _, h := range st.halves() {
		h.layers["campaign_s"] = median(campaignS[h])
		h.layers["sweep_s"] = median(sweepS[h])
		h.layers["failed_ratio"] = h.failedRatio()
	}
	st.note("fig7-campaign: campaign %d rounds, sweep %d lanes × %d rounds on %d workers, %d passes, %d checked against the reference loop",
		in.cfg.Steps, len(in.seeds), in.cfg.Steps, c.workers, st.passes, len(checked))
	st.note("  campaign_s %s", describe(campaignS[st], "s", 0.5, 0.9))
	st.note("  sweep_s    %s", describe(sweepS[st], "s", 0.5, 0.9))
	return st, nil
}

// checkSample picks the jobs whose results are compared with a direct
// run: every fleet job, and a seeded tenth (at least ten) of the
// serve-scenario jobs.
func checkSample(pop population, seed uint64, fleet bool) []popJob {
	u := pop.unique()
	if fleet {
		return u
	}
	rng := xrand.New(seed ^ 0xc4ec)
	var out []popJob
	for _, j := range u {
		if rng.Bool(0.1) {
			out = append(out, j)
		}
	}
	for _, j := range u {
		if len(out) >= 10 {
			break
		}
		if !containsJob(out, j.ID) {
			out = append(out, j)
		}
	}
	return out
}

func containsJob(js []popJob, id string) bool {
	for _, j := range js {
		if j.ID == id {
			return true
		}
	}
	return false
}

// runServed is the serve-scenario workload (fleet false) and the
// fleet-campaign workload (fleet true). Each pass opens a server on a
// fresh store and runs the whole population through it.
func runServed(fleet bool, c runConfig, tr *tracer) (*runStats, error) {
	gen, n := servePopulation, c.serveJobs
	if fleet {
		gen, n = fleetPopulation, c.fleetJobs
	}
	pop, err := gen(c.seed, n, c.clients)
	if err != nil {
		return nil, err
	}
	st := newRunStats(c)
	sample := checkSample(pop, c.seed, fleet)
	checked := make(map[string]bool, len(sample))
	for _, j := range sample {
		checked[j.ID] = true
	}
	got := make(map[string][]byte, len(sample))
	accs := make(map[*runStats]*servedAcc)
	for _, h := range st.halves() {
		accs[h] = newServedAcc(h, checked, got)
	}
	for end := time.Now().Add(c.warmup); time.Now().Before(end); {
		if err := warmupPass(c, fleet, pop); err != nil {
			return nil, err
		}
	}
	deadline := time.Now().Add(c.budget)
	for pass := 0; c.more(pass, deadline); pass++ {
		h, tr := c.half(pass, st, tr)
		// Flush the previous pass's garbage and dirty pages (its deleted
		// store) here, so neither lands in this pass's set-up or timed
		// region.
		runtime.GC()
		syscall.Sync()
		dir, err := freshDir(c.work, "store-")
		if err != nil {
			return nil, err
		}
		mark := 0
		if tr != nil {
			mark = tr.mark()
		}
		pr, err := servedPass(dir, fleet, c.workers, pop, tr)
		if err == nil && c.recover && !fleet && !c.more(pass+1, deadline) {
			var ms float64
			if ms, err = recoverMsPer1k(dir, c.workers); err == nil {
				st.layers["jobs.recover_ms_per_1k"] = ms
				st.note("  recovery: reopened a store of %d jobs to WaitReady: %.3g ms per 1k jobs", storeJobs(dir), ms)
			}
		}
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
		if err != nil {
			return nil, err
		}
		accs[h].add(pass, pop, pr)
		if pass == 0 {
			st.arrivals = arrivalOrder(pop, pr.recs)
		}
		if tr != nil {
			spans := tr.since(mark)
			h.parts = append(h.parts, partsFromSpans(spans, fleet)...)
		}
	}

	// Output checks, outside the timed region.
	for _, j := range sample {
		body, ok := got[j.ID]
		if !ok {
			st.mismatch("job %s never completed, so its result was not checked", j.ID)
			continue
		}
		if err := checkResult(j, body, fleet); err != nil {
			st.mismatch("job %s: %v", j.ID, err)
		}
	}

	name := "serve-scenario"
	if fleet {
		name = "fleet-campaign"
	}
	for _, h := range st.halves() {
		accs[h].finish(fleet)
	}
	acc := accs[st]
	st.note("%s: %d jobs per pass (%d distinct), %d clients, %d workers, %d passes, %d results checked",
		name, pop.total, len(pop.unique()), c.clients, c.workers, st.passes, len(sample))
	st.note("  latency       %s", describe(st.latencies, "ms", 0.5, 0.9, 0.99))
	st.note("  submit        %s", describe(acc.submit, "ms", 0.5, 0.99))
	st.note("  sse_wait      %s", describe(acc.sse, "ms", 0.5, 0.99))
	st.note("  result_fetch  %s", describe(acc.fetch, "ms", 0.5, 0.99))
	if !fleet {
		st.note("  server (from /metricz, n=%.0f): queue wait mean %.4g ms, submit→final mean %.4g ms",
			acc.sums["aft_run_latency_seconds_count"], st.layers["jobs.queue_wait_ms"], st.layers["jobs.run_latency_ms"])
	}
	return st, nil
}

// warmupPass runs one untimed pass on a fresh store and discards it.
func warmupPass(c runConfig, fleet bool, pop population) error {
	dir, err := freshDir(c.work, "warmup-")
	if err != nil {
		return err
	}
	_, err = servedPass(dir, fleet, c.workers, pop, nil)
	if rerr := os.RemoveAll(dir); err == nil {
		err = rerr
	}
	return err
}

// servedAcc accumulates the passes of a served run (or of one half of
// an alternating run).
type servedAcc struct {
	st                 *runStats
	submit, sse, fetch []float64 // ms per completed job
	// sums adds up the server's metrics over the passes.
	sums                  map[string]float64
	shards, leases, empty int64
	dedupHits             float64
	// got holds the first result body of each job whose output is
	// checked; checked names those jobs. Both halves of a run share them.
	got     map[string][]byte
	checked map[string]bool
}

func newServedAcc(st *runStats, checked map[string]bool, got map[string][]byte) *servedAcc {
	return &servedAcc{st: st, sums: make(map[string]float64), got: got, checked: checked}
}

// add counts one pass. Every submission is attempted; one that was
// refused, or whose job ended anything other than done, is failed and
// contributes no latency sample.
func (a *servedAcc) add(pass int, pop population, pr passResult) {
	st := a.st
	if st.passes == 0 {
		a.dedupHits = pr.server["aft_jobs_deduped_total"]
	}
	st.setups = append(st.setups, pr.setup.Seconds())
	for k, v := range pr.server {
		a.sums[k] += v
	}
	a.shards += pr.shards
	a.leases += pr.leases
	a.empty += pr.empty
	var jobs, rounds int64
	for _, seq := range pop.perClient {
		for _, j := range seq {
			rec := pr.recs[j.Index]
			st.attempted++
			if rec.err != "" {
				st.failed++
				if st.failed <= 3 {
					st.note("  failed: pass %d job %d: %s", pass, j.Index, rec.err)
				}
				continue
			}
			jobs++
			st.latencies = append(st.latencies, float64(rec.total)/1e6)
			a.submit = append(a.submit, float64(rec.submit)/1e6)
			a.sse = append(a.sse, float64(rec.sse)/1e6)
			a.fetch = append(a.fetch, float64(rec.fetch)/1e6)
			if !j.Repeat {
				rounds += rec.rounds
			}
			if !a.checked[j.ID] {
				continue
			}
			if prev, ok := a.got[j.ID]; !ok {
				a.got[j.ID] = rec.result
			} else if !bytes.Equal(prev, rec.result) {
				st.mismatch("pass %d: job %s result differs from its earlier run", pass, j.ID)
			}
		}
	}
	st.addPass(jobs, rounds, pr.timed)
}

// finish derives the per-layer figures of the accumulated passes.
func (a *servedAcc) finish(fleet bool) {
	st, sums := a.st, a.sums
	passes := float64(st.passes)
	st.layers["failed_ratio"] = st.failedRatio()
	if fleet {
		st.layers["lease.fenced_rejects"] = sums["aft_fenced_rejects_total"]
		st.layers["worker.shards"] = ratio(float64(a.shards), passes)
		st.layers["lease.empty_poll_ratio"] = ratio(float64(a.empty), float64(a.leases))
		return
	}
	st.layers["jobs.submit_ms"] = median(a.submit)
	st.layers["jobs.sse_wait_ms"] = median(a.sse)
	st.layers["jobs.result_fetch_ms"] = median(a.fetch)
	st.layers["jobs.queue_wait_ms"] = 1000 * ratio(sums["aft_queue_wait_seconds_sum"], sums["aft_queue_wait_seconds_count"])
	st.layers["jobs.run_latency_ms"] = 1000 * ratio(sums["aft_run_latency_seconds_sum"], sums["aft_run_latency_seconds_count"])
	st.layers["jobs.dedup_hits"] = a.dedupHits
	st.layers["pubsub.events_published"] = ratio(sums["aft_events_published_total"], passes)
	st.layers["pubsub.dropped"] = ratio(sums["aft_sse_dropped_total"], passes)
	st.layers["pubsub.drop_ratio"] = ratio(sums["aft_sse_dropped_total"], sums["aft_events_published_total"])
	st.layers["latency_p99_ms"] = percentile(st.latencies, 0.99)
}

// arrivalOrder lists the pass's jobs in the order the server answered
// their submissions.
func arrivalOrder(pop population, recs []jobRecord) []popJob {
	var out []popJob
	for _, seq := range pop.perClient {
		for _, j := range seq {
			if recs[j.Index].err == "" {
				out = append(out, j)
			}
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		return recs[out[a].Index].accepted.Before(recs[out[b].Index].accepted)
	})
	return out
}

// checkResult compares a served result with a direct, single-process
// run of the same spec: byte-identical for scenarios, the same rendered
// transcript for fleet campaigns (whose summaries note shard resumes).
func checkResult(j popJob, body []byte, fleet bool) error {
	if !fleet {
		want, err := json.Marshal(jobs.ExecuteScenario(j.ID, j.Spec.Scenario))
		if err != nil {
			return err
		}
		if !bytes.Equal(bytes.TrimSpace(body), want) {
			return fmt.Errorf("served result differs from jobs.ExecuteScenario on the same spec")
		}
		return nil
	}
	var got jobs.Result
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	cfg := *j.Spec.Campaign
	res, err := experiments.RunAdaptive(cfg)
	if err != nil {
		return err
	}
	if want := jobs.CampaignResult(j.ID, cfg, res, false); got.Transcript != want.Transcript || got.Rounds != want.Rounds {
		return fmt.Errorf("stitched shard-chain transcript differs from single-process RunAdaptive")
	}
	return nil
}

// recoverMsPer1k reopens a populated store and times it to WaitReady,
// per thousand stored jobs.
func recoverMsPer1k(dir string, workers int) (float64, error) {
	n := storeJobs(dir)
	if n == 0 {
		return 0, fmt.Errorf("recovery: store %s holds no jobs", dir)
	}
	t0 := time.Now()
	srv, err := jobs.NewServer(jobs.Options{Dir: dir, Workers: workers})
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()
	err = srv.WaitReady(ctx)
	d := time.Since(t0)
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	return float64(d) / 1e6 / (float64(n) / 1000), err
}
