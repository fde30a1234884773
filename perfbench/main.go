// Command perfbench is the repository's benchmark. It drives the
// program only through public entry points (experiments.*,
// jobs.NewServer, Server.ServeHTTP over loopback, worker.Run and
// Server.Metrics), checks every output it measures, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as one
// JSON object on its last line of output. See README.md in this
// directory for the workloads, the metrics and how to run it.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fig7-campaign --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one named input set and the function that measures it.
type workload struct {
	name string
	run  func(runConfig, *tracer) (*runStats, error)
	// partNames splits a traced job's latency (served workloads only).
	partNames []string
	// warmup is how long the workload runs untimed before measuring.
	warmup time.Duration
}

var workloads = []workload{
	{name: "fig7-campaign", run: runFig7},
	// serve-scenario's fsync load outruns the burst allowance of the
	// virtual disks it was tuned on within about ten seconds; measuring
	// only after that reads the sustained rate, not the credit left by
	// whatever ran before. BENCHMARK.json does not declare it: on those
	// disks its figures drift more than a bound allows (README.md). It
	// runs by hand, and as a probe in every traced run.
	{name: "serve-scenario", run: func(c runConfig, tr *tracer) (*runStats, error) { return runServed(false, c, tr) },
		partNames: servePartNames, warmup: 15 * time.Second},
	{name: "fleet-campaign", run: func(c runConfig, tr *tracer) (*runStats, error) { return runServed(true, c, tr) },
		partNames: fleetPartNames},
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics is what every workload reports with tracing off.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
	{"jobs_per_s", "1/s"},
	{"rounds_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
}

// perLayerMetrics is what every workload reports with tracing on.
var perLayerMetrics = []metricDef{
	{"experiments.round_ns", "ns"},
	{"experiments.batch_lane_round_ns", "ns"},
	{"experiments.reference_round_ns", "ns"},
	{"voting.tally_ns", "ns"},
	{"voting.tally_scalar_ns", "ns"},
	{"redundancy.step_ns", "ns"},
	{"experiments.snapshot_us", "us"},
	{"experiments.restore_us", "us"},
	{"checkpoint.encode_us", "us"},
	{"checkpoint.decode_us", "us"},
	{"checkpoint.snapshot_bytes", "bytes"},
	{"checkpoint.write_atomic_us", "us"},
	{"checkpoint.write_atomic_p99_us", "us"},
	{"checkpoint.write_atomic_count", "count"},
	{"jobs.spec_id_us", "us"},
	{"jobs.submit_ms", "ms"},
	{"jobs.sse_wait_ms", "ms"},
	{"jobs.result_fetch_ms", "ms"},
	{"jobs.queue_wait_ms", "ms"},
	{"jobs.run_latency_ms", "ms"},
	{"jobs.dedup_hits", "count"},
	{"jobs.recover_ms_per_1k", "ms"},
	{"scenario.run_us", "us"},
	{"sched.push_pop_ns", "ns"},
	{"pubsub.publish_ns", "ns"},
	{"pubsub.events_published", "count"},
	{"pubsub.dropped", "count"},
	{"pubsub.drop_ratio", "ratio"},
	{"lease.grant_ms", "ms"},
	{"lease.renew_ms", "ms"},
	{"lease.upload_ms", "ms"},
	{"lease.complete_ms", "ms"},
	{"lease.empty_poll_ratio", "ratio"},
	{"lease.fenced_rejects", "count"},
	{"worker.shards", "count"},
	{"campaign_s", "s"},
	{"sweep_s", "s"},
	{"latency_p99_ms", "ms"},
	{"failed_ratio", "ratio"},
}

// untracedLayers are per-layer metrics that are end-to-end figures of
// one workload; the traced run takes them from its untraced half.
var untracedLayers = []string{"campaign_s", "sweep_s", "latency_p99_ms", "failed_ratio"}

// probe sizes: in a traced run, each workload other than the one asked
// for runs one small pass, so every layer is measured on every run.
const (
	probeServeJobs = 1200 // enough samples for a supported p99
	probeFleetJobs = 24
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

// run executes one benchmark run. It returns exit code 0 only when the
// run completed and every output check passed.
func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "how long the run keeps starting passes")
	traceFlag := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	out := fs.String("out", ".bench_build/perfbench-out", "directory for job stores, spans and reports")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	w, ok := findWorkload(*name)
	if !ok {
		return 2, fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		return 2, fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	n := max(1, runtime.NumCPU())
	c := runConfig{
		seed:      *seed,
		budget:    time.Duration(*seconds * float64(time.Second)),
		serveJobs: serveJobs,
		fleetJobs: fleetJobs,
		clients:   n,
		workers:   n,
		work:      filepath.Join(*out, fmt.Sprintf("stores-%d", os.Getpid())),
		warmup:    w.warmup,
	}
	if err := os.MkdirAll(c.work, 0o755); err != nil {
		return 1, err
	}
	defer os.RemoveAll(c.work)

	env := environment(c.work)
	env.Workload, env.Seed, env.Seconds, env.Trace = w.name, *seed, *seconds, *traceFlag == 1
	env.Clients, env.Workers = c.clients, c.workers
	if w.name == "fig7-campaign" {
		env.Clients = 1
	}
	var rep report
	var err error
	if *traceFlag == 0 {
		rep, err = untraced(w, c)
	} else {
		rep, err = traced(w, c, filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed)))
	}
	if err != nil {
		return 1, err
	}
	rep.Env = env
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return 1, err
	}
	path := filepath.Join(*out, fmt.Sprintf("report-%s-seed%d-trace%d.json", w.name, *seed, *traceFlag))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return 1, err
	}
	envLine, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "# env %s\n", envLine)
	for _, l := range rep.Lines {
		fmt.Fprintf(stdout, "# %s\n", l)
	}
	for _, m := range rep.Mismatches {
		fmt.Fprintf(stdout, "# MISMATCH %s\n", m)
	}
	fmt.Fprintf(stdout, "# report written to %s\n", path)
	last, err := json.Marshal(rep.Result)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(stdout, "%s\n", last)
	if !rep.Result.Correct {
		return 1, fmt.Errorf("%d output check(s) failed", len(rep.Mismatches))
	}
	return 0, nil
}

// report is everything one run found, written to its report file.
type report struct {
	Env        envRecord `json:"env"`
	Result     result    `json:"result"`
	Lines      []string  `json:"lines"`
	Mismatches []string  `json:"mismatches,omitempty"`
}

func (r *report) add(st *runStats) {
	r.Result.Attempted += st.attempted
	r.Result.Failed += st.failed
	r.Lines = append(r.Lines, st.report...)
	r.Mismatches = append(r.Mismatches, st.mismatches...)
}

func (r *report) finish(values map[string]float64, defs []metricDef) error {
	r.Result.Correct = len(r.Mismatches) == 0
	r.Result.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		r.Result.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		r.Lines = append(r.Lines, fmt.Sprintf("%-34s %.6g %s", d.name, v, d.unit))
	}
	return nil
}

// untraced measures the end-to-end metrics with tracing off.
func untraced(w workload, c runConfig) (report, error) {
	var rep report
	st, err := w.run(c, nil)
	if err != nil {
		return rep, err
	}
	rep.add(st)
	rep.Lines = append(rep.Lines,
		fmt.Sprintf("timed %.3fs over %d passes; %d latency samples", st.timed.Seconds(), st.passes, len(st.latencies)),
		"  setup_s      "+describe(st.setups, "s", 0.5, 0.9),
		"  jobs_per_s   "+describe(st.jobRates, "/s", 0.25, 0.5, 0.75),
		"  rounds_per_s "+describe(st.roundRates, "/s", 0.25, 0.5, 0.75),
		fmt.Sprintf("  jobs_per_s by pass, in order: %.4g", st.jobRates))
	if q, ok := tailQuantile(len(st.latencies)); ok {
		rep.Lines = append(rep.Lines, fmt.Sprintf("  latency tail: p%g = %.4g ms is the highest percentile with at least %d samples beyond it",
			100*q, percentile(st.latencies, q), minBeyond))
	}
	for _, k := range sortedKeys(st.layers) {
		rep.Lines = append(rep.Lines, fmt.Sprintf("layer figure (reported with --trace 1) %s %.6g", k, st.layers[k]))
	}
	return rep, rep.finish(st.endToEnd(), endToEndMetrics)
}

// traced runs the workload for twice the budget with every other pass
// traced (the difference between the halves is the tracing overhead),
// one small traced pass of every other workload, and the layer
// replays; it reports every per-layer metric and writes the spans to
// spansPath.
func traced(w workload, c runConfig, spansPath string) (report, error) {
	var rep report
	tr := newTracer()
	tc := c
	tc.budget, tc.recover, tc.alternate = 2*c.budget, true, true
	st, err := w.run(tc, tr)
	if err != nil {
		return rep, err
	}
	base := st.untraced
	rep.add(st)
	rep.add(base)
	rep.Lines = append(rep.Lines, fmt.Sprintf("tracing overhead on %s (traced − untraced passes, alternating; %d traced, %d untraced):",
		w.name, st.passes, base.passes))
	b, t := base.endToEnd(), st.endToEnd()
	for _, d := range endToEndMetrics {
		if d.name == "max_rss_mb" {
			continue // one process: both halves share the peak
		}
		rep.Lines = append(rep.Lines, fmt.Sprintf("  %-16s %+.4g %s (%+.1f%%)", d.name, t[d.name]-b[d.name], d.unit,
			100*ratio(t[d.name]-b[d.name], b[d.name])))
	}

	layers := make(map[string]float64)
	// The scheduler and bus replays use serve-scenario's arrival order,
	// from the run itself or from its probe.
	arrivals := st.arrivals
	for _, o := range workloads {
		if o.name == w.name {
			continue
		}
		pc := c
		pc.maxPasses, pc.serveJobs, pc.fleetJobs, pc.recover, pc.warmup = 1, probeServeJobs, probeFleetJobs, true, 0
		ps, err := o.run(pc, tr)
		if err != nil {
			return rep, fmt.Errorf("probe %s: %w", o.name, err)
		}
		rep.Lines = append(rep.Lines, fmt.Sprintf("probe: one traced pass of %s", o.name))
		rep.add(ps)
		for k, v := range ps.layers {
			layers[k] = v
		}
		if o.name == "serve-scenario" {
			arrivals = ps.arrivals
		}
		if o.partNames != nil {
			partsCheck(&rep, o, ps)
		}
	}
	for k, v := range st.layers {
		layers[k] = v
	}
	for _, k := range untracedLayers {
		if v, ok := base.layers[k]; ok {
			layers[k] = v
		}
	}
	if w.partNames != nil {
		partsCheck(&rep, w, st)
	}

	spans := tr.mark()
	if err := leaseLayers(tr, layers); err != nil {
		return rep, err
	}
	rl, notes, err := replayLayers(c.seed, arrivals, c.clients, c.work, tr)
	if err != nil {
		return rep, err
	}
	rep.Lines = append(rep.Lines, "layer replays:")
	rep.Lines = append(rep.Lines, notes...)
	for k, v := range rl {
		layers[k] = v
	}
	if err := tr.writeFile(spansPath); err != nil {
		return rep, err
	}
	rep.Lines = append(rep.Lines, fmt.Sprintf("%d spans (%d before the replays) written to %s", tr.mark(), spans, spansPath))
	return rep, rep.finish(layers, perLayerMetrics)
}

// partsCheck adds a served run's latency breakdown to the report; a
// failed check fails the run's output checks.
func partsCheck(rep *report, w workload, st *runStats) {
	lines, err := partsReport(st.parts, w.partNames, percentile(st.latencies, 0.5))
	rep.Lines = append(rep.Lines, fmt.Sprintf("latency breakdown of %s:", w.name))
	rep.Lines = append(rep.Lines, lines...)
	if err != nil {
		rep.Mismatches = append(rep.Mismatches, fmt.Sprintf("%s: %v", w.name, err))
	}
}

// leaseLayers reads the lease round-trip medians off the worker
// transport's spans.
func leaseLayers(tr *tracer, layers map[string]float64) error {
	spans := tr.since(0)
	d := byName(spans)
	for _, n := range []string{"grant", "renew", "upload", "complete"} {
		xs := d["lease."+n]
		if len(xs) == 0 {
			counts := make(map[string]int)
			for k, v := range d {
				counts[k] = len(v)
			}
			return fmt.Errorf("no lease.%s spans were recorded (spans by name: %v)", n, counts)
		}
		layers["lease."+n+"_ms"] = median(xs)
	}
	return nil
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
