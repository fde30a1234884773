package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"aft/internal/jobs"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.1, 1}, {0.5, 5}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {1, 10}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Errorf("percentile sorted its input in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %g, want 0", got)
	}
}

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{100, 0.9, true},   // ranks 91..100 lie beyond p90
		{99, 0.9, false},   // only 9 beyond
		{999, 0.99, false}, // only 9 beyond
		{1000, 0.99, true},
		{1000, 0.999, false},
	} {
		if got := tailSupported(c.n, c.q); got != c.want {
			t.Errorf("tailSupported(%d, %g) = %v (beyond %d), want %v", c.n, c.q, got, beyond(c.n, c.q), c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{{10000, 0.999, true}, {1000, 0.99, true}, {500, 0.9, true}, {20, 0.5, true}, {19, 0, false}} {
		q, ok := tailQuantile(c.n)
		if q != c.want || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %g, %v; want %g, %v", c.n, q, ok, c.want, c.ok)
		}
	}
}

func popIDs(p population) [][]string {
	var out [][]string
	for _, seq := range p.perClient {
		var ids []string
		for _, j := range seq {
			ids = append(ids, j.ID+"|"+string(j.Body))
		}
		out = append(out, ids)
	}
	return out
}

// work is the fresh rounds and steps a client's sequence asks for.
func work(seq []popJob) int64 {
	var n int64
	for _, j := range seq {
		switch {
		case j.Repeat:
		case j.Spec.Campaign != nil:
			n += j.Spec.Campaign.Steps
		default:
			n += j.Spec.Scenario.Spec.Horizon
		}
	}
	return n
}

func TestSameSeedSamePopulation(t *testing.T) {
	for _, gen := range []struct {
		name string
		f    func(uint64, int, int) (population, error)
		n    int
	}{{"serve", servePopulation, serveJobs}, {"fleet", fleetPopulation, fleetJobs}} {
		a, err := gen.f(7, gen.n, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := gen.f(7, gen.n, 2)
		c, _ := gen.f(8, gen.n, 2)
		if !reflect.DeepEqual(popIDs(a), popIDs(b)) {
			t.Errorf("%s: the same seed gave different job populations", gen.name)
		}
		if a.perClient[0][0].ID == c.perClient[0][0].ID {
			t.Errorf("%s: seeds 7 and 8 gave the same first job %s", gen.name, a.perClient[0][0].ID)
		}
		if a.total != gen.n || len(a.perClient[0])+len(a.perClient[1]) != gen.n {
			t.Errorf("%s: population has %d jobs, want %d", gen.name, a.total, gen.n)
		}
		if w0, w1 := work(a.perClient[0]), work(a.perClient[1]); w0 != w1 {
			t.Errorf("%s: clients get unequal work %d and %d", gen.name, w0, w1)
		}
	}
	if !reflect.DeepEqual(fig7Population(7, 3), fig7Population(7, 3)) {
		t.Errorf("fig7: the same seed and pass gave different inputs")
	}
	if fig7Population(7, 3).cfg.Seed == fig7Population(7, 4).cfg.Seed {
		t.Errorf("fig7: passes 3 and 4 share a campaign seed")
	}
	if in := fig7Population(7, 0); in.seeds[0] != in.cfg.Seed {
		t.Errorf("fig7: sweep lane 0 is not the single campaign")
	}
}

func TestServePopulationRepeatsOwnClient(t *testing.T) {
	p, err := servePopulation(3, serveJobs, 2)
	if err != nil {
		t.Fatal(err)
	}
	repeats := 0
	for c, seq := range p.perClient {
		seen := make(map[string]bool)
		for _, j := range seq {
			if j.Repeat {
				repeats++
				if !seen[j.ID] {
					t.Errorf("client %d repeats %s before submitting it", c, j.ID)
				}
			} else if seen[j.ID] {
				t.Errorf("client %d: fresh job %s collides with an earlier one", c, j.ID)
			}
			seen[j.ID] = true
		}
	}
	if want := serveJobs / serveRepeatEvery; repeats != want {
		t.Errorf("%d repeats in %d jobs, want %d", repeats, serveJobs, want)
	}
}

// TestRefusedAndNotDoneAreFailed checks the client's classification
// against a stub server and the run's accounting of it.
func TestRefusedAndNotDoneAreFailed(t *testing.T) {
	failID := "" // the job the stub server fails
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec jobs.Spec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil || spec.Client == "refuse" {
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"rate limit exceeded"}`)
			return
		}
		id, _ := spec.ID()
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(jobs.SubmitReply{Status: jobs.Status{ID: id, State: jobs.StateQueued}})
	})
	state := func(id string) jobs.State {
		if id == failID {
			return jobs.StateFailed
		}
		return jobs.StateDone
	}
	mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		fmt.Fprintf(w, "data: {\"id\":%q,\"state\":\"running\"}\n\n", id)
		fmt.Fprintf(w, "data: {\"id\":%q,\"state\":%q}\n\n", id, state(id))
	})
	mux.HandleFunc("GET /jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		json.NewEncoder(w).Encode(jobs.Result{ID: id, State: state(id), Rounds: 500})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	base, err := servePopulation(1, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	pop := population{perClient: [][]popJob{base.perClient[0]}, total: 3}
	seq := pop.perClient[0]
	refused := seq[1].Spec
	refused.Client = "refuse"
	seq[1], _ = newPopJob(1, 0, refused, false)
	failID = seq[2].ID

	c := newClient(srv.URL, nil)
	pr := passResult{recs: make([]jobRecord, 3)}
	for _, j := range seq {
		pr.recs[j.Index] = c.runJob(context.Background(), j)
	}
	if pr.recs[0].err != "" {
		t.Errorf("done job recorded as failed: %s", pr.recs[0].err)
	}
	if !strings.Contains(pr.recs[1].err, "refused") {
		t.Errorf("refused submission recorded as %q", pr.recs[1].err)
	}
	if !strings.Contains(pr.recs[2].err, "ended failed") {
		t.Errorf("failed job recorded as %q", pr.recs[2].err)
	}

	st := newRunStats(runConfig{})
	newServedAcc(st, nil, nil).add(0, pop, pr)
	if st.attempted != 3 || st.failed != 2 || st.jobs != 1 || len(st.latencies) != 1 {
		t.Errorf("accounting: attempted %d failed %d jobs %d latencies %d; want 3, 2, 1, 1",
			st.attempted, st.failed, st.jobs, len(st.latencies))
	}
	if got := st.failedRatio(); got != 2.0/3 {
		t.Errorf("failed_ratio = %g, want 2/3", got)
	}
}

func TestPartsCheckFiresOnMissingPart(t *testing.T) {
	parts := map[string]float64{"submit": 1, "sse_wait": 7, "result_fetch": 2}
	if _, err := checkParts(10, parts, servePartNames, 0.02); err != nil {
		t.Fatalf("complete parts rejected: %v", err)
	}
	if _, err := checkParts(10.5, parts, servePartNames, 0.02); err == nil {
		t.Errorf("parts 5%% short of the total passed a 2%% tolerance")
	}
	delete(parts, "sse_wait")
	parts["result_fetch"] = 9 // the remaining parts still add up
	if _, err := checkParts(10, parts, servePartNames, 0.02); err == nil || !strings.Contains(err.Error(), "sse_wait") {
		t.Errorf("missing part not reported: %v", err)
	}
	js := []jobParts{{total: 10, parts: map[string]float64{"submit": 1, "sse_wait": 7, "result_fetch": 2}}, {total: 10, parts: parts}}
	if _, err := partsReport(js, servePartNames, 10); err == nil {
		t.Errorf("partsReport passed a job with a missing part")
	}
}

// TestFleetTimeline checks that a fleet job's spans split its latency
// into parts that tile it, and that a job with no completion span has
// no fleet parts.
func TestFleetTimeline(t *testing.T) {
	ms := int64(time.Millisecond)
	sp := func(trace, name string, attempt int, start, end int64) span {
		return span{Trace: trace, Name: name, Attempt: attempt, Start: start * ms, End: end * ms}
	}
	spans := []span{
		sp("j", "client.job", 1, 0, 100),
		sp("j", "client.submit", 1, 0, 2),
		sp("j", "client.sse_wait", 1, 2, 99),
		sp("j", "client.result_fetch", 1, 99, 100),
		sp("j", "lease.grant", 0, 5, 6),
		sp("j", "lease.renew", 0, 20, 21),
		sp("j", "lease.upload", 0, 40, 43),
		sp("j", "lease.grant", 0, 50, 51),
		sp("j", "lease.complete", 0, 90, 95),
	}
	js := partsFromSpans(spans, true)
	if len(js) != 1 {
		t.Fatalf("got %d jobs, want 1", len(js))
	}
	want := map[string]float64{"submit": 2, "queue": 3 + 7, "grant": 2, "compute": 34 + 39,
		"upload": 3, "complete": 5, "delivery": 4, "result_fetch": 1}
	if !reflect.DeepEqual(js[0].parts, want) {
		t.Errorf("parts = %v, want %v", js[0].parts, want)
	}
	if _, err := checkParts(js[0].total, js[0].parts, fleetPartNames, 0); err != nil {
		t.Errorf("parts do not tile the job: %v", err)
	}
	js = partsFromSpans(spans[:len(spans)-1], true)
	if err := missingPart(js[0].parts, fleetPartNames); err == nil {
		t.Errorf("job without a completion span has every fleet part")
	}
}

func TestV1Span(t *testing.T) {
	for _, c := range []struct{ method, path, name, job string }{
		{"POST", "/v1/lease", "lease.grant", ""},
		{"POST", "/v1/jobs/abc/renew", "lease.renew", "abc"},
		{"PUT", "/v1/jobs/abc/checkpoint", "lease.upload", "abc"},
		{"POST", "/v1/jobs/abc/complete", "lease.complete", "abc"},
		{"GET", "/healthz", "", ""},
	} {
		if name, job := v1Span(c.method, c.path); name != c.name || job != c.job {
			t.Errorf("v1Span(%s %s) = %q, %q; want %q, %q", c.method, c.path, name, job, c.name, c.job)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics this
// program prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found beside the benchmark:", err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	// serve-scenario runs by hand and as the traced runs' probe; it is
	// not declared (README.md gives the measured spread).
	var declared []string
	for _, n := range workloadNames() {
		if n != "serve-scenario" {
			declared = append(declared, n)
		}
	}
	if !reflect.DeepEqual(names, declared) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, declared)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program prints %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndMetrics)
	check("per_layer", b.PerLayer, perLayerMetrics)
}
