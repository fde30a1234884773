package jobs

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"aft/internal/experiments"
	"aft/internal/redundancy"
	"aft/internal/scenario"
)

// waitCtx bounds every blocking wait in the tests.
func waitCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// newTestServer starts a server on a fresh store and closes it with the
// test.
func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	s, err := NewServer(opts)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// testCampaign is a short Fig. 7-style run (storms scaled down by
// DefaultFig7Config) with optional Fig. 6 sampling.
func testCampaign(steps, sample int64) experiments.AdaptiveRunConfig {
	cfg := experiments.DefaultFig7Config(steps)
	cfg.SampleEvery = sample
	return cfg
}

// uninterrupted renders the transcript of an unkilled, unresumed run of
// cfg — the byte-exact reference every durability test compares
// against.
func uninterrupted(t *testing.T, cfg experiments.AdaptiveRunConfig) string {
	t.Helper()
	res, err := experiments.RunAdaptive(cfg)
	if err != nil {
		t.Fatalf("RunAdaptive: %v", err)
	}
	return renderCampaign(cfg, res)
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

// do performs one in-process request against the server's handler.
func do(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body != "" {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// decode parses a handler response body.
func decode[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("decode %q: %v", w.Body.String(), err)
	}
	return v
}

func TestHandlerErrors(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	tests := []struct {
		name     string
		method   string
		path     string
		body     string
		wantCode int
		wantErr  string
	}{
		{"bad JSON", "POST", "/jobs", "{not json", http.StatusBadRequest, "bad job spec"},
		{"unknown field", "POST", "/jobs", `{"kind":"campaign","bogus":1}`, http.StatusBadRequest, "bogus"},
		{"unknown kind", "POST", "/jobs", `{"kind":"nope","campaign":{"Steps":1}}`, http.StatusBadRequest, "unknown kind"},
		{"no payload", "POST", "/jobs", `{"kind":"campaign"}`, http.StatusBadRequest, "exactly one payload"},
		{"two payloads", "POST", "/jobs",
			`{"kind":"scenario","scenario":{"name":"x"},"sweep":{"grid":"e8"}}`,
			http.StatusBadRequest, "exactly one payload"},
		{"negative steps", "POST", "/jobs",
			`{"kind":"campaign","campaign":{"Steps":-5,"Policy":{"Min":3,"Max":9,"CriticalDTOF":1,"Step":2,"LowerAfter":10}}}`,
			http.StatusBadRequest, "Steps"},
		{"bad policy", "POST", "/jobs",
			`{"kind":"campaign","campaign":{"Steps":100,"Policy":{"Min":2,"Max":9,"CriticalDTOF":1,"Step":2,"LowerAfter":10}}}`,
			http.StatusBadRequest, "Min 2"},
		{"unknown scenario name", "POST", "/jobs",
			`{"kind":"scenario","scenario":{"name":"definitely-not-a-scenario"}}`,
			http.StatusBadRequest, "unknown scenario"},
		{"scenario name and spec", "POST", "/jobs",
			`{"kind":"scenario","scenario":{"name":"quiet","spec":{"name":"x","horizon":1,"phases":[{"name":"p","start":0,"model":{"kind":"never"}}]}}}`,
			http.StatusBadRequest, "exactly one of name and spec"},
		{"unknown sweep grid", "POST", "/jobs",
			`{"kind":"sweep","sweep":{"grid":"e99"}}`,
			http.StatusBadRequest, "unknown sweep grid"},
		{"status of unknown job", "GET", "/jobs/deadbeef", "", http.StatusNotFound, "unknown job"},
		{"result of unknown job", "GET", "/jobs/deadbeef/result", "", http.StatusNotFound, "unknown job"},
		{"cancel unknown job", "POST", "/jobs/deadbeef/cancel", "", http.StatusNotFound, "unknown job"},
		{"events of unknown job", "GET", "/jobs/deadbeef/events", "", http.StatusNotFound, "unknown job"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			w := do(t, s, tc.method, tc.path, tc.body)
			if w.Code != tc.wantCode {
				t.Fatalf("%s %s: code %d, want %d (body %s)", tc.method, tc.path, w.Code, tc.wantCode, w.Body)
			}
			reply := decode[errorReply](t, w)
			if !strings.Contains(reply.Error, tc.wantErr) {
				t.Fatalf("error %q does not mention %q", reply.Error, tc.wantErr)
			}
		})
	}
}

func TestScenarioJobLifecycleOverHTTP(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	spec, err := json.Marshal(Spec{Kind: KindScenario, Scenario: &ScenarioSpec{Spec: tinyScenario()}})
	if err != nil {
		t.Fatal(err)
	}

	// Submit.
	w := do(t, s, "POST", "/jobs", string(spec))
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: code %d, body %s", w.Code, w.Body)
	}
	sub := decode[SubmitReply](t, w)
	if sub.Deduped || sub.ID == "" || sub.Kind != KindScenario {
		t.Fatalf("submit reply %+v", sub)
	}

	// Result is a conflict until the job lands; poll status to done.
	ctx := waitCtx(t)
	if _, err := s.Wait(ctx, sub.ID); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	w = do(t, s, "GET", "/jobs/"+sub.ID, "")
	st := decode[Status](t, w)
	if st.State != StateDone || st.Rounds != 200 || st.TotalRounds != 200 {
		t.Fatalf("status %+v", st)
	}

	// Result: transcript matches a direct scenario run byte for byte.
	w = do(t, s, "GET", "/jobs/"+sub.ID+"/result", "")
	if w.Code != http.StatusOK {
		t.Fatalf("result: code %d body %s", w.Code, w.Body)
	}
	res := decode[Result](t, w)
	direct, err := scenario.Run(*tinyScenario(), scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Transcript != direct.Transcript {
		t.Fatalf("transcript differs from direct scenario run:\n%s\nvs\n%s", res.Transcript, direct.Transcript)
	}

	// Cancel after done conflicts.
	w = do(t, s, "POST", "/jobs/"+sub.ID+"/cancel", "")
	if w.Code != http.StatusConflict {
		t.Fatalf("cancel-after-done: code %d, want 409 (body %s)", w.Code, w.Body)
	}

	// Double submit dedups onto the existing (done) job.
	w = do(t, s, "POST", "/jobs", string(spec))
	if w.Code != http.StatusOK {
		t.Fatalf("dedup submit: code %d, want 200", w.Code)
	}
	dup := decode[SubmitReply](t, w)
	if !dup.Deduped || dup.ID != sub.ID || dup.State != StateDone {
		t.Fatalf("dedup reply %+v", dup)
	}
	list := decode[ListReply](t, do(t, s, "GET", "/jobs", ""))
	if len(list.Jobs) != 1 {
		t.Fatalf("list has %d jobs after double submit, want 1", len(list.Jobs))
	}

	// Health and metrics reflect the run.
	health := decode[HealthReply](t, do(t, s, "GET", "/healthz", ""))
	if !health.OK || health.Jobs[StateDone] != 1 {
		t.Fatalf("health %+v", health)
	}
	metricz := do(t, s, "GET", "/metricz", "").Body.String()
	for _, want := range []string{"aft_jobs_submitted_total 1", "aft_jobs_deduped_total 1", "aft_jobs_done_total 1"} {
		if !strings.Contains(metricz, want) {
			t.Fatalf("metricz missing %q:\n%s", want, metricz)
		}
	}
}

func TestResultBeforeDoneConflictsAndCancelCheckpoints(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, CheckpointEvery: 10_000})
	cfg := testCampaign(50_000_000, 0) // far longer than the test will let it run
	st, deduped, err := s.Submit(Spec{Kind: KindCampaign, Campaign: &cfg})
	if err != nil || deduped {
		t.Fatalf("Submit: %v deduped=%v", err, deduped)
	}

	if w := do(t, s, "GET", "/jobs/"+st.ID+"/result", ""); w.Code != http.StatusConflict {
		t.Fatalf("result before done: code %d, want 409", w.Code)
	}

	// Cancel while running: the campaign checkpoints, then lands
	// cancelled with its progress preserved on disk. Wait for the first
	// chunk to land so the cancel exercises the running path, not the
	// queued one.
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		if got, _ := s.StatusOf(st.ID); got.Rounds > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if w := do(t, s, "POST", "/jobs/"+st.ID+"/cancel", ""); w.Code != http.StatusAccepted {
		t.Fatalf("cancel: code %d", w.Code)
	}
	res, err := s.Wait(waitCtx(t), st.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if res.State != StateCancelled {
		t.Fatalf("state %s, want cancelled", res.State)
	}
	if snap := s.store.readCheckpoint(st.ID); snap == nil {
		t.Fatal("no checkpoint retained after checkpoint-on-cancel")
	}
	final, _ := s.StatusOf(st.ID)
	if final.CheckpointRounds <= 0 || final.CheckpointRounds < final.Rounds {
		t.Fatalf("checkpoint covers %d rounds of %d", final.CheckpointRounds, final.Rounds)
	}
}

func TestCancelQueuedJobIsImmediateAndDurable(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Options{Dir: dir, Workers: 1, CheckpointEvery: 10_000})
	// Occupy the single worker, then queue a second job behind it.
	long := testCampaign(50_000_000, 0)
	first, _, err := s.Submit(Spec{Kind: KindCampaign, Campaign: &long})
	if err != nil {
		t.Fatal(err)
	}
	queued, _, err := s.Submit(Spec{Kind: KindScenario, Scenario: &ScenarioSpec{Spec: tinyScenario()}})
	if err != nil {
		t.Fatal(err)
	}

	if w := do(t, s, "POST", "/jobs/"+queued.ID+"/cancel", ""); w.Code != http.StatusAccepted {
		t.Fatalf("cancel queued: code %d", w.Code)
	}
	res, err := s.Wait(waitCtx(t), queued.ID)
	if err != nil || res.State != StateCancelled {
		t.Fatalf("queued cancel: res %+v err %v", res, err)
	}
	// The cancellation is durable: a restarted server still sees it.
	if _, err := s.Cancel(first.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(waitCtx(t), first.ID); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := newTestServer(t, Options{Dir: dir, Workers: 1})
	st, ok := s2.StatusOf(queued.ID)
	if !ok || st.State != StateCancelled {
		t.Fatalf("restarted server sees %+v", st)
	}
}

// TestDistinctSweepJobsBothFinish submits two e9 grids that share a
// cell: each is its own job, and each finishes done with its own rows.
func TestDistinctSweepJobsBothFinish(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	wide := E9Sweep([]float64{0.5, 0.7})
	narrow := E9Sweep([]float64{0.5})

	st, _, err := s.Submit(wide)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Wait(waitCtx(t), st.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if res.State != StateDone || res.Rounds != 2 {
		t.Fatalf("wide sweep: %+v", res)
	}
	if !strings.Contains(res.Transcript, "K=0.50") {
		t.Fatalf("sweep transcript missing rows:\n%s", res.Transcript)
	}

	st2, _, err := s.Submit(narrow)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID == st.ID {
		t.Fatal("distinct sweeps deduplicated onto one job")
	}
	res2, err := s.Wait(waitCtx(t), st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res2.State != StateDone || res2.Rounds != 1 || !strings.Contains(res2.Transcript, "K=0.50") {
		t.Fatalf("narrow sweep: %+v", res2)
	}
}

// E9Sweep builds a small e9 sweep spec over the given K values.
func E9Sweep(ks []float64) Spec {
	return Spec{Kind: KindSweep, Sweep: &SweepSpec{
		Grid: "e9",
		E9: &experiments.E9Config{
			Ks:         ks,
			Thresholds: []float64{3},
			Traces:     20,
			TraceLen:   50,
			TransientP: 0.03,
			Seed:       17,
		},
	}}
}

func TestBuiltinScenarioJobByName(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	st, _, err := s.Submit(Spec{Kind: KindScenario, Scenario: &ScenarioSpec{Name: "quiet"}})
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalRounds != 4000 { // the quiet builtin's horizon
		t.Fatalf("total %d, want the builtin horizon", st.TotalRounds)
	}
	res, err := s.Wait(waitCtx(t), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != StateDone || res.Rounds != 4000 || !strings.Contains(res.Transcript, "summary") {
		t.Fatalf("builtin scenario result %+v", res)
	}
	if s.Metrics().Text() == "" {
		t.Fatal("empty metrics exposition")
	}
}

func TestSweepGridsE8AndE10(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2})
	e8 := Spec{Kind: KindSweep, Sweep: &SweepSpec{Grid: "e8", Steps: 4000}}
	e10 := Spec{Kind: KindSweep, Sweep: &SweepSpec{Grid: "e10", Steps: 4000, LowerAfters: []int{10, 100}}}
	st8, _, err := s.Submit(e8)
	if err != nil {
		t.Fatal(err)
	}
	st10, _, err := s.Submit(e10)
	if err != nil {
		t.Fatal(err)
	}
	res8, err := s.Wait(waitCtx(t), st8.ID)
	if err != nil {
		t.Fatal(err)
	}
	res10, err := s.Wait(waitCtx(t), st10.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res8.State != StateDone || res8.Rounds != 5 { // four fixed organs + autonomic
		t.Fatalf("e8 result %+v (%s)", res8.Rounds, res8.Error)
	}
	if res10.State != StateDone || res10.Rounds != 2 {
		t.Fatalf("e10 result %+v (%s)", res10.Rounds, res10.Error)
	}
	if res8.Transcript == "" || res10.Transcript == "" {
		t.Fatal("empty sweep transcript")
	}
}

func TestSweepRuntimeErrorFailsJob(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	// Traces=0 passes submit-time validation (the grid name is fine)
	// but fails e9's own validation on the worker.
	bad := Spec{Kind: KindSweep, Sweep: &SweepSpec{Grid: "e9", E9: &experiments.E9Config{
		Ks: []float64{0.5}, Thresholds: []float64{3},
	}}}
	st, _, err := s.Submit(bad)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Wait(waitCtx(t), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != StateFailed || !strings.Contains(res.Error, "Traces") {
		t.Fatalf("bad sweep result %+v", res)
	}
	if metricz := s.reg.Text(); !strings.Contains(metricz, "aft_jobs_failed_total 1") {
		t.Fatalf("failed counter missing:\n%s", metricz)
	}
}

func TestScenarioSummaryReportsInvariants(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	st, _, err := s.Submit(Spec{Kind: KindScenario, Scenario: &ScenarioSpec{Spec: tinyScenario()}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Wait(waitCtx(t), st.ID)
	if err != nil || res.State != StateDone {
		t.Fatalf("clean scenario: %+v err %v", res, err)
	}
	var sum scenarioSummary
	if err := json.Unmarshal(res.Summary, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Violations != nil || sum.InvariantsChecked == 0 {
		t.Fatalf("summary %+v", sum)
	}
}

func TestEventsStreamToTerminalState(t *testing.T) {
	old := sseInterval
	sseInterval = 5 * time.Millisecond
	t.Cleanup(func() { sseInterval = old })

	s := newTestServer(t, Options{Workers: 2})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	st, _, err := s.Submit(Spec{Kind: KindScenario, Scenario: &ScenarioSpec{Spec: tinyScenario()}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	var last Status
	events := 0
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		events++
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
	}
	if events == 0 {
		t.Fatal("no SSE events received")
	}
	if !last.State.Terminal() {
		t.Fatalf("stream ended in non-terminal state %+v", last)
	}
}

func TestSubmitAfterCloseRefused(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	s.Close()
	cfg := testCampaign(10_000, 0)
	if _, _, err := s.Submit(Spec{Kind: KindCampaign, Campaign: &cfg}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("submit after Close: %v, want ErrShuttingDown", err)
	}
	// Over HTTP a shutdown is 503 (retryable), not 400 (malformed).
	spec, err := json.Marshal(Spec{Kind: KindCampaign, Campaign: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if w := do(t, s, "POST", "/jobs", string(spec)); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit during shutdown: code %d, want 503", w.Code)
	}
	if health := decode[HealthReply](t, do(t, s, "GET", "/healthz", "")); health.OK {
		t.Fatal("healthz still OK after Close")
	}
}

// TestConcurrentCancelIsExactlyOnce races many cancels against one
// queued job: exactly one finalization, no double-close panic, and a
// single durable cancelled result.
func TestConcurrentCancelIsExactlyOnce(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, CheckpointEvery: 10_000})
	long := testCampaign(50_000_000, 0)
	blocker, _, err := s.Submit(Spec{Kind: KindCampaign, Campaign: &long})
	if err != nil {
		t.Fatal(err)
	}
	queued, _, err := s.Submit(Spec{Kind: KindScenario, Scenario: &ScenarioSpec{Spec: tinyScenario()}})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = s.Cancel(queued.ID)
		}()
	}
	wg.Wait()
	res, err := s.Wait(waitCtx(t), queued.ID)
	if err != nil || res.State != StateCancelled {
		t.Fatalf("after racing cancels: %+v err %v", res, err)
	}
	if s.cancelledJobs.Value() != 1 {
		t.Fatalf("cancelled counter %d, want 1", s.cancelledJobs.Value())
	}
	if _, err := s.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(waitCtx(t), blocker.ID); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryNotesSkipDamagedJobDirs(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Options{Dir: dir, Workers: 1})
	st, _, err := s.Submit(Spec{Kind: KindScenario, Scenario: &ScenarioSpec{Spec: tinyScenario()}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(waitCtx(t), st.ID); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Damage a second, fake job directory; the healthy job must survive.
	bad := s.store.jobDir("0000000000000bad")
	if err := os.MkdirAll(bad, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.store.specPath("0000000000000bad"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, Options{Dir: dir, Workers: 1})
	if notes := s2.RecoveryNotes(); len(notes) != 1 || !strings.Contains(notes[0], "corrupt spec") {
		t.Fatalf("recovery notes %q", notes)
	}
	got, ok := s2.StatusOf(st.ID)
	if !ok || got.State != StateDone {
		t.Fatalf("healthy job after recovery: %+v ok=%v", got, ok)
	}
	res, ok := s2.ResultOf(st.ID)
	if !ok || res == nil || res.Transcript == "" {
		t.Fatal("healthy job's result not recovered")
	}
}

func TestCorruptResultRecomputesJob(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Options{Dir: dir, Workers: 1})
	st, _, err := s.Submit(Spec{Kind: KindScenario, Scenario: &ScenarioSpec{Spec: tinyScenario()}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Wait(waitCtx(t), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Hand-corrupt the terminal record; the restarted server must note
	// it, re-run the deterministic job, and land the same transcript.
	if err := os.WriteFile(s.store.resultPath(st.ID), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := newTestServer(t, Options{Dir: dir, Workers: 1})
	if notes := s2.RecoveryNotes(); len(notes) != 1 || !strings.Contains(notes[0], "re-running") {
		t.Fatalf("recovery notes %q", notes)
	}
	res, err := s2.Wait(waitCtx(t), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != StateDone || res.Transcript != want.Transcript {
		t.Fatalf("recomputed result differs: %+v", res)
	}
}

func TestSpecIDsAreStableAndDistinct(t *testing.T) {
	cfgA := testCampaign(10_000, 0)
	cfgB := testCampaign(20_000, 0)
	a1, err := (Spec{Kind: KindCampaign, Campaign: &cfgA}).ID()
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := (Spec{Kind: KindCampaign, Campaign: &cfgA}).ID()
	b, _ := (Spec{Kind: KindCampaign, Campaign: &cfgB}).ID()
	if a1 != a2 {
		t.Fatalf("same spec hashed to %s and %s", a1, a2)
	}
	if a1 == b {
		t.Fatal("distinct specs share an ID")
	}
	if len(a1) != 16 {
		t.Fatalf("ID %q is not 16 hex digits", a1)
	}
	if _, err := (Spec{}).ID(); err == nil {
		t.Fatal("invalid spec got an ID")
	}
}

func TestHealthzCountsStates(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, CheckpointEvery: 10_000})
	long := testCampaign(50_000_000, 0)
	running, _, err := s.Submit(Spec{Kind: KindCampaign, Campaign: &long})
	if err != nil {
		t.Fatal(err)
	}
	tiny := Spec{Kind: KindScenario, Scenario: &ScenarioSpec{Spec: tinyScenario()}}
	if _, _, err := s.Submit(tiny); err != nil {
		t.Fatal(err)
	}
	health := decode[HealthReply](t, do(t, s, "GET", "/healthz", ""))
	total := 0
	for _, n := range health.Jobs {
		total += n
	}
	if total != 2 {
		t.Fatalf("healthz counts %+v, want 2 jobs", health.Jobs)
	}
	if _, err := s.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(waitCtx(t), running.ID); err != nil {
		t.Fatal(err)
	}
}

// TestStatusProgressAdvances polls a running campaign's status and
// asserts the rounds counter moves while the state is running — the
// progress surface SSE and the CLI poll.
func TestStatusProgressAdvances(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, CheckpointEvery: 5_000})
	cfg := testCampaign(50_000_000, 0)
	st, _, err := s.Submit(Spec{Kind: KindCampaign, Campaign: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Minute)
	var seen Status
	for time.Now().Before(deadline) {
		seen, _ = s.StatusOf(st.ID)
		if seen.Rounds > 0 && seen.CheckpointRounds > 0 && seen.State == StateRunning {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if seen.Rounds == 0 || seen.CheckpointRounds == 0 {
		t.Fatalf("no progress observed: %+v", seen)
	}
	if _, err := s.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(waitCtx(t), st.ID); err != nil {
		t.Fatal(err)
	}
}

func TestSweepGridChaos(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	spec := Spec{Kind: KindSweep, Sweep: &SweepSpec{Grid: "chaos", Seed: 1, Count: 30}}
	st, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Wait(waitCtx(t), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != StateDone || res.Rounds != 30 {
		t.Fatalf("chaos sweep result %+v (%s)", res, res.Error)
	}
	if !strings.Contains(res.Transcript, "gen: seed=1 specs=30 findings=0") {
		t.Fatalf("chaos transcript:\n%s", res.Transcript)
	}
}

func TestSweepGridChaosValidation(t *testing.T) {
	bad := Spec{Kind: KindSweep, Sweep: &SweepSpec{Grid: "chaos"}}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "Count") {
		t.Fatalf("countless chaos sweep accepted: %v", err)
	}
}
