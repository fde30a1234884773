// Tests for the traffic-hardening layer: per-client rate limiting,
// admission depth caps, priority-ordered fleet grants, fair dispatch
// under a burst, list pagination, and the bus-backed SSE fan-out under
// load.

package jobs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"aft/internal/jobs/sched"
	"aft/internal/pubsub"
)

// taggedScenario is a distinct scenario-job spec (seed keys the
// content address) tagged with a client and priority.
func taggedScenario(seed uint64, client, priority string) Spec {
	sc := tinyScenario()
	sc.Seed = seed
	return Spec{Kind: KindScenario, Client: client, Priority: priority, Scenario: &ScenarioSpec{Spec: sc}}
}

// submitJSON renders taggedScenario as a POST /jobs body.
func submitJSON(t *testing.T, seed uint64, client, priority string) string {
	t.Helper()
	b, err := json.Marshal(taggedScenario(seed, client, priority))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// metricValue scrapes one scalar from /metricz (Prometheus format).
func metricValue(t *testing.T, s *Server, name string) float64 {
	t.Helper()
	body := do(t, s, "GET", "/metricz", "").Body.String()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("metric %s value %q: %v", name, rest, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, body)
	return 0
}

// TestRateLimitHandler pins the 429 surface: body and Retry-After,
// per-client bucket isolation, and deterministic refill on a fake
// clock.
func TestRateLimitHandler(t *testing.T) {
	s := newTestServer(t, Options{DisableLocalPool: true, RateLimit: 1, RateBurst: 2})
	now := time.Unix(1000, 0)
	s.limiter = newRateLimiter(1, 2, func() time.Time { return now })

	// Burst of 2 for c1, then the bucket is dry.
	for i := uint64(0); i < 2; i++ {
		if w := do(t, s, "POST", "/jobs", submitJSON(t, 100+i, "c1", "")); w.Code != http.StatusAccepted {
			t.Fatalf("submit %d: code %d body %s", i, w.Code, w.Body.String())
		}
	}
	w := do(t, s, "POST", "/jobs", submitJSON(t, 102, "c1", ""))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-limit submit: code %d, want 429", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After %q, want \"1\"", got)
	}
	if got, want := w.Body.String(), `{"error":"rate limit exceeded for client \"c1\""}`+"\n"; got != want {
		t.Fatalf("429 body %q, want %q", got, want)
	}

	// Per-client isolation: c2's bucket is untouched by c1's burst.
	if w := do(t, s, "POST", "/jobs", submitJSON(t, 103, "c2", "")); w.Code != http.StatusAccepted {
		t.Fatalf("isolated client: code %d body %s", w.Code, w.Body.String())
	}

	// Refill determinism: after exactly one second at 1 token/s, c1 has
	// exactly one token — the next submit passes, the one after fails
	// with a sub-second wait rounded up to Retry-After: 1.
	now = now.Add(time.Second)
	if w := do(t, s, "POST", "/jobs", submitJSON(t, 104, "c1", "")); w.Code != http.StatusAccepted {
		t.Fatalf("post-refill submit: code %d body %s", w.Code, w.Body.String())
	}
	now = now.Add(500 * time.Millisecond)
	w = do(t, s, "POST", "/jobs", submitJSON(t, 105, "c1", ""))
	if w.Code != http.StatusTooManyRequests || w.Header().Get("Retry-After") != "1" {
		t.Fatalf("half-refilled submit: code %d Retry-After %q, want 429 and \"1\"",
			w.Code, w.Header().Get("Retry-After"))
	}

	if v := metricValue(t, s, "aft_rate_limited_total"); v != 2 {
		t.Fatalf("aft_rate_limited_total %v, want 2", v)
	}
}

// TestQueueDepthCap verifies the admission cap rejects new jobs with
// 429 + Retry-After while deduplicated resubmissions still succeed.
func TestQueueDepthCap(t *testing.T) {
	s := newTestServer(t, Options{DisableLocalPool: true, MaxQueued: 2})
	for i := uint64(0); i < 2; i++ {
		if w := do(t, s, "POST", "/jobs", submitJSON(t, 200+i, "", "")); w.Code != http.StatusAccepted {
			t.Fatalf("submit %d: code %d body %s", i, w.Code, w.Body.String())
		}
	}
	w := do(t, s, "POST", "/jobs", submitJSON(t, 202, "", ""))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-cap submit: code %d, want 429", w.Code)
	}
	if got := w.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After %q, want \"1\"", got)
	}
	if got, want := w.Body.String(), `{"error":"jobs: admission queue is full"}`+"\n"; got != want {
		t.Fatalf("429 body %q, want %q", got, want)
	}
	// A resubmission of an existing job is a dedup hit, never a reject.
	if w := do(t, s, "POST", "/jobs", submitJSON(t, 200, "", "")); w.Code != http.StatusOK {
		t.Fatalf("dedup resubmit under full queue: code %d, want 200", w.Code)
	}
	if v := metricValue(t, s, "aft_queue_rejected_total"); v != 1 {
		t.Fatalf("aft_queue_rejected_total %v, want 1", v)
	}
}

// TestLeaseGrantsRespectPriority drives the coordinator's /v1/lease and
// pins the grant order: fleet dispatch goes through the same fair-queue
// scheduler as the local pool, so high-priority jobs lease first and
// remaining classes follow the weighted cycle.
func TestLeaseGrantsRespectPriority(t *testing.T) {
	s := newTestServer(t, Options{DisableLocalPool: true})
	if err := s.WaitReady(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	submit := func(seed uint64, client, priority string) string {
		w := do(t, s, "POST", "/jobs", submitJSON(t, seed, client, priority))
		if w.Code != http.StatusAccepted {
			t.Fatalf("submit: code %d body %s", w.Code, w.Body.String())
		}
		return decode[SubmitReply](t, w).ID
	}
	low := submit(300, "A", "low")
	normal := submit(301, "B", "normal")
	high1 := submit(302, "C", "high")
	high2 := submit(303, "C", "high")

	want := []string{high1, high2, normal, low}
	for i, wantID := range want {
		w := do(t, s, "POST", "/v1/lease", `{"worker":"w1"}`)
		if w.Code != http.StatusOK {
			t.Fatalf("lease %d: code %d body %s", i, w.Code, w.Body.String())
		}
		g := decode[Grant](t, w)
		if g.Job != wantID {
			t.Fatalf("grant %d = %s, want %s (order %v)", i, g.Job, wantID, want)
		}
	}
	if w := do(t, s, "POST", "/v1/lease", `{"worker":"w1"}`); w.Code != http.StatusNoContent {
		t.Fatalf("lease on empty queue: code %d, want 204", w.Code)
	}
}

// TestListPagination covers GET /jobs ?state=/?limit=/?offset=.
func TestListPagination(t *testing.T) {
	s := newTestServer(t, Options{DisableLocalPool: true})
	ids := make([]string, 5)
	for i := range ids {
		w := do(t, s, "POST", "/jobs", submitJSON(t, 400+uint64(i), "", ""))
		if w.Code != http.StatusAccepted {
			t.Fatalf("submit %d: code %d", i, w.Code)
		}
		ids[i] = decode[SubmitReply](t, w).ID
	}

	cases := []struct {
		name      string
		query     string
		wantIDs   []string
		wantTotal int
	}{
		{"all", "", ids, 5},
		{"limit", "?limit=2", ids[:2], 5},
		{"limit and offset", "?limit=2&offset=2", ids[2:4], 5},
		{"offset past end", "?offset=10", nil, 5},
		{"state match", "?state=queued&limit=3", ids[:3], 5},
		{"state without matches", "?state=done", nil, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := do(t, s, "GET", "/jobs"+tc.query, "")
			if w.Code != http.StatusOK {
				t.Fatalf("code %d body %s", w.Code, w.Body.String())
			}
			got := decode[ListReply](t, w)
			if got.Total != tc.wantTotal {
				t.Fatalf("total %d, want %d", got.Total, tc.wantTotal)
			}
			if len(got.Jobs) != len(tc.wantIDs) {
				t.Fatalf("%d jobs, want %d", len(got.Jobs), len(tc.wantIDs))
			}
			for i, st := range got.Jobs {
				if st.ID != tc.wantIDs[i] {
					t.Fatalf("job %d = %s, want %s", i, st.ID, tc.wantIDs[i])
				}
			}
		})
	}

	for _, tc := range []struct {
		name, query, wantErr string
	}{
		{"bad state", "?state=bogus", "unknown state"},
		{"negative limit", "?limit=-1", "bad limit"},
		{"non-numeric offset", "?offset=abc", "bad offset"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := do(t, s, "GET", "/jobs"+tc.query, "")
			if w.Code != http.StatusBadRequest {
				t.Fatalf("code %d, want 400", w.Code)
			}
			if body := w.Body.String(); !strings.Contains(body, tc.wantErr) {
				t.Fatalf("body %q missing %q", body, tc.wantErr)
			}
		})
	}
}

// TestSpecClientPriorityValidation pins the new spec fields' validation
// and their absence from legacy encodings (content-address stability).
func TestSpecClientPriorityValidation(t *testing.T) {
	base := Spec{Kind: KindScenario, Scenario: &ScenarioSpec{Spec: tinyScenario()}}

	bad := base
	bad.Priority = "urgent"
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "unknown priority") {
		t.Fatalf("priority=urgent validated: %v", err)
	}
	bad = base
	bad.Client = strings.Repeat("x", maxClientLen+1)
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "client ID longer") {
		t.Fatalf("oversized client validated: %v", err)
	}

	// Untagged specs must encode without the new keys, so job IDs from
	// before the fields existed are unchanged.
	data, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"client"`) || strings.Contains(string(data), `"priority"`) {
		t.Fatalf("legacy spec encoding grew new keys: %s", data)
	}

	// Tagged specs are distinct jobs: client and priority are hashed.
	tagged := base
	tagged.Client, tagged.Priority = "c1", "high"
	baseID, err := base.ID()
	if err != nil {
		t.Fatal(err)
	}
	taggedID, err := tagged.ID()
	if err != nil {
		t.Fatal(err)
	}
	if baseID == taggedID {
		t.Fatal("tagged and untagged specs share an ID")
	}
}

// TestSchedulerOption pins Options.Scheduler validation.
func TestSchedulerOption(t *testing.T) {
	if _, err := NewServer(Options{Dir: t.TempDir(), Scheduler: "bogus"}); err == nil ||
		!strings.Contains(err.Error(), "unknown scheduler") {
		t.Fatalf("bogus scheduler: %v", err)
	}
	s := newTestServer(t, Options{DisableLocalPool: true, Scheduler: "fifo"})
	if got := s.queue.Mode(); string(got) != "fifo" {
		t.Fatalf("queue mode %q, want fifo", got)
	}
}

// TestSSEFanoutStress subscribes 2000 SSE streams to one campaign plus
// one deliberately wedged bus consumer and asserts the traffic contract:
// the campaign completes (publishers never block on consumers), the
// wedged consumer's missed events are counted in /metricz, and every
// surviving stream ends with a gap-free terminal event.
func TestSSEFanoutStress(t *testing.T) {
	oldQ := eventBusQueue
	eventBusQueue = 1 // make the wedged consumer overflow immediately
	t.Cleanup(func() { eventBusQueue = oldQ })

	s := newTestServer(t, Options{Workers: 2, CheckpointEvery: 2_000})
	cfg := testCampaign(20_000, 0)
	st, _, err := s.Submit(Spec{Kind: KindCampaign, Campaign: &cfg})
	if err != nil {
		t.Fatal(err)
	}

	// The slow consumer: its handler wedges until the test ends, so its
	// 1-slot queue overflows and every later event drops — while the
	// campaign keeps running.
	unwedge := make(chan struct{})
	t.Cleanup(func() { close(unwedge) }) // before s.Close drains the bus
	s.EventBus().Subscribe("jobs/"+st.ID, func(pubsub.Message) { <-unwedge })

	const streams = 2000
	bodies := make([]string, streams)
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := httptest.NewRecorder()
			s.ServeHTTP(w, httptest.NewRequest("GET", "/jobs/"+st.ID+"/events", nil))
			bodies[i] = w.Body.String()
		}(i)
	}

	res, err := s.Wait(waitCtx(t), st.ID)
	if err != nil || res.State != StateDone {
		t.Fatalf("campaign under fan-out: %+v err %v", res, err)
	}
	wg.Wait()

	for i, body := range bodies {
		var last Status
		events := 0
		for _, line := range strings.Split(body, "\n") {
			data, ok := strings.CutPrefix(line, "data: ")
			if !ok {
				continue
			}
			events++
			if err := json.Unmarshal([]byte(data), &last); err != nil {
				t.Fatalf("stream %d bad event %q: %v", i, line, err)
			}
		}
		if events == 0 {
			t.Fatalf("stream %d saw no events", i)
		}
		if !last.State.Terminal() {
			t.Fatalf("stream %d ended in non-terminal state %+v after %d events", i, last, events)
		}
	}

	if v := metricValue(t, s, "aft_sse_dropped_total"); v <= 0 {
		t.Fatalf("aft_sse_dropped_total %v, want > 0 (wedged consumer)", v)
	}
	if v := metricValue(t, s, "aft_events_published_total"); v <= 0 {
		t.Fatalf("aft_events_published_total %v, want > 0", v)
	}
}

// TestQueueWaitHistogramExposed checks the latency histograms appear in
// the Prometheus exposition once jobs flow.
func TestQueueWaitHistogramExposed(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	st, _, err := s.Submit(Spec{Kind: KindScenario, Scenario: &ScenarioSpec{Spec: tinyScenario()}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(waitCtx(t), st.ID); err != nil {
		t.Fatal(err)
	}
	body := do(t, s, "GET", "/metricz", "").Body.String()
	for _, want := range []string{
		"# TYPE aft_queue_wait_seconds histogram",
		`aft_queue_wait_seconds_bucket{le="+Inf"} 1`,
		"aft_queue_wait_seconds_count 1",
		"# TYPE aft_run_latency_seconds histogram",
		"aft_run_latency_seconds_count 1",
		"# TYPE aft_jobs_done_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metricz missing %q:\n%s", want, body)
		}
	}
}

// TestFIFOSchedulerDispatchOrder sanity-checks the baseline mode end to
// end: with Scheduler "fifo", lease grants follow submission order even
// across priorities.
func TestFIFOSchedulerDispatchOrder(t *testing.T) {
	s := newTestServer(t, Options{DisableLocalPool: true, Scheduler: "fifo"})
	if err := s.WaitReady(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	var want []string
	for i, prio := range []string{"low", "high", "normal"} {
		w := do(t, s, "POST", "/jobs", submitJSON(t, 500+uint64(i), fmt.Sprintf("c%d", i), prio))
		if w.Code != http.StatusAccepted {
			t.Fatalf("submit %d: code %d", i, w.Code)
		}
		want = append(want, decode[SubmitReply](t, w).ID)
	}
	for i, wantID := range want {
		g := decode[Grant](t, do(t, s, "POST", "/v1/lease", `{"worker":"w1"}`))
		if g.Job != wantID {
			t.Fatalf("fifo grant %d = %s, want %s", i, g.Job, wantID)
		}
	}
}

// TestFairSchedulerServesTrickleAheadOfBurst pins the fairness the
// scheduler exists for as a dispatch count, not a wall-clock latency:
// 8 clients queue a 200-job burst, priorities cycling high, normal,
// low, and then a ninth client queues one normal-priority job. Under
// fair, that job is granted within the scheduler's starvation bound —
// cycle weight × normal-class clients × depth 1 = 63 grants — so at
// most 62 burst jobs go first; under fifo, the whole burst does.
func TestFairSchedulerServesTrickleAheadOfBurst(t *testing.T) {
	const burst, clients = 200, 8
	cycle := 0
	for _, c := range []sched.Class{sched.ClassHigh, sched.ClassNormal, sched.ClassLow} {
		cycle += sched.Weight(c)
	}
	bound := cycle * (clients + 1)
	priorities := []string{"high", "normal", "low"}
	for _, mode := range []string{"fair", "fifo"} {
		t.Run(mode, func(t *testing.T) {
			// No holders run the jobs, and no lease expires mid-test to
			// requeue a burst job ahead of the trickle job.
			s := newTestServer(t, Options{DisableLocalPool: true, Scheduler: mode, LeaseTTL: time.Hour})
			if err := s.WaitReady(waitCtx(t)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < burst; i++ {
				if _, _, err := s.Submit(taggedScenario(1000+uint64(i), fmt.Sprintf("burst-%d", i%clients), priorities[i%len(priorities)])); err != nil {
					t.Fatal(err)
				}
			}
			trickle, _, err := s.Submit(taggedScenario(1, "trickle", "normal"))
			if err != nil {
				t.Fatal(err)
			}
			ahead := 0
			for {
				g, err := s.Lease(waitCtx(t), "w1")
				if err != nil {
					t.Fatal(err)
				}
				if g.Job == trickle.ID {
					break
				}
				ahead++
			}
			t.Logf("%s: %d burst jobs granted ahead of the trickle job", mode, ahead)
			switch {
			case mode == "fair" && ahead >= bound:
				t.Fatalf("fair: %d burst jobs granted ahead of the trickle job, want fewer than the starvation bound %d", ahead, bound)
			case mode == "fifo" && ahead != burst:
				t.Fatalf("fifo: %d burst jobs granted ahead of the trickle job, want all %d", ahead, burst)
			}
		})
	}
}
