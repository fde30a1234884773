// Tests for the /v1 worker protocol (fleet.go): these drive the wire
// surface by hand — independent of the internal/jobs/worker client —
// so the protocol's contracts (fencing, idempotent redelivery, shard
// chaining, the ready gate) are pinned at the HTTP layer where real
// workers consume them.

package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"aft/internal/checkpoint"
	"aft/internal/experiments"
)

// fleetReq performs one in-process request with explicit body bytes and
// headers (the checkpoint upload needs both).
func fleetReq(t *testing.T, s *Server, method, path string, body []byte, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(string(body)))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// leaseAs asks for work on behalf of the named worker; the int is the
// HTTP status (200 carries a grant, 204 means no work).
func leaseAs(t *testing.T, s *Server, worker string) (Grant, int) {
	t.Helper()
	w := fleetReq(t, s, "POST", "/v1/lease",
		[]byte(`{"worker":"`+worker+`"}`), nil)
	if w.Code != http.StatusOK {
		return Grant{}, w.Code
	}
	return decode[Grant](t, w), w.Code
}

// uploadHeaders builds the credential headers of a checkpoint upload.
func uploadHeaders(worker string, token uint64) map[string]string {
	return map[string]string{
		HeaderWorker: worker,
		HeaderToken:  strconv.FormatUint(token, 10),
	}
}

// uploadSnapshot uploads a campaign's current snapshot under the
// grant's credentials and returns the response.
func uploadSnapshot(t *testing.T, s *Server, g Grant, c *experiments.Campaign) *httptest.ResponseRecorder {
	t.Helper()
	snap, err := c.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return fleetReq(t, s, "PUT", "/v1/jobs/"+g.Job+"/checkpoint",
		snap.Encode(), uploadHeaders(g.Worker, g.Token))
}

// completeAs hands in a terminal result under the grant's credentials.
func completeAs(t *testing.T, s *Server, g Grant, res *Result) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(CompleteRequest{Worker: g.Worker, Token: g.Token, Result: res})
	if err != nil {
		t.Fatal(err)
	}
	return fleetReq(t, s, "POST", "/v1/jobs/"+g.Job+"/complete", body, nil)
}

// grantCampaign materializes the campaign a grant describes, resuming
// from the shipped checkpoint when there is one.
func grantCampaign(t *testing.T, g Grant) (*experiments.Campaign, bool) {
	t.Helper()
	if len(g.Checkpoint) > 0 {
		snap, err := checkpoint.Decode(g.Checkpoint)
		if err != nil {
			t.Fatalf("decode shipped checkpoint: %v", err)
		}
		c, err := experiments.RestoreCampaign(snap)
		if err != nil {
			t.Fatalf("restore shipped checkpoint: %v", err)
		}
		return c, true
	}
	c, err := experiments.NewCampaign(*g.Spec.Campaign)
	if err != nil {
		t.Fatalf("NewCampaign: %v", err)
	}
	return c, false
}

// driveGrant executes one campaign grant the way a faithful worker
// would — run a chunk, upload, repeat — and reports whether the job
// completed (versus a shard handback).
func driveGrant(t *testing.T, s *Server, g Grant) (completed bool) {
	t.Helper()
	c, resumed := grantCampaign(t, g)
	for {
		n := g.CheckpointEvery
		if r := g.RunTo - c.Rounds(); n > r {
			n = r
		}
		if n > 0 {
			c.Run(n)
		}
		if c.Remaining() == 0 {
			w := completeAs(t, s, g, CampaignResult(g.Job, *g.Spec.Campaign, c.Result(), resumed))
			if w.Code != http.StatusOK {
				t.Fatalf("complete: %d %s", w.Code, w.Body)
			}
			return true
		}
		w := uploadSnapshot(t, s, g, c)
		if w.Code != http.StatusOK {
			t.Fatalf("upload at round %d: %d %s", c.Rounds(), w.Code, w.Body)
		}
		if reply := decode[UploadReply](t, w); reply.ShardDone {
			return false
		}
	}
}

// waitLease polls until the named worker obtains a grant (the job may
// still be held by an expiring lease).
func waitLease(t *testing.T, s *Server, worker string) Grant {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		if g, code := leaseAs(t, s, worker); code == http.StatusOK {
			return g
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no lease granted within a minute")
	return Grant{}
}

// TestHealthzRecoveringThenReady holds the startup replay open and
// asserts the lifecycle is observable: /healthz says "recovering" and
// leasing is refused with ErrRecovering until replay finishes, then
// /healthz says "ready" and leasing works.
func TestHealthzRecoveringThenReady(t *testing.T) {
	hold := make(chan struct{})
	s := newTestServer(t, Options{Workers: 1, testHoldRecovery: hold})

	hr := decode[HealthReply](t, do(t, s, "GET", "/healthz", ""))
	if hr.Status != HealthRecovering || hr.OK {
		t.Fatalf("health while recovering = %+v", hr)
	}
	w := fleetReq(t, s, "POST", "/v1/lease", []byte(`{"worker":"early"}`), nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("lease while recovering: %d %s", w.Code, w.Body)
	}
	if got := decode[errorReply](t, w).Error; got != ErrRecovering.Error() {
		t.Fatalf("lease refusal body %q, want %q", got, ErrRecovering.Error())
	}

	close(hold)
	if err := s.WaitReady(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	hr = decode[HealthReply](t, do(t, s, "GET", "/healthz", ""))
	if hr.Status != HealthReady || !hr.OK {
		t.Fatalf("health after replay = %+v", hr)
	}
	if _, code := leaseAs(t, s, "early"); code != http.StatusNoContent {
		t.Fatalf("lease on empty ready queue: %d", code)
	}
}

// TestFleetShardChainByteIdentical runs one campaign as a chain of
// shard leases spread over two hand-driven workers and asserts the
// stitched transcript is byte-identical to an uninterrupted
// single-process run.
func TestFleetShardChainByteIdentical(t *testing.T) {
	s := newTestServer(t, Options{
		DisableLocalPool: true,
		CheckpointEvery:  2_000,
		ShardRounds:      4_000,
		LeaseTTL:         time.Minute,
	})
	cfg := testCampaign(10_000, 500)
	st, _, err := s.Submit(Spec{Kind: KindCampaign, Campaign: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WaitReady(waitCtx(t)); err != nil {
		t.Fatal(err)
	}

	var shards int
	workers := []string{"fleet-a", "fleet-b"}
	for i := 0; ; i++ {
		g := waitLease(t, s, workers[i%len(workers)])
		if g.Job != st.ID || g.Kind != KindCampaign {
			t.Fatalf("grant %+v does not describe job %s", g, st.ID)
		}
		if shards > 0 && (len(g.Checkpoint) == 0 || g.Rounds == 0) {
			t.Fatalf("resumed shard shipped no checkpoint: rounds=%d", g.Rounds)
		}
		if driveGrant(t, s, g) {
			break
		}
		shards++
		if shards > 10 {
			t.Fatal("shard chain did not terminate")
		}
	}
	// 10 000 rounds at 4 000 per shard means at least two handbacks.
	if shards < 2 {
		t.Fatalf("campaign ran in %d shard handbacks, want >= 2", shards)
	}

	res, err := s.Wait(waitCtx(t), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != StateDone {
		t.Fatalf("final state %s: %s", res.State, res.Error)
	}
	if want := uninterrupted(t, cfg); res.Transcript != want {
		t.Fatalf("fleet transcript differs from single-process run\n got %d bytes\nwant %d bytes", len(res.Transcript), len(want))
	}
}

// TestLeaseContentionFencedErrors races two workers for one job —
// exactly one wins — then expires the winner and pins the exact 409
// error texts the loser's late writes receive. The texts are API:
// workers string-match nothing, but operators grep logs for them.
func TestLeaseContentionFencedErrors(t *testing.T) {
	s := newTestServer(t, Options{
		DisableLocalPool: true,
		CheckpointEvery:  1_000,
		LeaseTTL:         50 * time.Millisecond,
	})
	cfg := testCampaign(10_000, 0)
	st, _, err := s.Submit(Spec{Kind: KindCampaign, Campaign: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WaitReady(waitCtx(t)); err != nil {
		t.Fatal(err)
	}

	// Exactly one of two racing workers gets the job.
	gA, code := leaseAs(t, s, "racer-a")
	if code != http.StatusOK {
		t.Fatalf("first lease: %d", code)
	}
	if _, code := leaseAs(t, s, "racer-b"); code != http.StatusNoContent {
		t.Fatalf("second lease while held: %d, want 204", code)
	}

	// racer-a goes silent; its lease expires and racer-b takes over.
	gB := waitLease(t, s, "racer-b")
	if gB.Token != gA.Token+1 {
		t.Fatalf("takeover token %d, want %d", gB.Token, gA.Token+1)
	}

	// A checkpoint racer-a computed before dying.
	cA, _ := grantCampaign(t, gA)
	cA.Run(1_000)

	renewBody := func(worker string, token uint64) []byte {
		b, err := json.Marshal(RenewRequest{Worker: worker, Token: token})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := []struct {
		name string
		do   func() *httptest.ResponseRecorder
		want string
	}{
		{
			name: "stale upload",
			do:   func() *httptest.ResponseRecorder { return uploadSnapshot(t, s, gA, cA) },
			want: fmt.Sprintf("lease: fenced: job %s token %d superseded by token %d", st.ID, gA.Token, gB.Token),
		},
		{
			name: "stale renew",
			do: func() *httptest.ResponseRecorder {
				return fleetReq(t, s, "POST", "/v1/jobs/"+st.ID+"/renew", renewBody("racer-a", gA.Token), nil)
			},
			want: fmt.Sprintf("lease: fenced: job %s token %d superseded by token %d", st.ID, gA.Token, gB.Token),
		},
		{
			name: "stale complete",
			do: func() *httptest.ResponseRecorder {
				return completeAs(t, s, gA, CampaignResult(st.ID, cfg, cA.Result(), false))
			},
			want: fmt.Sprintf("lease: fenced: job %s token %d superseded by token %d", st.ID, gA.Token, gB.Token),
		},
		{
			name: "current token, wrong worker",
			do: func() *httptest.ResponseRecorder {
				g := gA
				g.Token = gB.Token // stolen token, wrong holder
				return uploadSnapshot(t, s, g, cA)
			},
			want: fmt.Sprintf("lease: fenced: job %s token %d held by another worker", st.ID, gB.Token),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := tc.do()
			if w.Code != http.StatusConflict {
				t.Fatalf("status %d %s, want 409", w.Code, w.Body)
			}
			if got := decode[errorReply](t, w).Error; got != tc.want {
				t.Fatalf("fenced body\n got %q\nwant %q", got, tc.want)
			}
		})
	}

	// The winner is untouched by the loser's rejections: its own upload
	// lands and the fence-reject counter moved instead.
	cB, _ := grantCampaign(t, gB)
	cB.Run(1_000)
	if w := uploadSnapshot(t, s, gB, cB); w.Code != http.StatusOK {
		t.Fatalf("winner's upload: %d %s", w.Code, w.Body)
	}
	if got := s.fencedRejects.Value(); got < 4 {
		t.Fatalf("fenced rejects counter = %d, want >= 4", got)
	}
}

// TestExpiredLeaseRequeuesFromCheckpoint kills a worker (by silence)
// after one checkpoint upload and asserts the takeover resumes from
// exactly the uploaded rounds — never from zero — and finishes with a
// byte-identical transcript.
func TestExpiredLeaseRequeuesFromCheckpoint(t *testing.T) {
	s := newTestServer(t, Options{
		DisableLocalPool: true,
		CheckpointEvery:  3_000,
		LeaseTTL:         50 * time.Millisecond,
	})
	cfg := testCampaign(9_000, 0)
	st, _, err := s.Submit(Spec{Kind: KindCampaign, Campaign: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WaitReady(waitCtx(t)); err != nil {
		t.Fatal(err)
	}

	g1 := waitLease(t, s, "doomed")
	c1, _ := grantCampaign(t, g1)
	c1.Run(3_000)
	if w := uploadSnapshot(t, s, g1, c1); w.Code != http.StatusOK {
		t.Fatalf("upload: %d %s", w.Code, w.Body)
	}
	// "doomed" is SIGKILLed here: no release, no renewals.

	g2 := waitLease(t, s, "survivor")
	if g2.Rounds != 3_000 || len(g2.Checkpoint) == 0 {
		t.Fatalf("takeover grant resumes at %d with %d checkpoint bytes, want 3000 rounds",
			g2.Rounds, len(g2.Checkpoint))
	}
	if !driveGrant(t, s, g2) {
		t.Fatal("unsharded grant ended in a shard handback")
	}
	res, err := s.Wait(waitCtx(t), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := uninterrupted(t, cfg); res.Transcript != want {
		t.Fatal("post-takeover transcript differs from single-process run")
	}
	if s.leasesExpired.Value() == 0 {
		t.Fatal("expiry requeue left the expired-lease counter at zero")
	}
}

// TestUploadValidation pins the rejection surface of the checkpoint
// endpoint: missing credentials, undecodable snapshots, snapshots of a
// different campaign, non-campaign jobs, and the idempotent duplicate.
func TestUploadValidation(t *testing.T) {
	s := newTestServer(t, Options{
		DisableLocalPool: true,
		CheckpointEvery:  2_000,
		LeaseTTL:         time.Minute,
	})
	cfg := testCampaign(8_000, 0)
	st, _, err := s.Submit(Spec{Kind: KindCampaign, Campaign: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WaitReady(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	g := waitLease(t, s, "w1")
	c, _ := grantCampaign(t, g)
	c.Run(2_000)

	t.Run("missing headers", func(t *testing.T) {
		w := fleetReq(t, s, "PUT", "/v1/jobs/"+st.ID+"/checkpoint", []byte("x"), nil)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("status %d", w.Code)
		}
	})
	t.Run("garbage snapshot", func(t *testing.T) {
		w := fleetReq(t, s, "PUT", "/v1/jobs/"+st.ID+"/checkpoint",
			[]byte("not a snapshot"), uploadHeaders("w1", g.Token))
		if w.Code != http.StatusBadRequest {
			t.Fatalf("status %d %s", w.Code, w.Body)
		}
	})
	t.Run("wrong campaign", func(t *testing.T) {
		other := testCampaign(4_000, 0)
		oc, err := experiments.NewCampaign(other)
		if err != nil {
			t.Fatal(err)
		}
		oc.Run(1_000)
		snap, err := oc.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		w := fleetReq(t, s, "PUT", "/v1/jobs/"+st.ID+"/checkpoint",
			snap.Encode(), uploadHeaders("w1", g.Token))
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "different campaign") {
			t.Fatalf("status %d %s", w.Code, w.Body)
		}
	})
	t.Run("unknown job", func(t *testing.T) {
		w := fleetReq(t, s, "PUT", "/v1/jobs/feedfacecafebeef/checkpoint",
			[]byte("x"), uploadHeaders("w1", g.Token))
		if w.Code != http.StatusNotFound {
			t.Fatalf("status %d", w.Code)
		}
	})
	t.Run("duplicate is idempotent", func(t *testing.T) {
		first := uploadSnapshot(t, s, g, c)
		if first.Code != http.StatusOK {
			t.Fatalf("first upload: %d %s", first.Code, first.Body)
		}
		writes := s.checkpointsWritten.Value()
		second := uploadSnapshot(t, s, g, c) // the network delivered it twice
		if second.Code != http.StatusOK {
			t.Fatalf("duplicate upload: %d %s", second.Code, second.Body)
		}
		if r := decode[UploadReply](t, second); r.Rounds != 2_000 {
			t.Fatalf("duplicate reply rounds %d", r.Rounds)
		}
		if got := s.checkpointsWritten.Value(); got != writes {
			t.Fatalf("duplicate upload wrote a checkpoint (%d -> %d)", writes, got)
		}
	})
	t.Run("non-campaign job", func(t *testing.T) {
		spec := Spec{Kind: KindScenario, Scenario: &ScenarioSpec{Spec: tinyScenario()}}
		sst, _, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		sg := waitLease(t, s, "w2")
		if sg.Job != sst.ID {
			t.Fatalf("leased %s, want scenario %s", sg.Job, sst.ID)
		}
		w := fleetReq(t, s, "PUT", "/v1/jobs/"+sst.ID+"/checkpoint",
			[]byte("x"), uploadHeaders("w2", sg.Token))
		if w.Code != http.StatusConflict || !strings.Contains(w.Body.String(), "only campaigns checkpoint") {
			t.Fatalf("status %d %s", w.Code, w.Body)
		}
		// Clean completion so Close does not wait on a leased scenario.
		res := ExecuteScenario(sst.ID, spec.Scenario)
		if cw := completeAs(t, s, sg, res); cw.Code != http.StatusOK {
			t.Fatalf("scenario complete: %d %s", cw.Code, cw.Body)
		}
	})
}

// TestFleetBadRequests pins the protocol's rejection codes for
// malformed and misdirected requests.
func TestFleetBadRequests(t *testing.T) {
	s := newTestServer(t, Options{DisableLocalPool: true, LeaseTTL: time.Minute})
	if err := s.WaitReady(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	spec := Spec{Kind: KindScenario, Scenario: &ScenarioSpec{Spec: tinyScenario()}}
	st, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	g := waitLease(t, s, "w1")

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		code   int
	}{
		{"lease bad json", "POST", "/v1/lease", "{", http.StatusBadRequest},
		{"lease no worker", "POST", "/v1/lease", "{}", http.StatusBadRequest},
		{"renew bad json", "POST", "/v1/jobs/" + st.ID + "/renew", "{", http.StatusBadRequest},
		{"renew unknown job", "POST", "/v1/jobs/feedfacecafebeef/renew", `{"worker":"w1","token":1}`, http.StatusNotFound},
		{"complete bad json", "POST", "/v1/jobs/" + st.ID + "/complete", "{", http.StatusBadRequest},
		{"complete no result", "POST", "/v1/jobs/" + st.ID + "/complete", `{"worker":"w1","token":1}`, http.StatusBadRequest},
		{"complete unknown job", "POST", "/v1/jobs/feedfacecafebeef/complete",
			`{"worker":"w1","token":1,"result":{"id":"feedfacecafebeef","kind":"scenario","state":"done"}}`, http.StatusNotFound},
		{"complete mismatched result", "POST", "/v1/jobs/" + st.ID + "/complete",
			`{"worker":"w1","token":` + strconv.FormatUint(g.Token, 10) + `,"result":{"id":"other","kind":"scenario","state":"done"}}`, http.StatusBadRequest},
		{"complete non-terminal result", "POST", "/v1/jobs/" + st.ID + "/complete",
			`{"worker":"w1","token":` + strconv.FormatUint(g.Token, 10) + `,"result":{"id":"` + st.ID + `","kind":"scenario","state":"running"}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := fleetReq(t, s, tc.method, tc.path, []byte(tc.body), nil)
			if w.Code != tc.code {
				t.Fatalf("status %d %s, want %d", w.Code, w.Body, tc.code)
			}
		})
	}

	// A healthy renew still works after all those rejections.
	body, _ := json.Marshal(RenewRequest{Worker: "w1", Token: g.Token})
	w := fleetReq(t, s, "POST", "/v1/jobs/"+st.ID+"/renew", body, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("renew: %d %s", w.Code, w.Body)
	}
	if r := decode[RenewReply](t, w); r.DeadlineUnixMS == 0 || r.Cancelled {
		t.Fatalf("renew reply %+v", r)
	}
	// Leasing is refused once shutdown begins.
	if cw := completeAs(t, s, g, ExecuteScenario(st.ID, spec.Scenario)); cw.Code != http.StatusOK {
		t.Fatalf("complete: %d %s", cw.Code, cw.Body)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lw := fleetReq(t, s, "POST", "/v1/lease", []byte(`{"worker":"w1"}`), nil)
	if lw.Code != http.StatusServiceUnavailable {
		t.Fatalf("lease during shutdown: %d", lw.Code)
	}
}

// TestFleetCancelFinalizesAtUpload cancels a remotely-leased campaign
// and asserts the next checkpoint upload both answers Cancelled and
// finalizes the job durably at exactly the uploaded rounds.
func TestFleetCancelFinalizesAtUpload(t *testing.T) {
	s := newTestServer(t, Options{
		DisableLocalPool: true,
		CheckpointEvery:  2_000,
		LeaseTTL:         time.Minute,
	})
	cfg := testCampaign(50_000, 0)
	st, _, err := s.Submit(Spec{Kind: KindCampaign, Campaign: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WaitReady(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	g := waitLease(t, s, "w1")
	c, _ := grantCampaign(t, g)
	c.Run(2_000)

	if _, err := s.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	w := uploadSnapshot(t, s, g, c)
	if w.Code != http.StatusOK {
		t.Fatalf("upload after cancel: %d %s", w.Code, w.Body)
	}
	if r := decode[UploadReply](t, w); !r.Cancelled || r.Rounds != 2_000 {
		t.Fatalf("upload reply %+v, want cancelled at 2000", r)
	}
	res, err := s.Wait(waitCtx(t), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != StateCancelled || res.Rounds != 2_000 {
		t.Fatalf("final result state=%s rounds=%d", res.State, res.Rounds)
	}
}

// TestRemoteCompleteIdempotentAndRegistry completes a leased job twice
// (duplicate delivery) and checks the fleet registry counts the work
// once and lists workers in order.
func TestRemoteCompleteIdempotentAndRegistry(t *testing.T) {
	s := newTestServer(t, Options{DisableLocalPool: true, LeaseTTL: time.Minute})
	spec := Spec{Kind: KindScenario, Scenario: &ScenarioSpec{Spec: tinyScenario()}}
	st, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WaitReady(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	g := waitLease(t, s, "zeta")
	res := ExecuteScenario(st.ID, spec.Scenario)

	first := completeAs(t, s, g, res)
	if first.Code != http.StatusOK {
		t.Fatalf("complete: %d %s", first.Code, first.Body)
	}
	second := completeAs(t, s, g, res) // the duplicate the network made
	if second.Code != http.StatusOK {
		t.Fatalf("duplicate complete: %d %s", second.Code, second.Body)
	}
	if got := decode[Status](t, second); got.State != StateDone {
		t.Fatalf("duplicate complete reply state %s", got.State)
	}
	if s.remoteCompletions.Value() != 1 {
		t.Fatalf("remote completions = %d, want 1", s.remoteCompletions.Value())
	}

	// A second worker appears in the registry, sorted by name.
	if _, code := leaseAs(t, s, "alpha"); code != http.StatusNoContent {
		t.Fatalf("empty-queue lease: %d", code)
	}
	wr := decode[WorkersReply](t, do(t, s, "GET", "/v1/workers", ""))
	if len(wr.Workers) != 2 || wr.Workers[0].Name != "alpha" || wr.Workers[1].Name != "zeta" {
		t.Fatalf("registry %+v", wr.Workers)
	}
	z := wr.Workers[1]
	if z.Granted != 1 || z.Completed != 1 || z.Active != 0 {
		t.Fatalf("zeta's registry entry %+v", z)
	}
}

// TestLeaseWaitsOnConditionVariable drives the in-process protocol
// method directly: Lease blocks while the queue is empty, returns the
// grant as soon as a job is queued (woken by the submit, not by a
// timer), and returns the context's error once that ends.
func TestLeaseWaitsOnConditionVariable(t *testing.T) {
	s := newTestServer(t, Options{DisableLocalPool: true, LeaseTTL: time.Minute})
	if err := s.WaitReady(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	type leased struct {
		g   Grant
		err error
	}
	got := make(chan leased, 1)
	ctx := waitCtx(t)
	go func() {
		g, err := s.Lease(ctx, "local-test")
		got <- leased{g, err}
	}()
	// The holder registers and starts waiting in one critical section,
	// so once it is in the registry it is parked on the condition
	// variable.
	awaitHolders := func(n int) {
		for len(decode[WorkersReply](t, do(t, s, "GET", "/v1/workers", "")).Workers) < n {
			time.Sleep(time.Millisecond)
		}
	}
	awaitHolders(1)
	spec := Spec{Kind: KindScenario, Scenario: &ScenarioSpec{Spec: tinyScenario()}}
	st, _, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	r := <-got
	if r.err != nil || r.g.Job != st.ID || r.g.Worker != "local-test" {
		t.Fatalf("waiting lease returned %+v, %v; want a grant of %s", r.g, r.err, st.ID)
	}
	if err := s.Complete(ctx, r.g, ExecuteScenario(st.ID, spec.Scenario)); err != nil {
		t.Fatal(err)
	}

	short, cancel := context.WithCancel(ctx)
	go func() {
		g, err := s.Lease(short, "local-test-2")
		got <- leased{g, err}
	}()
	awaitHolders(2) // parked on the condition variable: only ctx can end the wait
	cancel()
	if r := <-got; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("lease after its context ended: %+v, %v; want context.Canceled", r.g, r.err)
	}
}

// TestUploadAfterCloseParks covers graceful shutdown on the protocol:
// once Close has begun, a holder's next checkpoint upload is stored and
// answered with shard_done, and the job parks as checkpointed for the
// next server on the store.
func TestUploadAfterCloseParks(t *testing.T) {
	s := newTestServer(t, Options{DisableLocalPool: true, CheckpointEvery: 2_000, LeaseTTL: time.Minute})
	cfg := testCampaign(10_000, 0)
	st, _, err := s.Submit(Spec{Kind: KindCampaign, Campaign: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WaitReady(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	g := waitLease(t, s, "w1")
	c, _ := grantCampaign(t, g)
	c.Run(2_000)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	w := uploadSnapshot(t, s, g, c)
	if w.Code != http.StatusOK {
		t.Fatalf("upload during shutdown: %d %s", w.Code, w.Body)
	}
	if r := decode[UploadReply](t, w); !r.ShardDone || r.Rounds != 2_000 {
		t.Fatalf("upload reply %+v, want shard_done at 2000", r)
	}
	if got, _ := s.StatusOf(st.ID); got.State != StateCheckpointed || got.CheckpointRounds != 2_000 {
		t.Fatalf("after the parking upload: %+v", got)
	}
	if s.store.readCheckpoint(st.ID) == nil {
		t.Fatal("parked job has no checkpoint on disk")
	}
}
