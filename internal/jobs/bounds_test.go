package jobs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aft/internal/experiments"
)

// organCapReproducer is a campaign spec whose Policy.Max of 2^31+1 once
// made a holder allocate a 17 GB occupancy histogram and die out of
// memory, at submit and again at every restart.
const organCapReproducer = "testdata/organ-cap/max-2147483649.json"

// TestOrganSizeCap pins the organ-size cap at POST /jobs: a campaign at
// the cap is accepted and runs to done, one just under it is accepted,
// and one just over it, like the committed reproducer, is refused with
// the pinned text. A store written before the cap recovers the
// reproducer failed with that text, or serving its stored result.
func TestOrganSizeCap(t *testing.T) {
	reproducer, err := os.ReadFile(organCapReproducer)
	if err != nil {
		t.Fatal(err)
	}
	// withOrgan is the reproducer with its policy band replaced.
	withOrgan := func(min, max int) string {
		return strings.Replace(string(reproducer), `"Min":3,"Max":2147483649`,
			fmt.Sprintf(`"Min":%d,"Max":%d`, min, max), 1)
	}
	s := newTestServer(t, Options{Workers: 1})
	for _, tc := range []struct {
		name, body string
		wantErr    string // empty: accepted and run to done
	}{
		{"at the cap", withOrgan(maxOrganSize, maxOrganSize), ""},
		{"cap-2", withOrgan(3, maxOrganSize-2), ""},
		{"cap+2", withOrgan(3, maxOrganSize+2), "jobs: campaign Policy.Max 257 exceeds the organ-size cap 255"},
		{"reproducer", string(reproducer), "jobs: campaign Policy.Max 2147483649 exceeds the organ-size cap 255"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.wantErr != "" {
				// Validate first, so a regression fails here instead of
				// queuing a job whose holder allocates Max+1 counters.
				var spec Spec
				if err := json.Unmarshal([]byte(tc.body), &spec); err != nil {
					t.Fatal(err)
				}
				if err := spec.Validate(); err == nil || err.Error() != tc.wantErr {
					t.Fatalf("Validate = %v, want %q", err, tc.wantErr)
				}
			}
			w := do(t, s, "POST", "/jobs", tc.body)
			if tc.wantErr != "" {
				var reply errorReply
				if w.Code != http.StatusBadRequest || json.Unmarshal(w.Body.Bytes(), &reply) != nil || reply.Error != tc.wantErr {
					t.Fatalf("POST /jobs = %d %s, want 400 %q", w.Code, w.Body, tc.wantErr)
				}
				return
			}
			var reply SubmitReply
			if w.Code != http.StatusAccepted || json.Unmarshal(w.Body.Bytes(), &reply) != nil {
				t.Fatalf("POST /jobs = %d %s, want 202", w.Code, w.Body)
			}
			res, err := s.Wait(waitCtx(t), reply.ID)
			if err != nil || res.State != StateDone || res.Rounds != 1000 {
				t.Fatalf("job %s: %+v, %v", reply.ID, res, err)
			}
		})
	}
	if n := len(s.List()); n != 2 {
		t.Fatalf("%d jobs stored, want the 2 accepted", n)
	}

	// A store that already holds the reproducer, written before the cap
	// existed: the restart scan notes it and recovers it failed, with
	// the reason, instead of queuing it. The server runs no holders, so
	// a regression cannot run it.
	t.Run("stored reproducer", func(t *testing.T) {
		const id = "35d4a5b3c0e1f2a7"
		s := serveStoredSpec(t, reproducer, id, nil)
		const reason = "invalid spec: jobs: campaign Policy.Max 2147483649 exceeds the organ-size cap 255"
		if notes := s.RecoveryNotes(); len(notes) != 1 || notes[0] != "job "+id+": "+reason {
			t.Fatalf("recovery notes %q, want [%q]", notes, "job "+id+": "+reason)
		}
		if st, ok := s.StatusOf(id); !ok || st.State != StateFailed || st.Error != reason {
			t.Fatalf("stored over-cap job: %+v (found %v), want failed %q", st, ok, reason)
		}
	})
	// One that had already finished before the cap keeps serving its
	// result.
	t.Run("stored reproducer with a result", func(t *testing.T) {
		const id = "35d4a5b3c0e1f2a7"
		done := &Result{ID: id, Kind: KindCampaign, State: StateDone, Rounds: 1000, Transcript: "stored\n"}
		s := serveStoredSpec(t, reproducer, id, done)
		if res, ok := s.ResultOf(id); !ok || res == nil || res.State != StateDone || res.Transcript != done.Transcript {
			t.Fatalf("stored over-cap job with a result: %+v (found %v), want the stored result", res, ok)
		}
	})
}

// serveStoredSpec writes specJSON into a fresh store under id, with res
// as its terminal record when non-nil, the way a server from before the
// spec's bound existed would have, and opens a server on the store that
// runs no holders.
func serveStoredSpec(t *testing.T, specJSON []byte, id string, res *Result) *Server {
	t.Helper()
	var spec Spec
	if err := json.Unmarshal(specJSON, &spec); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := openStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.writeSpec(id, storedSpec{Seq: 1, Spec: spec}); err != nil {
		t.Fatal(err)
	}
	if res != nil {
		if err := st.writeResult(id, res); err != nil {
			t.Fatal(err)
		}
	}
	return newTestServer(t, Options{Dir: dir, DisableLocalPool: true})
}

// sampleCapReproducer is a Fig. 7 campaign sampled every round. Its
// 3 M samples make a snapshot of about 96 MB, past maxCheckpointBody: a
// fleet accepted it, refused every upload past two million samples with
// a 413, and re-granted the job from its last accepted checkpoint
// forever.
const sampleCapReproducer = "testdata/sample-cap/fig7-3000000-sample-every-1.json"

// TestCampaignSampleCap pins the sample cap at POST /jobs: a campaign
// that takes exactly maxCampaignSamples samples is accepted, one that
// takes one more is refused with the pinned text, and so is the
// committed reproducer, which a store written before the cap recovers
// as a failed job. SampleEvery 20 makes the one-past case a single
// round, so the test also pins the rounding up.
func TestCampaignSampleCap(t *testing.T) {
	reproducer, err := os.ReadFile(sampleCapReproducer)
	if err != nil {
		t.Fatal(err)
	}
	// withSampling is the reproducer with its length and period replaced.
	withSampling := func(steps, every int64) string {
		body := strings.Replace(string(reproducer), `"Steps":3000000`, fmt.Sprintf(`"Steps":%d`, steps), 1)
		return strings.Replace(body, `"SampleEvery":1}`, fmt.Sprintf(`"SampleEvery":%d}`, every), 1)
	}
	const every = 20
	pinned := "jobs: campaign takes %d samples (Steps/SampleEvery, rounded up), over the sample cap 2095104"
	// No holders: the accepted campaign stays queued instead of
	// sampling two million rounds.
	s := newTestServer(t, Options{DisableLocalPool: true})
	for _, tc := range []struct {
		name, body string
		wantErr    string // empty: accepted
	}{
		{"at the cap", withSampling(every*maxCampaignSamples, every), ""},
		{"one past the cap", withSampling(every*maxCampaignSamples+1, every), fmt.Sprintf(pinned, maxCampaignSamples+1)},
		{"reproducer", string(reproducer), fmt.Sprintf(pinned, 3_000_000)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var spec Spec
			if err := json.Unmarshal([]byte(tc.body), &spec); err != nil {
				t.Fatal(err)
			}
			if err := spec.Validate(); (err == nil) != (tc.wantErr == "") || (err != nil && err.Error() != tc.wantErr) {
				t.Fatalf("Validate = %v, want %q", err, tc.wantErr)
			}
			w := do(t, s, "POST", "/jobs", tc.body)
			if tc.wantErr == "" {
				if w.Code != http.StatusAccepted {
					t.Fatalf("POST /jobs = %d %s, want 202", w.Code, w.Body)
				}
				return
			}
			var reply errorReply
			if w.Code != http.StatusBadRequest || json.Unmarshal(w.Body.Bytes(), &reply) != nil || reply.Error != tc.wantErr {
				t.Fatalf("POST /jobs = %d %s, want 400 %q", w.Code, w.Body, tc.wantErr)
			}
		})
	}

	// A store that holds the reproducer, accepted before the cap: its
	// client reads the job failed with the pinned text, and a
	// resubmission is refused with the same text.
	t.Run("stored reproducer", func(t *testing.T) {
		const id = "5a3c0e1f2a735d4b"
		s := serveStoredSpec(t, reproducer, id, nil)
		want := "invalid spec: " + fmt.Sprintf(pinned, 3_000_000)
		w := do(t, s, "GET", "/jobs/"+id, "")
		if w.Code != http.StatusOK {
			t.Fatalf("GET /jobs/%s = %d %s, want 200", id, w.Code, w.Body)
		}
		if st := decode[Status](t, w); st.State != StateFailed || st.Error != want {
			t.Fatalf("GET /jobs/%s = %+v, want failed %q", id, st, want)
		}
		var reply errorReply
		if w := do(t, s, "POST", "/jobs", string(reproducer)); w.Code != http.StatusBadRequest ||
			json.Unmarshal(w.Body.Bytes(), &reply) != nil || reply.Error != fmt.Sprintf(pinned, 3_000_000) {
			t.Fatalf("resubmit = %d %s, want 400 %q", w.Code, w.Body, fmt.Sprintf(pinned, 3_000_000))
		}
	})
}

// TestSnapshotAtSampleCapFitsBody measures a campaign at the sample cap
// after 1 000 and 2 000 sampled rounds, extrapolates its snapshot to
// maxCampaignSamples samples, and checks that the upload fits
// maxCheckpointBody. The measured growth per sample must be the
// snapshotBytesPerSample the cap is derived from.
func TestSnapshotAtSampleCapFitsBody(t *testing.T) {
	cfg := experiments.DefaultFig7Config(maxCampaignSamples)
	cfg.SampleEvery = 1
	c, err := experiments.NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	size := func(rounds int64) int64 {
		c.Run(rounds - c.Rounds())
		snap, err := c.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return int64(len(snap.Encode()))
	}
	const n1, n2 = 1000, 2000
	s1, s2 := size(n1), size(n2)
	if per := (s2 - s1) / (n2 - n1); per != snapshotBytesPerSample {
		t.Fatalf("a sample adds %d bytes to a snapshot (%d B at %d samples, %d B at %d), the cap assumes %d",
			per, s1, n1, s2, n2, snapshotBytesPerSample)
	}
	if atCap := s1 + snapshotBytesPerSample*(maxCampaignSamples-n1); atCap > maxCheckpointBody {
		t.Fatalf("a snapshot at the sample cap is %d bytes, over the %d-byte body cap", atCap, maxCheckpointBody)
	}
}

// fill is an endless body of one repeated byte.
type fill byte

// Read implements io.Reader.
func (f fill) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// TestOversizedBodiesAnswer413 sends one byte over the cap to each route
// that reads a request body. Each answers 413 with the pinned text
// naming the cap, and nothing reaches the job table. The body is an
// unclosed JSON string, so a truncated read could only ever have failed
// to decode. The 1 MiB routes are also tried with no declared length,
// which exercises the read-side cap instead of the Content-Length check.
func TestOversizedBodiesAnswer413(t *testing.T) {
	s := newTestServer(t, Options{DisableLocalPool: true})
	const (
		mib = "request body exceeds the 1048576-byte cap"
		ckp = "request body exceeds the 67108864-byte cap"
	)
	for _, tc := range []struct {
		method, path string
		limit        int64
		want         string
	}{
		{"POST", "/jobs", maxBody, mib},
		{"POST", "/v1/lease", maxBody, mib},
		{"POST", "/v1/jobs/0123456789abcdef/renew", maxBody, mib},
		{"PUT", "/v1/jobs/0123456789abcdef/checkpoint", maxCheckpointBody, ckp},
		{"POST", "/v1/jobs/0123456789abcdef/complete", maxCheckpointBody, ckp},
	} {
		for _, declared := range []bool{true, false} {
			if !declared && tc.limit > maxBody {
				continue // streaming 64 MiB adds nothing the 1 MiB routes do not show
			}
			t.Run(fmt.Sprintf("%s %s declared=%v", tc.method, tc.path, declared), func(t *testing.T) {
				body := io.MultiReader(strings.NewReader(`{"worker":"`), io.LimitReader(fill('a'), tc.limit+1-11))
				req := httptest.NewRequest(tc.method, tc.path, body)
				req.ContentLength = -1
				if declared {
					req.ContentLength = tc.limit + 1
				}
				req.Header.Set(HeaderWorker, "w")
				req.Header.Set(HeaderToken, "1")
				w := httptest.NewRecorder()
				s.ServeHTTP(w, req)
				var reply errorReply
				if w.Code != http.StatusRequestEntityTooLarge || json.Unmarshal(w.Body.Bytes(), &reply) != nil || reply.Error != tc.want {
					t.Fatalf("%d %s, want 413 %q", w.Code, w.Body, tc.want)
				}
			})
		}
	}
	if n := len(s.List()); n != 0 {
		t.Fatalf("%d jobs after refused bodies", n)
	}
	if entries, err := os.ReadDir(filepath.Join(s.opts.Dir, "jobs")); err != nil || len(entries) != 0 {
		t.Fatalf("store holds %d job directories (%v)", len(entries), err)
	}
}
