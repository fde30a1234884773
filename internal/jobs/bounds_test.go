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
	"time"

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

// sampleCapReproducer is a Fig. 7 campaign sampled every round. When a
// snapshot carried every Fig. 6 sample, its 3 M samples made a snapshot
// of 96 MB, past maxCheckpointBody: a fleet accepted the spec, refused
// every upload past two million samples with a 413, and re-granted the
// job from its last accepted checkpoint forever. A later build capped a
// campaign's samples instead. Now that each series keeps a fixed-size
// state, it is an ordinary spec.
const sampleCapReproducer = "testdata/sample-cap/fig7-3000000-sample-every-1.json"

// TestSampleCapReproducerIsOrdinary: the reproducer is accepted with
// 202, its campaign's snapshot one round before the end is under
// 64 KiB, and a store that holds it recovers it queued, not failed.
func TestSampleCapReproducerIsOrdinary(t *testing.T) {
	reproducer, err := os.ReadFile(sampleCapReproducer)
	if err != nil {
		t.Fatal(err)
	}
	var spec Spec
	if err := json.Unmarshal(reproducer, &spec); err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("Validate = %v", err)
	}
	// No holders: the accepted campaign stays queued.
	s := newTestServer(t, Options{DisableLocalPool: true})
	if w := do(t, s, "POST", "/jobs", string(reproducer)); w.Code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d %s, want 202", w.Code, w.Body)
	}

	// Every engine writes the same snapshot; a kernel lane gets there
	// soonest.
	b, err := experiments.NewBatchCampaign(*spec.Campaign, []uint64{spec.Campaign.Seed})
	if err != nil {
		t.Fatal(err)
	}
	b.Run(b.Remaining() - 1)
	snap, err := b.LaneSnapshot(0)
	if err != nil {
		t.Fatal(err)
	}
	n := len(snap.Encode())
	if n >= 64<<10 {
		t.Fatalf("a snapshot at round %d is %d bytes, want under 64 KiB", b.Rounds(), n)
	}
	t.Logf("a snapshot at round %d is %d bytes", b.Rounds(), n)

	t.Run("stored reproducer", func(t *testing.T) {
		const id = "5a3c0e1f2a735d4b"
		s := serveStoredSpec(t, reproducer, id, nil)
		if notes := s.RecoveryNotes(); len(notes) != 0 {
			t.Fatalf("recovery notes %q, want none", notes)
		}
		if st, ok := s.StatusOf(id); !ok || st.State != StateQueued {
			t.Fatalf("stored reproducer: %+v (found %v), want queued", st, ok)
		}
	})
}

// TestUploadRefusesInfSeriesReproducer uploads the committed forged
// Fig. 6 snapshot (experiments' infSeriesReproducer: a sixth DTOF
// sample of +Inf where five belong) under a live lease on its job. The
// coordinator refuses it with 400 and the decoder's pinned text, so no
// holder is handed a series that crashes its transcript.
func TestUploadRefusesInfSeriesReproducer(t *testing.T) {
	forged, err := os.ReadFile(filepath.Join("..", "experiments", "testdata", "fig6-dtof-inf.aftckpt"))
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{DisableLocalPool: true, LeaseTTL: time.Minute})
	cfg := experiments.DefaultFig6Config()
	st, _, err := s.Submit(Spec{Kind: KindCampaign, Campaign: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WaitReady(waitCtx(t)); err != nil {
		t.Fatal(err)
	}
	g := waitLease(t, s, "w1")
	w := fleetReq(t, s, "PUT", "/v1/jobs/"+st.ID+"/checkpoint", forged, uploadHeaders("w1", g.Token))
	const want = `snapshot does not restore: experiments: series "dtof" holds 6 samples at round 100, want 5`
	var reply errorReply
	if w.Code != http.StatusBadRequest || json.Unmarshal(w.Body.Bytes(), &reply) != nil || reply.Error != want {
		t.Fatalf("upload = %d %s, want 400 %q", w.Code, w.Body, want)
	}
	if got, ok := s.StatusOf(st.ID); !ok || got.CheckpointRounds != 0 {
		t.Fatalf("after the refused upload: %+v (found %v), want no checkpoint", got, ok)
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
