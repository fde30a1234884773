// Durability tests: the PR 4 kill-at-any-round property extended to the
// server path. A campaign killed after any checkpoint and resumed by a
// fresh server on the same store must render a final transcript
// byte-identical to an uninterrupted run.

package jobs

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"aft/internal/checkpoint"
	"aft/internal/experiments"
)

// TestKillAfterAnyCheckpointResumesByteIdentical simulates kill -9 at
// several checkpoint boundaries using the in-process crash hook: the
// worker abandons the job right after a checkpoint lands (no result, no
// cleanup), and a second server on the same store must finish the
// campaign with the exact uninterrupted transcript.
func TestKillAfterAnyCheckpointResumesByteIdentical(t *testing.T) {
	cfg := testCampaign(60_000, 500) // Fig. 6 sampling on, so series must survive too
	expected := uninterrupted(t, cfg)
	spec := Spec{Kind: KindCampaign, Campaign: &cfg}

	// 60 000 rounds at a 9 000-round cadence: checkpoints land at 9k,
	// 18k, ..., 54k. Halting after the 1st, 3rd, and 6th covers the
	// early, middle, and last checkpoint.
	for _, halt := range []int64{1, 3, 6} {
		dir := t.TempDir()
		s1, err := NewServer(Options{Dir: dir, Workers: 1, CheckpointEvery: 9_000, testHaltAfter: halt})
		if err != nil {
			t.Fatal(err)
		}
		st, _, err := s1.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-s1.halted:
		case <-time.After(time.Minute):
			t.Fatalf("halt %d: crash hook never fired", halt)
		}
		s1.Close()

		s2 := newTestServer(t, Options{Dir: dir, Workers: 1, CheckpointEvery: 9_000})
		if _, ok := s2.StatusOf(st.ID); !ok {
			t.Fatalf("halt %d: job lost across restart", halt)
		}
		res, err := s2.Wait(waitCtx(t), st.ID)
		if err != nil {
			t.Fatalf("halt %d: wait: %v", halt, err)
		}
		if res.State != StateDone {
			t.Fatalf("halt %d: state %s (%s)", halt, res.State, res.Error)
		}
		if res.Transcript != expected {
			t.Fatalf("halt %d: resumed transcript differs from uninterrupted run:\n--- got\n%s\n--- want\n%s",
				halt, res.Transcript, expected)
		}
		if s2.resumedJobs.Value() != 1 {
			t.Fatalf("halt %d: resumed %d jobs, want 1", halt, s2.resumedJobs.Value())
		}
	}
}

// TestGracefulCloseParksAndResumes asserts the shutdown path: Close
// checkpoints the running campaign, leaves no result on disk, and the
// next server finishes it byte-identically.
func TestGracefulCloseParksAndResumes(t *testing.T) {
	cfg := testCampaign(400_000, 0)
	expected := uninterrupted(t, cfg)
	dir := t.TempDir()

	s1, err := NewServer(Options{Dir: dir, Workers: 1, CheckpointEvery: 4_000})
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := s1.Submit(Spec{Kind: KindCampaign, Campaign: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	// Let it make some progress, then shut down mid-flight.
	deadline := time.Now().Add(time.Minute)
	for time.Now().Before(deadline) {
		if got, _ := s1.StatusOf(st.ID); got.Rounds > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	s1.Close()

	parked, _ := s1.StatusOf(st.ID)
	if parked.State.Terminal() {
		t.Skipf("campaign finished before shutdown (state %s); nothing to park", parked.State)
	}
	if parked.State != StateCheckpointed {
		t.Fatalf("after Close: state %s, want checkpointed", parked.State)
	}
	if res, err := s1.store.readResult(st.ID); err != nil || res != nil {
		t.Fatalf("parked job has a result on disk: %v %v", res, err)
	}
	if snap := s1.store.readCheckpoint(st.ID); snap == nil {
		t.Fatal("parked job has no checkpoint on disk")
	}

	s2 := newTestServer(t, Options{Dir: dir, Workers: 1, CheckpointEvery: 4_000})
	res, err := s2.Wait(waitCtx(t), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != StateDone || res.Transcript != expected {
		t.Fatalf("resumed after graceful close: state %s, transcript match %v",
			res.State, res.Transcript == expected)
	}
}

// TestMetricsScrapeDuringCampaign hammers the read-only endpoints from
// several goroutines while a campaign runs, under -race in CI: the
// /metricz exposition and status snapshots must be safe against the
// worker's writes.
func TestMetricsScrapeDuringCampaign(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2, CheckpointEvery: 2_000})
	cfg := testCampaign(200_000, 0)
	st, _, err := s.Submit(Spec{Kind: KindCampaign, Campaign: &cfg})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/metricz", "/healthz", "/jobs", "/jobs/" + st.ID} {
					req := httptest.NewRequest("GET", path, nil)
					s.ServeHTTP(httptest.NewRecorder(), req)
				}
			}
		}()
	}

	res, err := s.Wait(waitCtx(t), st.ID)
	close(stop)
	wg.Wait()
	if err != nil || res.State != StateDone {
		t.Fatalf("campaign under scrape load: %+v err %v", res, err)
	}
	metricz := do(t, s, "GET", "/metricz", "").Body.String()
	for _, want := range []string{
		"aft_jobs_done_total 1",
		"aft_rounds_executed_total 200000",
		"aft_checkpoints_written_total",
	} {
		if !strings.Contains(metricz, want) {
			t.Fatalf("metricz missing %q:\n%s", want, metricz)
		}
	}
}

// TestScanSweepsStaleTempFiles recovers the store in
// testdata/stale-temp-files: a queued campaign whose directory still
// holds two torn temp files, from a checkpoint write and a result write
// that kills interrupted before their renames. The scan deletes both,
// with a recovery note each, and the job beside them still runs to the
// uninterrupted transcript.
func TestScanSweepsStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS("testdata/stale-temp-files")); err != nil {
		t.Fatal(err)
	}
	const id = "d843222dca022d6b" // the ID of testCampaign(20_000, 0)
	s := newTestServer(t, Options{Dir: dir, Workers: 1})
	notes := s.RecoveryNotes()
	if len(notes) != 2 {
		t.Fatalf("recovery notes %q, want one per stale temp file", notes)
	}
	for _, n := range notes {
		if !strings.Contains(n, "removed stale temp file") {
			t.Fatalf("recovery note %q", n)
		}
	}
	res, err := s.Wait(waitCtx(t), id)
	if err != nil {
		t.Fatal(err)
	}
	// Look only once the job is done: while it runs, its own atomic
	// writes hold live temp files in the same directory.
	if left, err := filepath.Glob(filepath.Join(s.store.jobDir(id), "*.tmp-*")); err != nil || len(left) != 0 {
		t.Fatalf("temp files left after scan: %v %v", left, err)
	}
	if res.State != StateDone || res.Transcript != uninterrupted(t, testCampaign(20_000, 0)) {
		t.Fatalf("job beside the stale files: state %s (%s), transcript matches %v",
			res.State, res.Error, res.Transcript == uninterrupted(t, testCampaign(20_000, 0)))
	}
}

// TestStoreWithLegacyMemoDirRecovers opens testdata/memo-store, written
// by a server from before sweep cells stopped being memoized: a done e9
// sweep, a done e10 sweep, a queued e10 sweep whose only cell the old
// cache already held, and memo/ with the four cached cells beside jobs/.
// The scan reads only jobs/, so every job keeps its ID, the done jobs
// serve their stored results, the queued one computes the row the cache
// held, and memo/ is left as it was.
func TestStoreWithLegacyMemoDirRecovers(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS("testdata/memo-store")); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{Dir: dir, Workers: 1})
	if notes := s.RecoveryNotes(); len(notes) != 0 {
		t.Fatalf("recovery notes %q", notes)
	}
	results := make(map[string]*Result)
	for _, id := range []string{"8a0ecb1ec27e627b", "4cf1ef85116b2e4d", "a3ff1e9a1986a0ab"} {
		data, err := os.ReadFile(filepath.Join(dir, "jobs", id, "spec.json"))
		if err != nil {
			t.Fatal(err)
		}
		var rec storedSpec
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Fatal(err)
		}
		if got, err := rec.Spec.ID(); err != nil || got != id {
			t.Fatalf("stored spec of %s now hashes to %s (%v)", id, got, err)
		}
		res, err := s.Wait(waitCtx(t), id)
		if err != nil {
			t.Fatal(err)
		}
		// A stored summary is indented; compare it compacted.
		want := ExecuteSweep(id, rec.Spec.Sweep)
		var summary bytes.Buffer
		if res.State != StateDone || res.Transcript != want.Transcript ||
			json.Compact(&summary, res.Summary) != nil || summary.String() != string(want.Summary) {
			t.Fatalf("job %s: %+v, want %+v", id, res, want)
		}
		results[id] = res
	}
	var queued, done []experiments.E10Row
	if json.Unmarshal(results["a3ff1e9a1986a0ab"].Summary, &queued) != nil ||
		json.Unmarshal(results["4cf1ef85116b2e4d"].Summary, &done) != nil ||
		len(queued) != 1 || len(done) != 2 || queued[0] != done[0] {
		t.Fatalf("queued e10 row %+v, want the first row of %+v", queued, done)
	}
	if cells, err := os.ReadDir(filepath.Join(dir, "memo")); err != nil || len(cells) != 4 {
		t.Fatalf("memo/ holds %d entries (%v), want the 4 cells left as they were", len(cells), err)
	}
}

// -update rewrites testdata/fused-store. Workflow:
//
//	go test ./internal/jobs -run TestFusedStoreResumes -update
//
// and review the diff like any other code change. Regenerate only while
// holders still write fused-engine checkpoints: the fixture exists to
// prove that such checkpoints, already on disk, outlive that engine.
var update = flag.Bool("update", false, "rewrite the fused-store fixture")

// fusedStore is a store a server left behind when it was killed
// mid-campaign: a spec and the campaign's last checkpoint, written by
// the fused engine, and no result.
const fusedStore = "testdata/fused-store"

// writeFusedStore runs spec on a server whose holders halt after the
// third 9 000-round checkpoint, as a kill -9 at that instant would, and
// copies the store it leaves into the fixture.
func writeFusedStore(t *testing.T, spec Spec) {
	t.Helper()
	dir := t.TempDir()
	s, err := NewServer(Options{Dir: dir, Workers: 1, CheckpointEvery: 9_000, testHaltAfter: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Submit(spec); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.halted:
	case <-time.After(time.Minute):
		t.Fatal("crash hook never fired")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(fusedStore); err != nil {
		t.Fatal(err)
	}
	if err := os.CopyFS(fusedStore, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
}

// TestFusedStoreResumes opens a copy of testdata/fused-store with
// in-process holders. The job resumes from the fused engine's
// checkpoint and ends done, over every round, with the transcript of
// the uninterrupted run.
func TestFusedStoreResumes(t *testing.T) {
	cfg := testCampaign(60_000, 500)
	spec := Spec{Kind: KindCampaign, Campaign: &cfg}
	id, err := spec.ID()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		writeFusedStore(t, spec)
	}
	snap, err := checkpoint.ReadFile(filepath.Join(fusedStore, "jobs", id, "checkpoint.aftckpt"))
	if err != nil {
		t.Fatalf("fixture checkpoint (run with -update to create): %v", err)
	}
	if engine := string(snap.Section("meta")); engine != "fused" {
		t.Fatalf("fixture checkpoint written by %q, want the fused engine", engine)
	}
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(fusedStore)); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{Dir: dir, Workers: 1, CheckpointEvery: 9_000})
	res, err := s.Wait(waitCtx(t), id)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := experiments.RunAdaptive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := CampaignResult(id, cfg, ref, false)
	if res.State != StateDone || res.Rounds != cfg.Steps || res.Transcript != want.Transcript {
		t.Fatalf("fixture job: state %s (%s), %d of %d rounds, transcript:\n%s\nwant:\n%s",
			res.State, res.Error, res.Rounds, cfg.Steps, res.Transcript, want.Transcript)
	}
	if n := s.resumedJobs.Value(); n != 1 {
		t.Fatalf("resumed %d jobs, want the fixture's 1", n)
	}
}
