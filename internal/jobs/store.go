// The on-disk job store: one directory per job, every file written by
// atomic rename, state derived from which files exist.
//
// Layout, under the store root:
//
//	jobs/<id>/spec.json          the submission (plus its sequence number)
//	jobs/<id>/checkpoint.aftckpt the campaign's latest snapshot (campaigns only)
//	jobs/<id>/result.json        the terminal record (done/failed/cancelled)
//
// The files double as the state machine: spec without result is an
// in-flight job (checkpointed if the snapshot file decodes, queued
// otherwise), spec with result is terminal. There is deliberately no
// separate status file to keep in sync — a crash can therefore never
// leave the store self-contradictory, only slightly stale, and staleness
// costs at most CheckpointEvery rounds of recomputation.

package jobs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"aft/internal/checkpoint"
)

// storedSpec is the on-disk form of a submission: the spec plus the
// server-assigned sequence number that preserves submission order
// across restarts.
type storedSpec struct {
	Seq  int64 `json:"seq"`
	Spec Spec  `json:"spec"`
}

// store is the on-disk layout rooted at dir.
type store struct {
	dir string
}

// openStore creates the layout directories.
func openStore(dir string) (*store, error) {
	if dir == "" {
		return nil, fmt.Errorf("jobs: empty store directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		return nil, err
	}
	return &store{dir: dir}, nil
}

// jobDir is the directory of one job.
func (st *store) jobDir(id string) string { return filepath.Join(st.dir, "jobs", id) }

// specPath, checkpointPath, and resultPath name a job's three files.
func (st *store) specPath(id string) string { return filepath.Join(st.jobDir(id), "spec.json") }

// checkpointPath names the campaign snapshot file.
func (st *store) checkpointPath(id string) string {
	return filepath.Join(st.jobDir(id), "checkpoint.aftckpt")
}

// resultPath names the terminal record file.
func (st *store) resultPath(id string) string { return filepath.Join(st.jobDir(id), "result.json") }

// writeSpec persists a new job's submission record.
// checkpoint.WriteFileAtomic supplies the crash-safety discipline
// (create parents, temp file, fsync, rename) for all three job files.
func (st *store) writeSpec(id string, rec storedSpec) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("jobs: encode spec: %w", err)
	}
	return checkpoint.WriteFileAtomic(st.specPath(id), data)
}

// writeResult persists a job's terminal record.
func (st *store) writeResult(id string, res *Result) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return fmt.Errorf("jobs: encode result: %w", err)
	}
	return checkpoint.WriteFileAtomic(st.resultPath(id), data)
}

// readResult loads a job's terminal record, or nil when none exists.
func (st *store) readResult(id string) (*Result, error) {
	data, err := os.ReadFile(st.resultPath(id))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var res Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("jobs: decode result for %s: %w", id, err)
	}
	return &res, nil
}

// readCheckpoint loads and verifies a job's campaign snapshot, or nil
// when none exists. A corrupt or truncated snapshot is reported as
// absent: the checkpoint layer's CRC catches the damage and the job
// safely recomputes from round zero (or from the previous state the
// rename preserved).
func (st *store) readCheckpoint(id string) *checkpoint.Snapshot {
	snap, err := checkpoint.ReadFile(st.checkpointPath(id))
	if err != nil {
		return nil
	}
	return snap
}

// writeCheckpoint durably replaces a job's campaign snapshot.
func (st *store) writeCheckpoint(id string, snap *checkpoint.Snapshot) error {
	return snap.WriteFile(st.checkpointPath(id))
}

// sweepTemps deletes the temp files a crash left in a job directory: a
// kill between CreateTemp and Rename in checkpoint.WriteFileAtomic skips
// the deferred cleanup. Nothing refers to such a file — its rename never
// happened — and one server owns a store at a time, so no live write
// can own it. Each deletion is returned as a recovery note.
func (st *store) sweepTemps(id string) (notes []string) {
	entries, err := os.ReadDir(st.jobDir(id))
	if err != nil {
		return nil // scan reports the unreadable directory through its spec
	}
	for _, e := range entries {
		if !strings.Contains(e.Name(), ".tmp-") {
			continue
		}
		if err := os.Remove(filepath.Join(st.jobDir(id), e.Name())); err != nil {
			notes = append(notes, fmt.Sprintf("job %s: stale temp file %s: %v", id, e.Name(), err))
			continue
		}
		notes = append(notes, fmt.Sprintf("job %s: removed stale temp file %s left by an interrupted write", id, e.Name()))
	}
	return notes
}

// restoredJob is one job recovered by scan.
type restoredJob struct {
	id     string
	rec    storedSpec
	result *Result // nil for in-flight jobs
}

// scan recovers every job from disk, sorted by submission sequence. A
// job directory whose spec.json is missing or undecodable is skipped
// with an error in the returned list of notes — the server starts
// anyway, because refusing to serve every healthy job over one damaged
// directory would turn a partial fault into a total outage. A job whose
// spec the current Spec.Validate rejects is noted too, and recovers
// terminal: with its stored result if it has one, else failed with the
// reason, so it is never queued.
func (st *store) scan() (jobs []restoredJob, notes []string, err error) {
	entries, err := os.ReadDir(filepath.Join(st.dir, "jobs"))
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		notes = append(notes, st.sweepTemps(id)...)
		data, err := os.ReadFile(st.specPath(id))
		if err != nil {
			notes = append(notes, fmt.Sprintf("job %s: unreadable spec: %v", id, err))
			continue
		}
		var rec storedSpec
		if err := json.Unmarshal(data, &rec); err != nil {
			notes = append(notes, fmt.Sprintf("job %s: corrupt spec: %v", id, err))
			continue
		}
		invalid := rec.Spec.Validate()
		if invalid != nil {
			notes = append(notes, fmt.Sprintf("job %s: invalid spec: %v", id, invalid))
		}
		res, err := st.readResult(id)
		if err != nil {
			// A torn result cannot happen under the atomic-rename rule,
			// but a hand-edited one can; treat the job as in-flight and
			// recompute rather than serving damaged output.
			notes = append(notes, fmt.Sprintf("job %s: %v (re-running)", id, err))
			res = nil
		}
		if invalid != nil && res == nil {
			// A spec accepted before a bound existed is never run, but
			// its client still gets the reason, not a 404.
			res = &Result{ID: id, Kind: rec.Spec.Kind, State: StateFailed, Error: "invalid spec: " + invalid.Error()}
		}
		jobs = append(jobs, restoredJob{id: id, rec: rec, result: res})
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].rec.Seq < jobs[j].rec.Seq })
	return jobs, notes, nil
}
