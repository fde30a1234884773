// The lease protocol: the four verbs — lease, renew, checkpoint,
// complete — through which every job runs. The server's in-process
// holders call the Server's protocol methods (Lease, Renew, Upload,
// Complete) directly; stateless aft-worker processes reach the same
// methods through the /v1 handlers here, which only decode and encode.
// The protocol is designed so that any holder can die at any instant and
// the system converges to the same results a single process would have
// produced:
//
//   - A lease is a fencing-token grant (internal/jobs/lease): the only
//     writes the coordinator accepts for a job are ones carrying the
//     current holder's token, so a holder presumed dead cannot clobber
//     its successor's progress no matter how delayed its packets are.
//   - Checkpoint uploads are verified, not trusted: the coordinator
//     restores the snapshot itself and derives the covered rounds from
//     it, so a corrupt or mislabelled upload is a 400, never a wrong
//     resume point.
//   - Long campaigns are cut into SplitCampaign shard chains: each
//     lease covers one shard, the next shard resumes from the uploaded
//     checkpoint (on whichever holder leases it next), and because
//     shard N+1 starts from shard N's exact state, the stitched
//     transcript is byte-identical to a single-process run.
//   - Duplicate deliveries are idempotent: re-uploading the checkpoint
//     a job already has is a 200 no-op, completing a job that is
//     already terminal is a 200 no-op, and an upload arriving after the
//     lease ended is a 409 the holder treats as "abandon this job".

package jobs

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"aft/internal/checkpoint"
	"aft/internal/experiments"
	"aft/internal/jobs/lease"
)

// ErrRecovering is returned (as a 503 body) to lease requests that
// arrive before the startup checkpoint replay finishes; handing out
// work early could recompute rounds a checkpoint already covers.
var ErrRecovering = errors.New("jobs: server is recovering; not ready to lease")

// Lease-protocol headers: the checkpoint upload carries a raw snapshot
// body, so its credentials travel as headers; the JSON verbs carry them
// in the body.
const (
	// HeaderWorker names the uploading worker on PUT …/checkpoint.
	HeaderWorker = "X-Aft-Worker"
	// HeaderToken carries the fencing token on PUT …/checkpoint.
	HeaderToken = "X-Aft-Lease-Token"
)

// maxCheckpointBody bounds an uploaded snapshot and a completion body,
// so a confused client cannot exhaust memory; a larger body is refused
// with a 413. A campaign snapshot is about 0.7 kB, and sampling adds at
// most about 1.2 kB, since each Fig. 6 series keeps 72 bucket maxima
// however many samples it takes (1 906 bytes for 3 M rounds sampled
// every round).
const maxCheckpointBody = 64 << 20

// LeaseRequest is the body of POST /v1/lease.
type LeaseRequest struct {
	// Worker is the caller's stable name (hostname-pid by convention);
	// it keys the fleet registry and appears in lease-conflict errors.
	Worker string `json:"worker"`
}

// Grant is a lease grant, and the 200 body of POST /v1/lease:
// everything a stateless holder needs to run its slice of the job.
type Grant struct {
	// Job is the content-addressed job ID.
	Job string `json:"job"`
	// Kind echoes the spec kind for dispatch without inspecting Spec.
	Kind Kind `json:"kind"`
	// Spec is the full stored specification.
	Spec Spec `json:"spec"`
	// Worker echoes the caller's name.
	Worker string `json:"worker"`
	// Token is the fencing token; every subsequent write for this job
	// must carry it.
	Token uint64 `json:"token"`
	// LeaseMS is the lease duration in milliseconds; renew at a third
	// of this.
	LeaseMS int64 `json:"lease_ms"`
	// CheckpointEvery is the snapshot cadence in rounds the worker must
	// honour for campaigns.
	CheckpointEvery int64 `json:"checkpoint_every,omitempty"`
	// Rounds is the resume point: rounds already covered by the
	// checkpoint (0 for a fresh campaign).
	Rounds int64 `json:"rounds,omitempty"`
	// RunTo is the absolute round this lease's shard ends at; equal to
	// Total when the lease covers the rest of the campaign. 0 for
	// non-campaign jobs, which are atomic.
	RunTo int64 `json:"run_to,omitempty"`
	// Total is the campaign's configured rounds (0 when unknowable).
	Total int64 `json:"total,omitempty"`
	// Checkpoint is the encoded snapshot to resume from; empty for a
	// fresh start. (JSON base64-encodes it.)
	Checkpoint []byte `json:"checkpoint,omitempty"`
}

// RenewRequest is the body of POST /v1/jobs/{id}/renew.
type RenewRequest struct {
	Worker string `json:"worker"`
	Token  uint64 `json:"token"`
}

// RenewReply is the 200 body of a renew: the new deadline, plus the
// cancellation flag so a heartbeat doubles as the cancel signal.
type RenewReply struct {
	// DeadlineUnixMS is the renewed lease deadline.
	DeadlineUnixMS int64 `json:"deadline_unix_ms"`
	// Cancelled tells the worker to stop at the next checkpoint
	// boundary and upload; the coordinator finalizes from there.
	Cancelled bool `json:"cancelled,omitempty"`
}

// UploadReply is the 200 body of PUT /v1/jobs/{id}/checkpoint.
type UploadReply struct {
	// Rounds is the coordinator's (verified) durable round count after
	// this upload.
	Rounds int64 `json:"rounds"`
	// ShardDone tells the worker to hand the job back here and lease
	// again: its shard ended (the chain's next shard is leased
	// separately), or the coordinator is closing and parked the job.
	ShardDone bool `json:"shard_done,omitempty"`
	// Cancelled tells the worker the job was cancelled and finalized at
	// this checkpoint; drop it.
	Cancelled bool `json:"cancelled,omitempty"`
}

// CompleteRequest is the body of POST /v1/jobs/{id}/complete.
type CompleteRequest struct {
	Worker string `json:"worker"`
	Token  uint64 `json:"token"`
	// Result is the terminal result the worker computed; its ID and
	// Kind must match the job's.
	Result *Result `json:"result"`
}

// WorkerInfo is one lease holder's registry entry, served by
// GET /v1/workers: aft-worker processes under their own names, and the
// server's in-process holders as local-0, local-1, and so on. All fields
// are guarded by the server mutex.
type WorkerInfo struct {
	// Name is the worker's self-reported stable name.
	Name string `json:"name"`
	// Active is the number of leases the worker currently holds.
	Active int64 `json:"active"`
	// Granted counts leases ever granted to this worker.
	Granted int64 `json:"granted"`
	// Expired counts this worker's leases that timed out (the worker
	// died or lost connectivity and the job was requeued).
	Expired int64 `json:"expired"`
	// Completed counts jobs this worker ran to a terminal result.
	Completed int64 `json:"completed"`
	// Uploads counts accepted checkpoint uploads.
	Uploads int64 `json:"uploads"`
	// LastSeenUnixMS is the wall time of the worker's last request.
	LastSeenUnixMS int64 `json:"last_seen_unix_ms"`
}

// WorkersReply is the body of GET /v1/workers.
type WorkersReply struct {
	Workers []WorkerInfo `json:"workers"`
}

// touchWorkerLocked updates (creating if needed) a worker's registry
// entry; the caller holds s.mu.
func (s *Server) touchWorkerLocked(name string) *WorkerInfo {
	w, ok := s.fleetWorkers[name]
	if !ok {
		w = &WorkerInfo{Name: name}
		s.fleetWorkers[name] = w
	}
	w.LastSeenUnixMS = time.Now().UnixMilli()
	return w
}

// shardEnd computes the absolute round the lease starting at the given
// resume point should run to: the end of the SplitCampaign shard
// containing it, or the whole campaign when sharding is off. Shard
// boundaries depend only on the campaign config and Options.ShardRounds
// — never on which worker runs what — which is what keeps the stitched
// transcript byte-identical to a single-process run.
func (s *Server) shardEnd(j *job, rounds int64) int64 {
	cfg := j.spec.Campaign
	if cfg == nil {
		return 0
	}
	if s.opts.ShardRounds <= 0 || cfg.Steps <= s.opts.ShardRounds {
		return cfg.Steps
	}
	n := int((cfg.Steps + s.opts.ShardRounds - 1) / s.opts.ShardRounds)
	shards, err := experiments.SplitCampaign(*cfg, n)
	if err != nil {
		return cfg.Steps
	}
	sh, err := experiments.ShardForRound(shards, rounds)
	if err != nil {
		return cfg.Steps
	}
	return sh.End
}

// handleLease grants the next runnable job to the caller under a fenced
// lease. 204 means no work; 503 means not ready (still recovering) or
// shutting down — both retryable.
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeBody(w, r, maxBody, "bad lease request", &req) {
		return
	}
	if req.Worker == "" {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: "lease request names no worker"})
		return
	}
	g, err := s.grant(r.Context(), req.Worker, false)
	if err == errNoWork {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	respond(w, g, err)
}

// errNoWork is grant's answer to a caller that does not wait when no
// job is runnable.
var errNoWork = errors.New("jobs: no runnable job")

// Lease implements Coordinator for the server's in-process holders: it
// grants the next runnable job, waiting on the server's condition
// variable — never on a poll timer — so a local job starts the moment it
// is queued. It fails once the server closes or ctx ends.
func (s *Server) Lease(ctx context.Context, holder string) (Grant, error) {
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()
	return s.grant(ctx, holder, true)
}

// grant pops the next runnable job and leases it to holder, waiting for
// one when wait is set and answering errNoWork otherwise. Every job any
// holder runs, in process or remote, starts here.
func (s *Server) grant(ctx context.Context, holder string, wait bool) (Grant, error) {
	j, info, err := s.take(ctx, holder, wait)
	if err != nil {
		return Grant{}, err
	}
	l, err := s.leases.Acquire(j.id, holder)
	if err != nil {
		// Unreachable in normal operation (a queued job has no live
		// lease), but a requeue bug must fail closed: put the job back
		// rather than double-granting it.
		s.mu.Lock()
		info.Granted--
		info.Active--
		if !j.state.Terminal() {
			j.state = StateQueued
			s.enqueueLocked(j, true)
		}
		s.mu.Unlock()
		return Grant{}, &StatusError{Code: http.StatusConflict, Msg: err.Error()}
	}
	s.leasesGranted.Inc()

	rounds := j.ckptRounds.Load()
	g := Grant{
		Job:     j.id,
		Kind:    j.spec.Kind,
		Spec:    j.spec,
		Worker:  holder,
		Token:   l.Token,
		LeaseMS: s.opts.LeaseTTL.Milliseconds(),
		Rounds:  rounds,
		Total:   j.total,
	}
	if j.spec.Kind == KindCampaign {
		g.CheckpointEvery = s.opts.CheckpointEvery
		g.RunTo = s.shardEnd(j, rounds)
		j.runTo.Store(g.RunTo)
		if rounds > 0 {
			if snap := s.store.readCheckpoint(j.id); snap != nil {
				// Every resume — after a restart, a shard handback, a
				// graceful park or a lease expiry — is this grant.
				g.Checkpoint = snap.Encode()
				s.resumedJobs.Inc()
			}
		}
	}
	s.publish(j) // running
	return g, nil
}

// take pops the next runnable job for holder and counts the grant in
// the registry, waiting on the condition variable when wait is set.
func (s *Server) take(ctx context.Context, holder string, wait bool) (*job, *WorkerInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		switch {
		case s.closed:
			return nil, nil, &StatusError{Code: http.StatusServiceUnavailable, Msg: ErrShuttingDown.Error()}
		case ctx.Err() != nil:
			return nil, nil, ctx.Err()
		case s.ready:
			info := s.touchWorkerLocked(holder)
			if j := s.popLocked(); j != nil {
				info.Granted++
				info.Active++
				return j, info, nil
			}
			if !wait {
				return nil, nil, errNoWork
			}
		case !wait:
			return nil, nil, &StatusError{Code: http.StatusServiceUnavailable, Msg: ErrRecovering.Error()}
		}
		s.cond.Wait()
	}
}

// handleRenew extends the caller's lease; the reply carries the cancel
// flag so the heartbeat is also the cancellation channel.
func (s *Server) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req RenewRequest
	if !decodeBody(w, r, maxBody, "bad renew request", &req) {
		return
	}
	reply, err := s.Renew(r.Context(), Grant{Job: r.PathValue("id"), Worker: req.Worker, Token: req.Token})
	respond(w, reply, err)
}

// Renew implements Coordinator: it extends the grant's lease and reports
// whether the job has been cancelled.
func (s *Server) Renew(_ context.Context, g Grant) (RenewReply, error) {
	j, err := s.touchJob(g)
	if err != nil {
		return RenewReply{}, err
	}
	l, err := s.leases.Renew(g.Job, g.Worker, g.Token)
	if err != nil {
		return RenewReply{}, s.leaseErr(err)
	}
	return RenewReply{DeadlineUnixMS: l.Deadline.UnixMilli(), Cancelled: j.cancel.Load()}, nil
}

// touchJob looks up the grant's job and marks its holder as seen; an
// unknown job is a 404.
func (s *Server) touchJob(g Grant) (*job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[g.Job]
	if !ok {
		return nil, &StatusError{Code: http.StatusNotFound, Msg: fmt.Sprintf("unknown job %s", g.Job)}
	}
	s.touchWorkerLocked(g.Worker)
	return j, nil
}

// leaseErr maps a lease-table refusal onto the protocol: 409 Conflict
// with the pinned lease error text, counting fenced writes.
func (s *Server) leaseErr(err error) error {
	if lease.IsFenced(err) {
		s.fencedRejects.Inc()
	}
	return &StatusError{Code: http.StatusConflict, Msg: err.Error()}
}

// handleUpload accepts a campaign checkpoint from the current lease
// holder. The body is the raw encoded snapshot; worker identity and
// token travel in headers.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	worker := r.Header.Get(HeaderWorker)
	token, err := strconv.ParseUint(r.Header.Get(HeaderToken), 10, 64)
	if worker == "" || err != nil {
		writeJSON(w, http.StatusBadRequest,
			errorReply{Error: fmt.Sprintf("checkpoint upload needs %s and numeric %s headers", HeaderWorker, HeaderToken)})
		return
	}
	body, ok := readBody(w, r, maxCheckpointBody)
	if !ok {
		return
	}
	reply, err := s.Upload(r.Context(), Grant{Job: r.PathValue("id"), Worker: worker, Token: token}, body)
	respond(w, reply, err)
}

// Upload implements Coordinator: it accepts a campaign checkpoint from
// the job's current lease holder. The snapshot is restored here to
// verify it and derive its round count. Re-uploading the rounds the job
// already has is an idempotent no-op, so duplicated deliveries (and
// retries after a lost response) are harmless. The reply hands the job
// back at a shard boundary, and parks it when the server is closing.
func (s *Server) Upload(_ context.Context, g Grant, snapshot []byte) (UploadReply, error) {
	j, err := s.touchJob(g)
	if err != nil {
		return UploadReply{}, err
	}
	if j.spec.Kind != KindCampaign {
		return UploadReply{}, &StatusError{Code: http.StatusConflict,
			Msg: fmt.Sprintf("job %s is a %s; only campaigns checkpoint", g.Job, j.spec.Kind)}
	}

	// uploadMu makes the fence check and the write it authorizes atomic
	// per job: a delayed stale upload cannot interleave between a newer
	// holder's check and write.
	j.uploadMu.Lock()
	defer j.uploadMu.Unlock()
	if err := s.leases.Check(g.Job, g.Worker, g.Token); err != nil {
		return UploadReply{}, s.leaseErr(err)
	}

	// Trust but verify: restore the snapshot here and derive the round
	// count from the campaign itself rather than any client claim.
	snap, err := checkpoint.Decode(snapshot)
	if err != nil {
		return UploadReply{}, &StatusError{Code: http.StatusBadRequest, Msg: "bad snapshot: " + err.Error()}
	}
	c, err := experiments.RestoreCampaign(snap)
	if err != nil {
		return UploadReply{}, &StatusError{Code: http.StatusBadRequest, Msg: "snapshot does not restore: " + err.Error()}
	}
	if c.Config() != *j.spec.Campaign {
		return UploadReply{}, &StatusError{Code: http.StatusBadRequest,
			Msg: fmt.Sprintf("snapshot describes a different campaign than job %s", g.Job)}
	}
	rounds := c.Rounds()
	cur := j.ckptRounds.Load()
	switch {
	case rounds < cur:
		// A delayed duplicate of an earlier chunk from the same (still
		// live) lease: the newer checkpoint already supersedes it.
		return UploadReply{Rounds: cur}, nil
	case rounds == cur:
		// Exact duplicate delivery: idempotent, but fall through so the
		// handback / cancelled decision is re-sent (the first reply may
		// have been the one the network ate).
	default:
		if err := s.store.writeCheckpoint(g.Job, snap); err != nil {
			return UploadReply{}, &StatusError{Code: http.StatusInternalServerError, Msg: "persist checkpoint: " + err.Error()}
		}
		s.checkpointsWritten.Inc()
		s.roundsRun.Add(rounds - cur)
		j.ckptRounds.Store(rounds)
		j.rounds.Store(rounds)
		s.remoteUploads.Inc()
		s.mu.Lock()
		if wi, ok := s.fleetWorkers[g.Worker]; ok {
			wi.Uploads++
		}
		s.mu.Unlock()
		s.publish(j) // progress: a verified checkpoint landed
		if n := s.opts.testHaltAfter; n > 0 && s.checkpointsWritten.Value() >= n {
			s.halt() // simulated kill -9: every in-process holder stops where it stands
			return UploadReply{}, ErrShuttingDown
		}
	}

	reply := UploadReply{Rounds: j.ckptRounds.Load()}
	switch {
	case j.cancel.Load():
		// Checkpoint-on-cancel: the upload just accepted is the durable
		// stopping point.
		reply.Cancelled = true
		s.releaseLease(g.Job, g.Worker, g.Token)
		s.finalize(j, &Result{
			ID: j.id, Kind: j.spec.Kind, State: StateCancelled,
			Error:  "cancelled by request",
			Rounds: j.ckptRounds.Load(),
		})
	case s.stopping() || (j.runTo.Load() > 0 && rounds >= j.runTo.Load() && rounds < j.total):
		// Shard boundary or graceful shutdown: take the job back and
		// requeue it at this exact state — for the chain's next shard on
		// any holder, or for the next server on this store.
		reply.ShardDone = true
		s.releaseLease(g.Job, g.Worker, g.Token)
		s.mu.Lock()
		if !j.state.Terminal() {
			j.state = StateCheckpointed
			j.runTo.Store(0)
			// Head of its client's queue: a handback continues an
			// in-flight campaign rather than starting a new turn.
			s.enqueueLocked(j, true)
		}
		s.mu.Unlock()
	}
	return reply, nil
}

// releaseLease returns a lease and maintains the worker registry; a
// fenced release (the lease expired while we processed the request) is
// fine — the reaper does the bookkeeping.
func (s *Server) releaseLease(id, worker string, token uint64) {
	if err := s.leases.Release(id, worker, token); err != nil {
		return
	}
	s.mu.Lock()
	if wi, ok := s.fleetWorkers[worker]; ok {
		wi.Active--
	}
	s.mu.Unlock()
}

// handleComplete accepts a terminal result from the current lease
// holder and replies with the job's status.
func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req CompleteRequest
	if !decodeBody(w, r, maxCheckpointBody, "bad complete request", &req) {
		return
	}
	if req.Result == nil {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: "complete request carries no result"})
		return
	}
	err := s.Complete(r.Context(), Grant{Job: id, Worker: req.Worker, Token: req.Token}, req.Result)
	st, _ := s.StatusOf(id)
	respond(w, st, err)
}

// Complete implements Coordinator: it finalizes the job with the
// holder's terminal result, durably, before returning. Completing an
// already-terminal job is an idempotent no-op (the duplicate-delivery
// case).
func (s *Server) Complete(_ context.Context, g Grant, res *Result) error {
	j, err := s.touchJob(g)
	if err != nil {
		return err
	}
	s.mu.Lock()
	terminal := j.state.Terminal()
	s.mu.Unlock()
	if terminal {
		return nil
	}
	if res.ID != g.Job || res.Kind != j.spec.Kind || !res.State.Terminal() {
		return &StatusError{Code: http.StatusBadRequest,
			Msg: fmt.Sprintf("result does not describe job %s reaching a terminal state", g.Job)}
	}
	if err := s.leases.Check(g.Job, g.Worker, g.Token); err != nil {
		return s.leaseErr(err)
	}
	s.releaseLease(g.Job, g.Worker, g.Token)
	if j.spec.Kind == KindCampaign {
		// The rounds after the last checkpoint: uploads counted the rest.
		if n := res.Rounds - j.ckptRounds.Load(); n > 0 {
			s.roundsRun.Add(n)
		}
	}
	s.finalize(j, res)
	s.remoteCompletions.Inc()
	s.mu.Lock()
	if wi, ok := s.fleetWorkers[g.Worker]; ok {
		wi.Completed++
	}
	s.mu.Unlock()
	return nil
}

// handleWorkers lists the fleet registry in name order.
func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	names := make([]string, 0, len(s.fleetWorkers))
	for name := range s.fleetWorkers {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]WorkerInfo, 0, len(names))
	for _, name := range names {
		out = append(out, *s.fleetWorkers[name])
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, WorkersReply{Workers: out})
}
