// The job server: the on-disk store, the run queue, and the in-process
// lease holders that run jobs through the same protocol as the fleet,
// with graceful, durable shutdown.

package jobs

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"aft/internal/experiments"
	"aft/internal/jobs/lease"
	"aft/internal/jobs/sched"
	"aft/internal/metrics"
	"aft/internal/pubsub"
	"aft/internal/scenario"
)

// Options configures a Server.
type Options struct {
	// Dir is the job-store root (created if absent). Exactly one live
	// server may own a store directory at a time.
	Dir string
	// Workers is how many in-process lease holders run jobs; values
	// <= 0 mean one per CPU (the experiments.Workers convention).
	Workers int
	// CheckpointEvery is the campaign snapshot cadence in voting
	// rounds; values <= 0 select the default of 100 000 rounds. A crash
	// or kill loses at most this many rounds of recomputation per
	// campaign, never any completed job.
	CheckpointEvery int64

	// DisableLocalPool runs the server as a pure coordinator: no
	// in-process holders, so jobs execute only when fleet workers lease
	// them over the /v1 protocol (see fleet.go). The client-facing API
	// is unchanged.
	DisableLocalPool bool
	// LeaseTTL is how long a fleet worker's lease on a job lasts
	// between renewals; values <= 0 select lease.DefaultTTL. Workers
	// heartbeat at a third of this, so it bounds how long a dead
	// worker's job stays stuck before requeueing.
	LeaseTTL time.Duration
	// ShardRounds caps how many campaign rounds a single lease grant
	// covers. A campaign longer than this is cut into a SplitCampaign
	// shard chain: each lease runs one shard from the previous shard's
	// checkpoint and hands the job back, so one large campaign spreads
	// across the fleet while the stitched transcript stays
	// byte-identical to a single-process run. Zero means a lease covers
	// the whole campaign.
	ShardRounds int64

	// Scheduler selects the dispatch discipline for the run queue:
	// "fair" (the default, and the default when empty) is the priority +
	// per-client weighted round-robin of internal/jobs/sched; "fifo" is
	// strict submission order, kept for baseline comparisons.
	Scheduler string
	// RateLimit caps each client's submission rate in requests per
	// second (token bucket, see RateBurst); 0 disables rate limiting.
	// Over-limit submissions get 429 with a Retry-After header.
	RateLimit float64
	// RateBurst is the token-bucket burst size per client; values < 1
	// are raised to 1 when RateLimit is on.
	RateBurst int
	// MaxQueued caps the admission queue depth: submissions of new jobs
	// beyond this many queued-but-not-running jobs get 429 (dedup hits
	// and status reads are unaffected). 0 means unlimited.
	MaxQueued int

	// testHoldRecovery is a test-only gate (settable only from inside
	// the package): when non-nil, the recovery replay goroutine blocks
	// on it before replaying checkpoints and marking the server ready,
	// holding the server observably in the "recovering" health state.
	testHoldRecovery chan struct{}

	// testHaltAfter is a test-only crash simulator (settable only from
	// inside the package): when positive, the upload that lands that
	// many campaign checkpoints (counted server-wide) stops every
	// in-process holder on the spot — no result, no state transition,
	// holders gone — leaving exactly the disk state a kill -9 at that
	// instant leaves. Tests then open a fresh Server on the same store
	// and assert byte-identical recovery.
	testHaltAfter int64
}

// defaultCheckpointEvery is the campaign snapshot cadence when
// Options.CheckpointEvery is unset.
const defaultCheckpointEvery = 100_000

// eventBusQueue is the per-subscriber bounded queue depth of the SSE
// event bus: how many status updates a slow consumer may fall behind
// before updates are dropped for it (terminal events are re-derived on
// stream end, so drops never lose the final state). A variable so the
// fan-out stress test can shrink it.
var eventBusQueue = 64

// job is the in-memory face of one stored job. The state and result
// fields are guarded by the server mutex; progress counters are atomic
// so the HTTP handlers and the /metricz scraper read them without
// touching the holders' locks.
type job struct {
	id   string
	seq  int64
	spec Spec
	// total is the known amount of work (campaign rounds, scenario
	// steps), 0 when unknown up front (sweep grids).
	total int64

	state  State   // guarded by Server.mu
	result *Result // guarded by Server.mu; non-nil exactly in terminal states
	// finalizing (guarded by Server.mu) marks that some goroutine has
	// claimed the terminal transition; it makes finalize exactly-once
	// when, say, two Cancel calls race on a queued job.
	finalizing bool

	cancel     atomic.Bool
	rounds     atomic.Int64 // work completed so far
	ckptRounds atomic.Int64 // rounds covered by the last durable checkpoint

	// runTo is the round the current lease is expected to reach (the
	// shard end granted to its holder); meaningful only while the job
	// is leased.
	runTo atomic.Int64
	// uploadMu serializes checkpoint uploads for this job, so a fence
	// check and the store write it guards are atomic with respect to a
	// competing (newer-leased) uploader.
	uploadMu sync.Mutex

	// submittedAt is when this server process accepted the job (zero
	// for jobs recovered from a previous process — their end-to-end
	// latency is not this process's to claim); enqueuedAt is when the
	// job last entered the run queue. Both guarded by Server.mu.
	submittedAt time.Time
	enqueuedAt  time.Time

	done chan struct{} // closed on terminal state
}

// Status is a point-in-time view of a job, served by GET /jobs/{id}.
type Status struct {
	ID    string `json:"id"`
	Kind  Kind   `json:"kind"`
	State State  `json:"state"`
	// Rounds is the work completed so far; for running campaigns it
	// advances once per checkpoint chunk.
	Rounds int64 `json:"rounds"`
	// TotalRounds is the configured amount of work, 0 when unknown.
	TotalRounds int64 `json:"total_rounds,omitempty"`
	// CheckpointRounds is how many rounds the last durable checkpoint
	// covers: the most a kill right now could rewind this job to.
	CheckpointRounds int64 `json:"checkpoint_rounds,omitempty"`
	// Error explains failed and cancelled states.
	Error string `json:"error,omitempty"`
}

// Server is the durable experiment job server. Construct with
// NewServer, serve it over HTTP (it implements http.Handler), and stop
// it with Close, which checkpoints every running campaign before
// returning. All methods are safe for concurrent use.
type Server struct {
	opts  Options
	store *store
	mux   *http.ServeMux
	reg   *metrics.Registry

	mu     sync.Mutex
	cond   *sync.Cond
	jobs   map[string]*job
	order  []string     // job IDs in submission order
	queue  *sched.Queue // runnable jobs, fair-queued by client and class
	closed bool
	ready  bool // recovery replay finished; holders may lease
	seq    int64
	notes  []string // recovery notes from the startup scan

	// leases is the fenced lease table every running job holds a lease
	// in; fleetWorkers is the registry of every holder name that has
	// ever leased, keyed by name and guarded by mu.
	leases       *lease.Table
	fleetWorkers map[string]*WorkerInfo

	wg sync.WaitGroup

	// limiter is the per-client submission rate limiter; nil when
	// Options.RateLimit is 0.
	limiter *rateLimiter

	// events is the SSE fan-out bus: every job's status transitions are
	// published to "jobs/<id>" with bounded async delivery, so slow SSE
	// consumers drop (with accounting) instead of stalling workers.
	events *pubsub.Bus

	submitted, deduped   metrics.AtomicCounter
	doneJobs, failedJobs metrics.AtomicCounter
	cancelledJobs        metrics.AtomicCounter
	resumedJobs          metrics.AtomicCounter
	checkpointsWritten   metrics.AtomicCounter
	roundsRun            metrics.AtomicCounter

	rateLimited   metrics.AtomicCounter
	queueRejected metrics.AtomicCounter
	sseDropped    metrics.AtomicCounter
	queueWait     *metrics.Histogram
	runLatency    *metrics.Histogram

	leasesGranted, leasesExpired metrics.AtomicCounter
	fencedRejects                metrics.AtomicCounter
	remoteUploads                metrics.AtomicCounter
	remoteCompletions            metrics.AtomicCounter

	// readyCh is closed when recovery replay completes and the server
	// becomes ready.
	readyCh chan struct{}

	// closing is closed when Close begins, so long-lived streams (SSE)
	// observe shutdown without polling.
	closing chan struct{}

	// halted is the in-process holders' context's Done channel, and
	// halt cancels that context: the Options.testHaltAfter crash
	// simulator does so to stop every holder where it stands, and Close
	// once they have stopped.
	halted <-chan struct{}
	halt   context.CancelFunc
}

// NewServer opens (creating if needed) the job store at opts.Dir,
// recovers every stored job — terminal jobs load their results,
// in-flight ones re-enter the queue, campaigns at their last checkpoint
// — and starts opts.Workers in-process lease holders.
func NewServer(opts Options) (*Server, error) {
	st, err := openStore(opts.Dir)
	if err != nil {
		return nil, err
	}
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = defaultCheckpointEvery
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = lease.DefaultTTL
	}
	opts.Workers = experiments.Workers(opts.Workers)
	mode := sched.Mode(opts.Scheduler)
	if mode == "" {
		mode = sched.Fair
	}
	if mode != sched.Fair && mode != sched.FIFO {
		return nil, fmt.Errorf("jobs: unknown scheduler %q (want fair or fifo)", opts.Scheduler)
	}
	s := &Server{
		opts:         opts,
		store:        st,
		reg:          &metrics.Registry{},
		jobs:         make(map[string]*job),
		queue:        sched.New(mode),
		events:       pubsub.New().Async(eventBusQueue),
		fleetWorkers: make(map[string]*WorkerInfo),
		readyCh:      make(chan struct{}),
		closing:      make(chan struct{}),
		queueWait:    metrics.NewHistogram(metrics.DefLatencyBuckets()),
		runLatency:   metrics.NewHistogram(metrics.DefLatencyBuckets()),
	}
	if opts.RateLimit > 0 {
		s.limiter = newRateLimiter(opts.RateLimit, opts.RateBurst, nil)
	}
	s.cond = sync.NewCond(&s.mu)
	s.leases = lease.NewTable(opts.LeaseTTL, nil)
	s.registerMetrics()
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.initHTTP()
	s.wg.Add(2)
	go s.replay()
	go s.reaper()
	// The server owns its holders' lifetime: they stop when Close has
	// parked their jobs, or when halt cancels their context.
	hctx, halt := context.WithCancel(context.Background())
	s.halted, s.halt = hctx.Done(), halt
	if !opts.DisableLocalPool {
		for i := 0; i < opts.Workers; i++ {
			h := &Holder{Name: fmt.Sprintf("local-%d", i), Coordinator: s}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				h.Run(hctx)
			}()
		}
	}
	return s, nil
}

// replay is the asynchronous half of recovery: it verifies each queued
// job's campaign checkpoint by restoring it, parks the job at the rounds
// it covers, and then marks the server ready. Until it finishes,
// /healthz reports "recovering" and no holder, in process or remote, is
// granted work — a holder must never recompute rounds a checkpoint
// already covers.
func (s *Server) replay() {
	defer s.wg.Done()
	defer s.markReady()
	if hold := s.opts.testHoldRecovery; hold != nil {
		select {
		case <-hold:
		case <-s.closing:
			return
		}
	}
	s.mu.Lock()
	var pending []*job
	for _, id := range s.order {
		if j := s.jobs[id]; j.state == StateQueued {
			pending = append(pending, j)
		}
	}
	s.mu.Unlock()
	for _, j := range pending {
		snap := s.store.readCheckpoint(j.id)
		if snap == nil {
			continue
		}
		// Only a checkpoint that actually restores parks the job as
		// checkpointed — and its round counters are loaded so status,
		// cancel and the resuming grant tell the truth. One that decodes
		// but fails the campaign cross-checks is discarded: the grant
		// ships no checkpoint and the job recomputes from round zero
		// rather than failing or lying.
		c, err := experiments.RestoreCampaign(snap)
		s.mu.Lock()
		if err != nil {
			s.notes = append(s.notes,
				fmt.Sprintf("job %s: unusable checkpoint (%v); recomputing from round zero", j.id, err))
		} else if j.state == StateQueued {
			j.state = StateCheckpointed
			j.rounds.Store(c.Rounds())
			j.ckptRounds.Store(c.Rounds())
		}
		s.mu.Unlock()
	}
}

// markReady transitions the server from recovering to ready exactly
// once, waking the in-process holders and unblocking WaitReady.
func (s *Server) markReady() {
	s.mu.Lock()
	if !s.ready {
		s.ready = true
		close(s.readyCh)
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// Ready reports whether recovery replay has finished; until then the
// server accepts submissions and serves status but hands out no work.
func (s *Server) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ready
}

// WaitReady blocks until recovery replay finishes or the context ends.
func (s *Server) WaitReady(ctx context.Context) error {
	select {
	case <-s.readyCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// reaper periodically expires overdue leases and requeues their jobs
// from the last durable checkpoint. The dead holder's token is
// already fenced by the expiry, so a late write from it cannot clobber
// the requeued job's progress.
func (s *Server) reaper() {
	defer s.wg.Done()
	tick := time.NewTicker(s.opts.LeaseTTL / 4)
	defer tick.Stop()
	for {
		select {
		case <-s.closing:
			return
		case <-tick.C:
			s.requeueExpired(s.leases.Expire())
		}
	}
}

// requeueExpired returns each expired lease's job to the queue (or
// finalizes it, if cancellation arrived while the dead worker held it).
func (s *Server) requeueExpired(expired []lease.Lease) {
	for _, l := range expired {
		s.leasesExpired.Inc()
		s.mu.Lock()
		if w, ok := s.fleetWorkers[l.Worker]; ok {
			w.Expired++
			w.Active--
		}
		j, ok := s.jobs[l.Job]
		if !ok || j.state != StateRunning {
			s.mu.Unlock()
			continue
		}
		cancelled := j.cancel.Load()
		if !cancelled {
			if j.ckptRounds.Load() > 0 {
				j.state = StateCheckpointed
			} else {
				j.state = StateQueued
			}
			j.runTo.Store(0)
			// Front of its client's queue: the job already waited its
			// turn once; the dead holder must not cost it another.
			s.enqueueLocked(j, true)
		}
		s.mu.Unlock()
		if cancelled {
			s.finalize(j, &Result{
				ID: j.id, Kind: j.spec.Kind, State: StateCancelled,
				Error:  "cancelled by request",
				Rounds: j.ckptRounds.Load(),
			})
		}
	}
}

// registerMetrics wires the server counters into the registry /metricz
// exposes.
func (s *Server) registerMetrics() {
	s.reg.RegisterCounter("aft_jobs_submitted_total", &s.submitted)
	s.reg.RegisterCounter("aft_jobs_deduped_total", &s.deduped)
	s.reg.RegisterCounter("aft_jobs_done_total", &s.doneJobs)
	s.reg.RegisterCounter("aft_jobs_failed_total", &s.failedJobs)
	s.reg.RegisterCounter("aft_jobs_cancelled_total", &s.cancelledJobs)
	s.reg.RegisterCounter("aft_jobs_resumed_total", &s.resumedJobs)
	s.reg.RegisterCounter("aft_checkpoints_written_total", &s.checkpointsWritten)
	s.reg.RegisterCounter("aft_rounds_executed_total", &s.roundsRun)
	// Every running job holds exactly one lease.
	s.reg.Register("aft_jobs_running", func() int64 { return int64(s.leases.Len()) })
	s.reg.RegisterCounter("aft_leases_granted_total", &s.leasesGranted)
	s.reg.RegisterCounter("aft_leases_expired_total", &s.leasesExpired)
	s.reg.RegisterCounter("aft_fenced_rejects_total", &s.fencedRejects)
	s.reg.RegisterCounter("aft_remote_uploads_total", &s.remoteUploads)
	s.reg.RegisterCounter("aft_remote_completions_total", &s.remoteCompletions)
	s.reg.Register("aft_leases_active", func() int64 { return int64(s.leases.Len()) })
	s.reg.Register("aft_fleet_workers", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.fleetWorkers))
	})
	s.reg.Register("aft_jobs_queued", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(s.queue.Len())
	})

	s.reg.RegisterCounter("aft_rate_limited_total", &s.rateLimited)
	s.reg.RegisterCounter("aft_queue_rejected_total", &s.queueRejected)
	s.reg.RegisterHistogram("aft_queue_wait_seconds", s.queueWait)
	s.reg.RegisterHistogram("aft_run_latency_seconds", s.runLatency)
	// SSE accounting: connection-level drops (a consumer's buffer was
	// full) plus bus-level drops (its bounded async queue overflowed).
	s.reg.RegisterCounterFunc("aft_sse_dropped_total", func() int64 {
		return s.sseDropped.Value() + s.events.Metrics().Dropped.Value()
	})
	s.reg.RegisterCounterFunc("aft_events_published_total", s.events.Metrics().Published.Value)
	s.reg.Register("aft_sse_subscribers", func() int64 {
		return int64(s.events.SubscriberCount())
	})
}

// Metrics returns the registry /metricz renders; callers may register
// additional sources before serving.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// RecoveryNotes reports per-job problems found while scanning the store
// at startup (damaged spec or result files). Healthy jobs are
// unaffected by a damaged neighbour.
func (s *Server) RecoveryNotes() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.notes...)
}

// recover loads the store into memory and re-enqueues in-flight jobs in
// their original submission order.
func (s *Server) recover() error {
	restored, notes, err := s.store.scan()
	if err != nil {
		return err
	}
	s.notes = notes
	for _, r := range restored {
		j := &job{
			id:    r.id,
			seq:   r.rec.Seq,
			spec:  r.rec.Spec,
			total: jobTotal(r.rec.Spec),
			done:  make(chan struct{}),
		}
		if r.rec.Seq >= s.seq {
			s.seq = r.rec.Seq + 1
		}
		if r.result != nil {
			j.state = r.result.State
			j.result = r.result
			j.finalizing = true
			j.rounds.Store(r.result.Rounds)
			close(j.done)
		} else {
			// Checkpoint replay happens asynchronously (see replay), so
			// startup stays fast no matter how many campaigns are
			// parked; the job re-enters the queue immediately but no
			// worker sees it until the server is ready.
			j.state = StateQueued
			s.enqueueLocked(j, false)
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
	}
	return nil
}

// jobTotal reports the configured amount of work, where it is knowable
// up front.
func jobTotal(spec Spec) int64 {
	switch {
	case spec.Campaign != nil:
		return spec.Campaign.Steps
	case spec.Scenario != nil:
		if spec.Scenario.Spec != nil {
			return spec.Scenario.Spec.Horizon
		}
		if builtin, ok := scenario.Builtin(spec.Scenario.Name); ok {
			return builtin.Horizon
		}
	}
	return 0
}

// ErrShuttingDown is returned by Submit once Close has begun; the HTTP
// layer maps it to 503 so clients know to retry against the restarted
// server rather than discard the spec as malformed.
var ErrShuttingDown = errors.New("jobs: server is shutting down")

// ErrQueueFull is returned by Submit when Options.MaxQueued new jobs
// are already waiting; the HTTP layer maps it to 429 with Retry-After.
// Deduplicated resubmissions are never rejected — the job exists.
var ErrQueueFull = errors.New("jobs: admission queue is full")

// enqueueLocked puts a job into the run queue (front requeues it at its
// client's queue head) and wakes a waiting in-process holder. The
// caller holds s.mu — except single-threaded startup (recover), where
// the signal is a no-op.
func (s *Server) enqueueLocked(j *job, front bool) {
	j.enqueuedAt = time.Now()
	it := sched.Item{ID: j.id, Client: j.spec.Client, Class: sched.Class(j.spec.Priority)}
	if front {
		s.queue.PushFront(it)
	} else {
		s.queue.Push(it)
	}
	s.cond.Signal()
}

// publish pushes the job's current status onto the event bus; SSE
// streams for the job receive it with bounded-queue async delivery.
// Must be called without holding s.mu.
func (s *Server) publish(j *job) {
	st, ok := s.StatusOf(j.id)
	if !ok {
		return
	}
	s.events.Publish(pubsub.Message{Topic: "jobs/" + j.id, Payload: st})
}

// EventBus returns the server's status-event bus: every job publishes
// its Status to topic "jobs/<id>" on state transitions and campaign
// progress. Subscribers get bounded async delivery — a slow subscriber
// drops updates (counted in aft_sse_dropped_total) rather than
// stalling workers.
func (s *Server) EventBus() *pubsub.Bus { return s.events }

// Submit registers a job (persisting its spec durably before the
// success reply) and enqueues it. Submitting a spec whose content
// address matches an existing job returns that job's status with
// deduped=true instead of recomputing — whatever state the existing
// job is in.
func (s *Server) Submit(spec Spec) (Status, bool, error) {
	id, err := spec.ID() // validates
	if err != nil {
		return Status{}, false, err
	}
	j := &job{
		id:    id,
		spec:  spec,
		total: jobTotal(spec),
		state: StateQueued,
		done:  make(chan struct{}),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Status{}, false, ErrShuttingDown
	}
	if existing, ok := s.jobs[id]; ok {
		st := s.statusLocked(existing)
		s.mu.Unlock()
		s.deduped.Inc()
		return st, true, nil
	}
	if s.opts.MaxQueued > 0 && s.queue.Len() >= s.opts.MaxQueued {
		s.mu.Unlock()
		s.queueRejected.Inc()
		return Status{}, false, ErrQueueFull
	}
	// Reserve the ID (so concurrent identical submits dedup onto this
	// job) but persist the spec outside the lock — an fsync must not
	// stall status reads and lease grants.
	j.seq = s.seq
	s.seq++
	j.submittedAt = time.Now()
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()

	if err := s.store.writeSpec(id, storedSpec{Seq: j.seq, Spec: spec}); err != nil {
		// The job was already visible (a concurrent identical submit
		// may have deduplicated onto it), so it must not vanish:
		// finalize it as failed — exactly-once, in case a racing
		// Cancel finalized it first — and report the disk problem.
		s.fail(j, fmt.Errorf("persist spec: %w", err))
		return Status{}, false, err
	}

	s.mu.Lock()
	// A concurrent Cancel may have already finalized the reserved job;
	// only a still-queued one enters the run queue.
	if !j.state.Terminal() {
		s.enqueueLocked(j, false)
	}
	st := s.statusLocked(j)
	s.mu.Unlock()
	s.submitted.Inc()
	s.publish(j)
	return st, false, nil
}

// statusLocked snapshots a job; the caller holds s.mu.
func (s *Server) statusLocked(j *job) Status {
	st := Status{
		ID:               j.id,
		Kind:             j.spec.Kind,
		State:            j.state,
		Rounds:           j.rounds.Load(),
		TotalRounds:      j.total,
		CheckpointRounds: j.ckptRounds.Load(),
	}
	if j.result != nil {
		st.Error = j.result.Error
	}
	return st
}

// StatusOf reports a job's current status.
func (s *Server) StatusOf(id string) (Status, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Status{}, false
	}
	return s.statusLocked(j), true
}

// ListPage returns the statuses matching state ("" matches all) in
// submission order, windowed by offset and limit (limit 0 means no
// cap), plus the total match count before windowing — the pagination
// behind GET /jobs?state=&limit=&offset=.
func (s *Server) ListPage(state State, offset, limit int) ([]Status, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	matched := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		j := s.jobs[id]
		if state != "" && j.state != state {
			continue
		}
		matched = append(matched, s.statusLocked(j))
	}
	total := len(matched)
	if offset >= total {
		return []Status{}, total
	}
	matched = matched[offset:]
	if limit > 0 && limit < len(matched) {
		matched = matched[:limit]
	}
	return matched, total
}

// jobByID looks a job up; nil when unknown.
func (s *Server) jobByID(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// List returns every job's status in submission order.
func (s *Server) List() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.statusLocked(s.jobs[id]))
	}
	return out
}

// ResultOf returns a terminal job's result. The boolean reports whether
// the job exists; a nil result for an existing job means it has not
// reached a terminal state yet.
func (s *Server) ResultOf(id string) (*Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return j.result, true
}

// Wait blocks until the job reaches a terminal state or the context
// ends, and returns the terminal result.
func (s *Server) Wait(ctx context.Context, id string) (*Result, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("jobs: unknown job %s", id)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.result, nil
}

// ErrConflict distinguishes "cannot in this state" cancel failures from
// unknown-job failures for the HTTP layer.
type ErrConflict struct{ msg string }

// Error implements error.
func (e ErrConflict) Error() string { return e.msg }

// Cancel requests a job's cancellation. A queued job is cancelled
// immediately and durably; a running campaign's holder learns of it on
// its next renew or upload, and the job is cancelled at that uploaded
// checkpoint (checkpoint-on-cancel), so the work done so far survives
// on disk; a running sweep or scenario only observes the request at
// completion and finishes as done. Cancelling a terminal job returns an
// ErrConflict.
func (s *Server) Cancel(id string) (Status, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Status{}, fmt.Errorf("jobs: unknown job %s", id)
	}
	if j.state.Terminal() {
		st := s.statusLocked(j)
		s.mu.Unlock()
		return st, ErrConflict{msg: fmt.Sprintf("jobs: job %s is already %s", id, j.state)}
	}
	j.cancel.Store(true)
	if j.state == StateQueued || j.state == StateCheckpointed {
		// Remove from the queue and finalize without a holder.
		s.queue.Remove(j.id)
		s.mu.Unlock()
		res := &Result{
			ID: j.id, Kind: j.spec.Kind, State: StateCancelled,
			Error:  "cancelled before running",
			Rounds: j.ckptRounds.Load(),
		}
		if res.Rounds > 0 {
			res.Error = "cancelled while parked at a checkpoint"
		}
		s.finalize(j, res)
	} else {
		s.mu.Unlock()
	}
	st, _ := s.StatusOf(id)
	return st, nil
}

// Close stops the server gracefully: no new jobs are accepted or
// granted, idle in-process holders exit, and every running campaign's
// next checkpoint upload parks it in StateCheckpointed, from which the
// next server on the same store resumes it. Close returns once the
// in-process holders have parked their jobs and stopped.
func (s *Server) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.closing)
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.halt() // the holders are gone; release their context
	// With the holders stopped, no more events are published; Close
	// drains the per-subscriber queues so late SSE readers see what was
	// sent.
	s.events.Close()
	return nil
}

// stopping reports whether Close has been called.
func (s *Server) stopping() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// popLocked removes and returns the scheduler's next runnable job,
// marking it running and recording its queue wait; nil when the queue
// holds none. Every lease grant dispatches through here, so all holders
// share one fairness discipline. The caller holds s.mu.
func (s *Server) popLocked() *job {
	for {
		it, ok := s.queue.Pop()
		if !ok {
			return nil
		}
		j := s.jobs[it.ID]
		if j == nil || j.state.Terminal() { // cancelled while queued
			continue
		}
		if !j.enqueuedAt.IsZero() {
			s.queueWait.Observe(time.Since(j.enqueuedAt).Seconds())
		}
		j.state = StateRunning
		return j
	}
}

// finalize persists and publishes a terminal result. It is
// exactly-once per job: a second caller (two cancels racing, say)
// returns without touching the job.
func (s *Server) finalize(j *job, res *Result) {
	s.mu.Lock()
	if j.finalizing {
		s.mu.Unlock()
		return
	}
	j.finalizing = true
	s.mu.Unlock()
	if err := s.store.writeResult(j.id, res); err != nil {
		// The result could not be made durable; fail the job in memory
		// so the operator sees it, and leave the checkpoint for a
		// retry after the disk problem is fixed.
		res = &Result{ID: j.id, Kind: j.spec.Kind, State: StateFailed,
			Error: fmt.Sprintf("persist result: %v", err), Rounds: res.Rounds}
	}
	s.mu.Lock()
	j.state = res.State
	j.result = res
	submittedAt := j.submittedAt
	s.mu.Unlock()
	j.rounds.Store(res.Rounds)
	switch res.State {
	case StateDone:
		s.doneJobs.Inc()
	case StateFailed:
		s.failedJobs.Inc()
	case StateCancelled:
		s.cancelledJobs.Inc()
	}
	if !submittedAt.IsZero() {
		s.runLatency.Observe(time.Since(submittedAt).Seconds())
	}
	close(j.done)
	s.publish(j)
}

// fail finalizes a job with an error.
func (s *Server) fail(j *job, err error) {
	s.finalize(j, &Result{
		ID: j.id, Kind: j.spec.Kind, State: StateFailed,
		Error: err.Error(), Rounds: j.rounds.Load(),
	})
}
