// The lease holder: the one loop that runs jobs. Every job, wherever it
// runs, is leased, heartbeated, executed and handed back through the
// four verbs of the lease protocol (fleet.go). The server's in-process
// holders call the Server's protocol methods directly; aft-worker
// processes reach the same methods over HTTP through
// internal/jobs/worker. So checkpoints, shard handbacks, cancellation,
// graceful parking and resumption each have one code path, and a
// campaign's transcript is byte-identical however and wherever it ran.

package jobs

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"aft/internal/checkpoint"
	"aft/internal/experiments"
)

// Coordinator is the lease protocol as a holder sees it. *Server
// implements it in process; internal/jobs/worker implements it over
// HTTP. A refusal from the coordinator is a *StatusError; any other
// error is the transport's.
type Coordinator interface {
	// Lease blocks until a job is granted to the named holder. An error
	// ends the holder's loop: ctx ended or the coordinator is shutting
	// down.
	Lease(ctx context.Context, holder string) (Grant, error)
	// Renew extends the grant's lease; the reply carries the job's
	// cancel flag.
	Renew(ctx context.Context, g Grant) (RenewReply, error)
	// Upload hands in an encoded campaign snapshot taken under the
	// grant.
	Upload(ctx context.Context, g Grant, snapshot []byte) (UploadReply, error)
	// Complete hands in the grant's terminal result.
	Complete(ctx context.Context, g Grant, res *Result) error
}

// StatusError is a coordinator's refusal of a protocol call: the HTTP
// status the /v1 handlers answer with and the error text of the reply
// body. The Server's protocol methods return it and the worker's HTTP
// client rebuilds it from the reply, so a holder reads one error shape
// on either side of the wire.
type StatusError struct {
	// Code is the HTTP status code.
	Code int
	// Msg is the error text.
	Msg string
}

// Error implements error.
func (e *StatusError) Error() string { return e.Msg }

// HolderStats counts one holder loop's work.
type HolderStats struct {
	// Grants is how many leases the holder received.
	Grants int64
	// Completed is how many jobs it ran to a terminal result.
	Completed int64
	// Shards is how many times it handed a campaign back unfinished: at
	// a shard boundary, or parked because the coordinator was closing.
	Shards int64
	// Uploads is how many checkpoint uploads the coordinator accepted.
	Uploads int64
	// Abandoned is how many leased jobs it walked away from (fenced
	// token or unrecoverable protocol error); the coordinator requeues
	// each from its last checkpoint once the lease expires.
	Abandoned int64
}

// Holder is one lease holder: lease a job, heartbeat at a third of the
// lease TTL, execute it, stream a campaign checkpoint back every
// CheckpointEvery rounds, and hand the job back — complete, at a shard
// boundary, parked, or cancelled. A Holder runs one loop at a time.
type Holder struct {
	// Name keys the coordinator's worker registry and every lease.
	Name string
	// Coordinator is the protocol endpoint.
	Coordinator Coordinator
	// MaxJobs stops Run after that many grants (shard handbacks count);
	// 0 means until Lease fails.
	MaxJobs int
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)

	stats HolderStats
}

// Run executes the loop until Lease fails or MaxJobs grants are
// processed, and reports the work done. When ctx ends the loop stops
// where it stands, like a killed process: no upload, no goodbye.
func (h *Holder) Run(ctx context.Context) HolderStats {
	h.stats = HolderStats{}
	for h.MaxJobs <= 0 || h.stats.Grants < int64(h.MaxJobs) {
		g, err := h.Coordinator.Lease(ctx, h.Name)
		if err != nil {
			break
		}
		h.stats.Grants++
		h.runGrant(ctx, g)
	}
	return h.stats
}

// logf forwards to Logf when set.
func (h *Holder) logf(format string, args ...any) {
	if h.Logf != nil {
		h.Logf(format, args...)
	}
}

// runGrant runs one grant to its conclusion: completion, handback, or
// abandonment.
func (h *Holder) runGrant(ctx context.Context, g Grant) {
	h.logf("leased job %s (%s) token %d rounds %d..%d", g.Job, g.Kind, g.Token, g.Rounds, g.RunTo)
	hb := h.startHeartbeat(ctx, g)
	defer hb.stop()
	switch g.Kind {
	case KindCampaign:
		h.runCampaign(ctx, g, hb)
	case KindSweep:
		h.complete(ctx, g, ExecuteSweep(g.Job, g.Spec.Sweep))
	case KindScenario:
		h.complete(ctx, g, ExecuteScenario(g.Job, g.Spec.Scenario))
	default:
		h.abandon(ctx, g, fmt.Errorf("unknown kind %q", g.Kind))
	}
}

// runCampaign executes one campaign grant in checkpointed chunks: from
// the shipped checkpoint (or round zero) to the grant's RunTo, uploading
// a snapshot after every chunk that leaves work. This is the only
// checkpointed campaign loop in the repository.
func (h *Holder) runCampaign(ctx context.Context, g Grant, hb *heartbeat) {
	cfg := *g.Spec.Campaign
	var c *experiments.Campaign
	resumed := len(g.Checkpoint) > 0
	if resumed {
		snap, err := checkpoint.Decode(g.Checkpoint)
		if err == nil {
			c, err = experiments.RestoreCampaign(snap)
		}
		if err != nil {
			// The coordinator verified this snapshot before storing it,
			// so damage here means the transfer itself went wrong; let
			// the lease lapse and another holder retry.
			h.abandon(ctx, g, fmt.Errorf("restore shipped checkpoint: %v", err))
			return
		}
	} else {
		fresh, err := experiments.NewCampaign(cfg)
		if err != nil {
			h.complete(ctx, g, &Result{ID: g.Job, Kind: g.Kind, State: StateFailed, Error: err.Error()})
			return
		}
		c = fresh
	}
	runTo := g.RunTo
	if runTo <= 0 || runTo > cfg.Steps {
		runTo = cfg.Steps
	}
	every := g.CheckpointEvery
	if every <= 0 {
		every = runTo
	}
	for {
		if ctx.Err() != nil {
			return // killed: no cleanup, by design
		}
		if hb.fenced.Load() {
			h.abandon(ctx, g, errors.New("lease fenced"))
			return
		}
		if hb.cancelled.Load() {
			// Checkpoint-on-cancel: upload the durable stopping point;
			// the coordinator finalizes the job as cancelled from it.
			h.upload(ctx, g, c)
			return
		}
		if n := min(every, runTo-c.Rounds()); n > 0 {
			c.Run(n)
		}
		if c.Remaining() == 0 {
			h.complete(ctx, g, CampaignResult(g.Job, cfg, c.Result(), resumed))
			return
		}
		reply, ok := h.upload(ctx, g, c)
		switch {
		case !ok:
			return // abandoned (fenced or unrecoverable)
		case reply.Cancelled:
			h.logf("job %s cancelled at round %d", g.Job, reply.Rounds)
			return
		case reply.ShardDone:
			h.logf("job %s handed back at round %d", g.Job, reply.Rounds)
			h.stats.Shards++
			return
		}
	}
}

// upload hands the campaign's current snapshot to the coordinator; ok
// is false when the holder abandoned the job instead.
func (h *Holder) upload(ctx context.Context, g Grant, c *experiments.Campaign) (reply UploadReply, ok bool) {
	snap, err := c.Snapshot()
	if err != nil {
		h.abandon(ctx, g, fmt.Errorf("snapshot: %v", err))
		return reply, false
	}
	reply, err = h.Coordinator.Upload(ctx, g, snap.Encode())
	if err != nil {
		h.abandon(ctx, g, fmt.Errorf("upload: %w", err))
		return reply, false
	}
	h.stats.Uploads++
	return reply, true
}

// complete hands in a terminal result.
func (h *Holder) complete(ctx context.Context, g Grant, res *Result) {
	if err := h.Coordinator.Complete(ctx, g, res); err != nil {
		h.abandon(ctx, g, fmt.Errorf("complete: %w", err))
		return
	}
	h.stats.Completed++
	h.logf("job %s complete (%s)", g.Job, res.State)
}

// abandon records why the holder walks away from a leased job; the
// lease expires on its own and the coordinator requeues the job from its
// last checkpoint. A holder whose ctx ended was killed, which is not an
// abandonment.
func (h *Holder) abandon(ctx context.Context, g Grant, err error) {
	if ctx.Err() != nil {
		return
	}
	h.stats.Abandoned++
	h.logf("abandoning job %s: %v", g.Job, err)
}

// heartbeat renews one lease at a third of its TTL and relays the
// coordinator's verdicts (fenced, cancelled) to the execution loop.
type heartbeat struct {
	fenced    atomic.Bool
	cancelled atomic.Bool
	cancel    context.CancelFunc
	done      chan struct{}
}

// stop ends the heartbeat goroutine and waits for it.
func (hb *heartbeat) stop() {
	hb.cancel()
	<-hb.done
}

// startHeartbeat begins renewing the grant's lease in the background.
func (h *Holder) startHeartbeat(ctx context.Context, g Grant) *heartbeat {
	hctx, cancel := context.WithCancel(ctx)
	hb := &heartbeat{cancel: cancel, done: make(chan struct{})}
	interval := time.Duration(g.LeaseMS) * time.Millisecond / 3
	if interval <= 0 {
		interval = time.Second
	}
	go func() {
		defer close(hb.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-hctx.Done():
				return
			case <-tick.C:
			}
			reply, err := h.Coordinator.Renew(hctx, g)
			var se *StatusError
			switch {
			case errors.As(err, &se) && se.Code == http.StatusConflict:
				hb.fenced.Store(true)
				return
			case err == nil && reply.Cancelled:
				hb.cancelled.Store(true)
			}
			// Any other failure is a flaky link or a lost reply: the next
			// tick retries.
		}
	}()
	return hb
}
