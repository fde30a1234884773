// Command aft-serve is the durable experiment job server: a long-running
// HTTP/JSON daemon (internal/jobs) that accepts Fig. 6/7 campaigns,
// E8/E9/E10 sweep grids, and chaos scenarios, and survives being killed
// at any instant — running campaigns checkpoint every -checkpoint-every
// rounds through internal/checkpoint, so a restarted server resumes them
// from the last snapshot and renders final transcripts byte-identical to
// an uninterrupted run.
//
// Jobs run on lease holders. By default the server starts -workers
// in-process holders; they lease, heartbeat, upload checkpoints and
// complete through the same protocol methods the /v1 endpoints below
// serve to aft-worker processes, so a job takes one code path whichever
// kind of holder runs it. With -coordinator the server starts none and
// jobs run only on aft-worker processes; without it, remote workers may
// still lease alongside the in-process holders.
//
// Endpoints (see API.md for schemas and a crash-recovery walkthrough):
//
//	POST /jobs               submit a job (content-addressed; duplicates dedup)
//	GET  /jobs               list all jobs
//	GET  /jobs/{id}          job status and progress
//	GET  /jobs/{id}/result   terminal result (transcript + summary)
//	POST /jobs/{id}/cancel   cancel (running campaigns checkpoint first)
//	GET  /jobs/{id}/events   progress as Server-Sent Events
//	GET  /metricz            text metrics exposition
//	GET  /healthz            liveness, lifecycle phase, job-state counts
//
// Lease protocol for aft-worker processes (fenced leases make every
// write safe against dead holders' delayed packets):
//
//	POST /v1/lease                 lease the next runnable job
//	POST /v1/jobs/{id}/renew       heartbeat (and learn of cancellation)
//	PUT  /v1/jobs/{id}/checkpoint  stream a campaign snapshot back
//	POST /v1/jobs/{id}/complete    hand in a terminal result
//	GET  /v1/workers               lease-holder registry (in-process ones too)
//
// On SIGINT/SIGTERM the server shuts down gracefully: every running
// campaign's next checkpoint upload parks it, and the next aft-serve on
// the same -store directory resumes it. Deployment guidance (ports,
// store layout, worker sizing, crash-recovery semantics, and serving
// under load — priorities, fair queuing, rate limits) lives in
// OPERATIONS.md.
//
// Usage:
//
//	aft-serve [-addr HOST:PORT] [-store DIR] [-workers N]
//	          [-checkpoint-every ROUNDS] [-scheduler fair|fifo]
//	          [-rate-limit RPS] [-rate-burst N] [-max-queued N]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"aft/internal/cli"
	"aft/internal/jobs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the testable entry point. It blocks until the listener fails
// or a termination signal arrives, then shuts down gracefully
// (checkpointing every running campaign) before returning.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("aft-serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8606", "listen address (use port 0 for an ephemeral port)")
	store := fs.String("store", "aft-store", "job-store directory (created if absent)")
	workers := fs.Int("workers", 0, "in-process lease holders running jobs (0 = one per CPU)")
	ckptEvery := fs.Int64("checkpoint-every", 0, "campaign snapshot cadence in rounds (0 = 100000)")
	coordinator := fs.Bool("coordinator", false, "pure-coordinator mode: run no in-process holders; jobs execute only on leased aft-worker processes")
	leaseTTL := fs.Duration("lease-ttl", 0, "lease duration between heartbeats, for in-process holders and fleet workers alike (0 = 10s)")
	shardRounds := fs.Int64("shard-rounds", 0, "max campaign rounds per lease; longer campaigns are sharded across the fleet (0 = whole campaign per lease)")
	scheduler := fs.String("scheduler", "", "dispatch discipline: fair (priority + per-client weighted round-robin, the default) or fifo (strict submission order)")
	rateLimit := fs.Float64("rate-limit", 0, "per-client submission rate cap in requests/sec; over-limit submits get 429 with Retry-After (0 = off)")
	rateBurst := fs.Int("rate-burst", 0, "per-client token-bucket burst size when -rate-limit is on (values < 1 become 1)")
	maxQueued := fs.Int("max-queued", 0, "admission queue depth cap: new submissions beyond this many queued jobs get 429 (0 = unlimited)")
	if done, err := cli.Parse(fs, args, stdout); done {
		return err
	}

	srv, err := jobs.NewServer(jobs.Options{
		Dir:              *store,
		Workers:          *workers,
		CheckpointEvery:  *ckptEvery,
		DisableLocalPool: *coordinator,
		LeaseTTL:         *leaseTTL,
		ShardRounds:      *shardRounds,
		Scheduler:        *scheduler,
		RateLimit:        *rateLimit,
		RateBurst:        *rateBurst,
		MaxQueued:        *maxQueued,
	})
	if err != nil {
		return err
	}
	for _, note := range srv.RecoveryNotes() {
		fmt.Fprintf(stdout, "aft-serve: recovery: %s\n", note)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		// Close parks any campaigns the recovery pass resumed; its
		// error matters as much as the listen failure.
		return errors.Join(err, srv.Close())
	}
	// The resolved address line is load-bearing: with port 0 it is how
	// scripts (and the crash-recovery integration test) learn the port.
	fmt.Fprintf(stdout, "aft-serve listening on %s (store %s)\n", ln.Addr(), *store)

	hs := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	select {
	case err := <-errc:
		return errors.Join(err, srv.Close())
	case s := <-sig:
		fmt.Fprintf(stdout, "aft-serve: %v: checkpointing running jobs and shutting down\n", s)
		// Close the job server first: it refuses new submissions (503),
		// ends SSE streams, and parks running campaigns at their next
		// durable checkpoint — so the HTTP drain below has nothing left
		// to pin it to its timeout.
		err := srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		return err
	}
}
