// Command aft-worker is a stateless fleet worker for aft-serve: it
// leases jobs from a coordinator over the /v1 lease protocol
// (internal/jobs/worker) and runs them in the same holder loop
// aft-serve's in-process holders run, streaming campaign checkpoints
// back at each lease's configured cadence and handing in terminal
// results.
//
// A worker owns no disk state — every durable byte lives in the
// coordinator's store — so it may be SIGKILLed at any moment: its lease
// expires, the coordinator requeues the job from the last uploaded
// checkpoint, and the dead worker's in-flight writes are rejected by
// their stale fencing token. Run as many workers as you like against
// one coordinator; duplicate submissions, duplicate deliveries, and
// worker churn never change a result byte. See OPERATIONS.md for fleet
// deployment guidance and API.md for the wire protocol.
//
// Usage:
//
//	aft-worker -coordinator URL [-name NAME] [-jobs N] [-poll DUR]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"aft/internal/cli"
	"aft/internal/jobs/worker"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// defaultName builds the conventional worker name, hostname-pid.
func defaultName() string {
	host, err := os.Hostname()
	if err != nil {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

// run is the testable entry point. It blocks until the job quota is
// reached or a termination signal arrives.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("aft-worker", flag.ContinueOnError)
	coord := fs.String("coordinator", "", "coordinator base URL (required), e.g. http://127.0.0.1:8606")
	name := fs.String("name", defaultName(), "stable worker name for the coordinator's registry")
	maxJobs := fs.Int("jobs", 0, "exit after processing this many leases (0 = run until signalled)")
	poll := fs.Duration("poll", 200*time.Millisecond, "sleep between lease attempts when the queue is empty")
	quiet := fs.Bool("quiet", false, "suppress per-job progress lines")
	if done, err := cli.Parse(fs, args, stdout); done {
		return err
	}
	if *coord == "" {
		return fmt.Errorf("aft-worker: -coordinator is required")
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(stdout, "aft-worker %s: %s\n", *name, fmt.Sprintf(format, args...))
	}
	if *quiet {
		logf = nil
	}
	// The banner is load-bearing: the fleet integration test parses it
	// to learn the worker is up before killing it.
	fmt.Fprintf(stdout, "aft-worker %s polling %s\n", *name, *coord)

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	st, err := worker.Run(ctx, worker.Options{
		Coordinator: *coord,
		Name:        *name,
		Poll:        *poll,
		MaxJobs:     *maxJobs,
		Logf:        logf,
	})
	fmt.Fprintf(stdout, "aft-worker %s done: grants=%d completed=%d shards=%d uploads=%d abandoned=%d\n",
		*name, st.Grants, st.Completed, st.Shards, st.Uploads, st.Abandoned)
	return err
}
