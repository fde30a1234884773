package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"aft/internal/experiments"
	"aft/internal/jobs"
)

// waitCtx bounds the blocking waits in the fleet test.
func waitCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// decodeJSON decodes and closes a response body.
func decodeJSON(resp *http.Response, v any) error {
	defer func() { _ = resp.Body.Close() }()
	return json.NewDecoder(resp.Body).Decode(v)
}

func TestRunUsage(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-h"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, flag := range []string{"-coordinator", "-name", "-jobs", "-poll"} {
		if !strings.Contains(out.String(), flag) {
			t.Errorf("usage lacks %s", flag)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-no-such-flag"}, &out); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunRequiresCoordinator(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err == nil || !strings.Contains(err.Error(), "-coordinator is required") {
		t.Fatalf("missing -coordinator not rejected: %v", err)
	}
}

// TestHelperProcessWorker is not a test: it is aft-worker's main loop,
// re-invoked as a child process so the fleet test can SIGKILL a real
// worker mid-campaign.
func TestHelperProcessWorker(t *testing.T) {
	if os.Getenv("AFT_WORKER_HELPER") != "1" {
		t.Skip("helper process entry point")
	}
	if err := run(strings.Split(os.Getenv("AFT_WORKER_ARGS"), "\n"), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// workerProc is one child aft-worker process.
type workerProc struct {
	cmd *exec.Cmd
	out *bytes.Buffer
}

// startWorker launches a real aft-worker child and waits for its
// banner.
func startWorker(t *testing.T, args ...string) *workerProc {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestHelperProcessWorker$")
	cmd.Env = append(os.Environ(),
		"AFT_WORKER_HELPER=1",
		"AFT_WORKER_ARGS="+strings.Join(args, "\n"),
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	wp := &workerProc{cmd: cmd, out: &bytes.Buffer{}}
	t.Cleanup(func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})
	banner := make(chan struct{}, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			wp.out.WriteString(line + "\n")
			if strings.HasPrefix(line, "aft-worker ") && strings.Contains(line, " polling ") {
				select {
				case banner <- struct{}{}:
				default:
				}
			}
		}
	}()
	select {
	case <-banner:
	case <-time.After(30 * time.Second):
		t.Fatalf("worker never announced itself; output so far:\n%s", wp.out)
	}
	return wp
}

// waitHolding polls the coordinator's worker registry until the named
// worker holds a lease.
func waitHolding(t *testing.T, coordinator, name string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(coordinator + "/v1/workers")
		if err != nil {
			t.Fatal(err)
		}
		var wr jobs.WorkersReply
		if err := decodeJSON(resp, &wr); err != nil {
			t.Fatal(err)
		}
		for _, w := range wr.Workers {
			if w.Name == name && w.Active >= 1 {
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("worker %s never held a lease", name)
}

// TestWorkerFleetSIGKILL is the real-process half of the distributed
// durability proof: an in-process coordinator hands a sharded campaign
// to two real aft-worker children, one is SIGKILLed after the first
// checkpoint lands, and the survivor finishes the job with a transcript
// byte-identical to an uninterrupted single-process run.
func TestWorkerFleetSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	srv, err := jobs.NewServer(jobs.Options{
		Dir:              t.TempDir(),
		DisableLocalPool: true,
		CheckpointEvery:  100_000,
		ShardRounds:      1_000_000,
		LeaseTTL:         500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv)
	defer hs.Close()

	cfg := experiments.DefaultFig7Config(3_000_000)
	st, _, err := srv.Submit(jobs.Spec{Kind: jobs.KindCampaign, Campaign: &cfg})
	if err != nil {
		t.Fatal(err)
	}

	victim := startWorker(t, "-coordinator", hs.URL, "-name", "victim", "-quiet")
	// A shard chain has one lease at a time. Start the survivor only
	// once the victim holds it, or the survivor could take it first and
	// leave the victim no lease to lose.
	waitHolding(t, hs.URL, "victim")
	startWorker(t, "-coordinator", hs.URL, "-name", "survivor", "-quiet")

	// SIGKILL the victim once the first checkpoint is durable. Killing
	// either worker is equivalent (leases are worker-agnostic); naming
	// one keeps the test deterministic about who dies.
	deadline := time.Now().Add(2 * time.Minute)
	killed := false
	for time.Now().Before(deadline) {
		status, ok := srv.StatusOf(st.ID)
		if !ok {
			t.Fatal("job vanished")
		}
		if status.State.Terminal() {
			t.Fatalf("campaign finished before the kill (state %s); raise Steps", status.State)
		}
		if status.CheckpointRounds > 0 {
			if err := victim.cmd.Process.Signal(syscall.SIGKILL); err != nil {
				t.Fatal(err)
			}
			_ = victim.cmd.Wait()
			killed = true
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !killed {
		t.Fatal("no checkpoint observed before the deadline")
	}

	res, err := srv.Wait(waitCtx(t), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != jobs.StateDone {
		t.Fatalf("final state %s: %s", res.State, res.Error)
	}
	single, err := experiments.RunAdaptive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := jobs.CampaignResult(st.ID, cfg, single, false).Transcript; res.Transcript != want {
		t.Fatal("transcript after real SIGKILL differs from single-process run")
	}

	// The coordinator's registry recorded the death: the victim's lease
	// expired rather than completing.
	resp, err := http.Get(hs.URL + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	var wr jobs.WorkersReply
	if err := decodeJSON(resp, &wr); err != nil {
		t.Fatal(err)
	}
	expired := int64(0)
	for _, w := range wr.Workers {
		if w.Name == "victim" {
			expired = w.Expired
		}
	}
	if expired == 0 {
		t.Fatalf("victim's lease never expired in the registry: %+v", wr.Workers)
	}
}
