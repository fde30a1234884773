package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"aft/internal/jobs"
	"aft/internal/jobs/worker"
)

// The served workloads: a jobs.Server on a fresh store, served over
// loopback HTTP, driven by closed-loop clients (submit, follow the job's
// SSE stream to its terminal event, fetch the result, submit again).

const (
	// fleetLeaseTTL is short enough that the longer shards renew their
	// lease (workers heartbeat at a third of it, every 80ms), long enough
	// that a scheduling hiccup does not expire one.
	fleetLeaseTTL = 240 * time.Millisecond
	// fleetPoll is the workers' back-off after a lease attempt found no
	// work.
	fleetPoll = 2 * time.Millisecond
	// passTimeout bounds one pass; a pass that hangs fails the run.
	passTimeout = 120 * time.Second
)

// harness is one server under test: the store directory, the jobs.Server
// on it, its loopback listener and, for the fleet, the worker loops.
type harness struct {
	dir    string
	srv    *jobs.Server
	hs     *http.Server
	base   string
	served chan error

	stopWorkers context.CancelFunc
	workerWG    sync.WaitGroup
	workerStats []worker.Stats
	rec         *leaseRecorder
}

// openHarness builds a server on dir and waits until it can take the
// first job: store open → WaitReady → listener up → fleet workers
// registered with the coordinator.
func openHarness(dir string, fleet bool, workers int, tr *tracer) (*harness, error) {
	opts := jobs.Options{Dir: dir, Workers: workers}
	if fleet {
		opts = jobs.Options{Dir: dir, DisableLocalPool: true, ShardRounds: fleetShardRounds, LeaseTTL: fleetLeaseTTL}
	}
	srv, err := jobs.NewServer(opts)
	if err != nil {
		return nil, err
	}
	h := &harness{dir: dir, srv: srv, served: make(chan error, 1)}
	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()
	if err := srv.WaitReady(ctx); err != nil {
		_ = srv.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Close()
		return nil, err
	}
	h.base = "http://" + ln.Addr().String()
	h.hs = &http.Server{Handler: srv}
	go func() { h.served <- h.hs.Serve(ln) }()
	if fleet {
		if err := h.startWorkers(ctx, workers, tr); err != nil {
			_ = h.close()
			return nil, err
		}
	}
	return h, nil
}

// startWorkers runs the fleet's worker.Run loops in process and waits
// until the coordinator has seen each of them ask for work.
func (h *harness) startWorkers(ctx context.Context, n int, tr *tracer) error {
	// The workers share one pool of connections; each worker's lease loop
	// and heartbeat may hold one at once.
	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 2 * n, DisableCompression: true}
	if tr != nil {
		h.rec = &leaseRecorder{base: rt, tr: tr}
		rt = h.rec
	}
	wctx, stop := context.WithCancel(context.Background())
	h.stopWorkers = stop
	h.workerStats = make([]worker.Stats, n)
	for i := 0; i < n; i++ {
		h.workerWG.Add(1)
		go func(i int) {
			defer h.workerWG.Done()
			st, _ := worker.Run(wctx, worker.Options{ // Run's error is only for bad Options
				Coordinator: h.base,
				Name:        fmt.Sprintf("worker-%d", i),
				Client:      &http.Client{Transport: rt, Timeout: passTimeout},
				Poll:        fleetPoll,
			})
			h.workerStats[i] = st
		}(i)
	}
	hc := &http.Client{Transport: newTransport(), Timeout: passTimeout}
	defer hc.CloseIdleConnections()
	for {
		var wr jobs.WorkersReply
		if err := getJSON(ctx, hc, h.base+"/v1/workers", &wr); err == nil && len(wr.Workers) >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("fleet workers did not register: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// close stops the workers, the listener and the server, in that order,
// and waits for each.
func (h *harness) close() error {
	if h.stopWorkers != nil {
		h.stopWorkers()
		h.workerWG.Wait()
	}
	if h.hs != nil {
		_ = h.hs.Close() // closes the listener and every connection
		if err := <-h.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			_ = h.srv.Close()
			return err
		}
	}
	return h.srv.Close()
}

// serverMetrics reads the server's registry: scalar samples by name plus
// the _sum and _count of each histogram.
func serverMetrics(srv *jobs.Server) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range srv.Metrics().Snapshot() {
		out[s.Name] = float64(s.Value)
	}
	for _, line := range strings.Split(srv.Metrics().Prometheus(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || !(strings.HasSuffix(name, "_sum") || strings.HasSuffix(name, "_count")) {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// newTransport is a client transport with a single connection, so a
// client loop never has more than one request in flight.
func newTransport() *http.Transport {
	return &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
}

func getJSON(ctx context.Context, hc *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// jobRecord is what one client saw of one job.
type jobRecord struct {
	err string
	// accepted is when the submission was answered.
	accepted time.Time
	// submit is POST /jobs, sse the events stream up to the terminal
	// event, fetch GET /jobs/{id}/result; total spans all three.
	submit, sse, fetch, total time.Duration
	state                     jobs.State
	rounds                    int64
	result                    []byte
}

// client is one closed-loop client with its own connection.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer
}

func newClient(base string, tr *tracer) *client {
	return &client{base: base, hc: &http.Client{Transport: newTransport(), Timeout: passTimeout}, tr: tr}
}

// runJob submits one job, follows it to its terminal state and fetches
// its result. A refused submission or a job ending other than done is
// recorded as a failure.
func (c *client) runJob(ctx context.Context, j popJob) jobRecord {
	var rec jobRecord
	t0 := time.Now()
	id, err := c.submit(ctx, j.Body)
	t1 := time.Now()
	if err == nil && id != j.ID {
		err = fmt.Errorf("server named job %s, content address is %s", id, j.ID)
	}
	if err != nil {
		rec.err = err.Error()
		return rec
	}
	state, err := c.follow(ctx, id)
	t2 := time.Now()
	if err != nil {
		rec.err = err.Error()
		return rec
	}
	body, err := c.fetch(ctx, id)
	t3 := time.Now()
	if err != nil {
		rec.err = err.Error()
		return rec
	}
	var res jobs.Result
	if err := json.Unmarshal(body, &res); err != nil {
		rec.err = "decode result: " + err.Error()
		return rec
	}
	rec = jobRecord{accepted: t1, submit: t1.Sub(t0), sse: t2.Sub(t1), fetch: t3.Sub(t2), total: t3.Sub(t0),
		state: res.State, rounds: res.Rounds, result: body}
	if state != jobs.StateDone || res.State != jobs.StateDone {
		rec.err = fmt.Sprintf("job %s ended %s: %s", id, res.State, res.Error)
	}
	a := j.Index + 1
	c.tr.record(id, "client.job", "", a, t0, t3, 0)
	c.tr.record(id, "client.submit", "client.job", a, t0, t1, 0)
	c.tr.record(id, "client.sse_wait", "client.job", a, t1, t2, 0)
	c.tr.record(id, "client.result_fetch", "client.job", a, t2, t3, 0)
	return rec
}

func (c *client) submit(ctx context.Context, body []byte) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("submit refused: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var reply jobs.SubmitReply
	if err := json.Unmarshal(data, &reply); err != nil {
		return "", fmt.Errorf("decode submit reply: %w", err)
	}
	return reply.ID, nil
}

// follow reads the job's SSE stream until a terminal status arrives.
func (c *client) follow(ctx context.Context, id string) (jobs.State, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events: %s", resp.Status)
	}
	r := bufio.NewReader(resp.Body)
	for {
		line, err := r.ReadString('\n')
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var st jobs.Status
			if jerr := json.Unmarshal([]byte(data), &st); jerr != nil {
				return "", fmt.Errorf("decode event: %w", jerr)
			}
			if st.State.Terminal() {
				_, _ = io.Copy(io.Discard, r) // the server ends the stream; reuse the connection
				return st.State, nil
			}
		}
		if err != nil {
			return "", fmt.Errorf("events for %s ended without a terminal state: %v", id, err)
		}
	}
}

func (c *client) fetch(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("result: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// passResult is one pass of a served workload.
type passResult struct {
	setup, timed time.Duration
	// recs is indexed by popJob.Index.
	recs   []jobRecord
	server map[string]float64
	shards int64
	leases int64
	empty  int64
}

// servedPass opens a server on a fresh store dir, runs the population
// through it with one goroutine per client, and tears the server down.
// The store stays on disk for the caller.
func servedPass(dir string, fleet bool, workers int, pop population, tr *tracer) (passResult, error) {
	var pr passResult
	t0 := time.Now()
	h, err := openHarness(dir, fleet, workers, tr)
	if err != nil {
		return pr, err
	}
	pr.setup = time.Since(t0)
	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()

	pr.recs = make([]jobRecord, pop.total)
	var wg sync.WaitGroup
	start := time.Now()
	for _, seq := range pop.perClient {
		wg.Add(1)
		go func(seq []popJob) {
			defer wg.Done()
			c := newClient(h.base, tr)
			defer c.hc.CloseIdleConnections()
			for _, j := range seq {
				pr.recs[j.Index] = c.runJob(ctx, j)
			}
		}(seq)
	}
	wg.Wait()
	pr.timed = time.Since(start)
	pr.server = serverMetrics(h.srv)
	if err := h.close(); err != nil {
		return pr, err
	}
	for _, st := range h.workerStats {
		pr.shards += st.Shards
	}
	if h.rec != nil {
		pr.leases, pr.empty = h.rec.leases.Load(), h.rec.empty.Load()
	}
	return pr, nil
}

// freshDir makes a new empty store directory under root.
func freshDir(root, prefix string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, prefix)
}

// storeJobs counts the job directories of a store.
func storeJobs(dir string) int {
	ents, err := os.ReadDir(filepath.Join(dir, "jobs"))
	if err != nil {
		return 0
	}
	return len(ents)
}
