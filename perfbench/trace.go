package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary, in the Dapper sense:
// spans of one job share its ID as their trace, and a child names its
// parent span.
type span struct {
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	// Attempt tells apart submissions of one job ID within a pass (a
	// repeated spec is the same job); 0 on server-side spans.
	Attempt int `json:"attempt,omitempty"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// N is the number of operations a replay span covers (0 for one).
	N int64 `json:"n,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced runs call the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// record adds one span. Safe for concurrent use; a no-op on nil.
func (t *tracer) record(trace, name, parent string, attempt int, start, end time.Time, n int64) {
	if t == nil {
		return
	}
	s := span{Trace: trace, Name: name, Parent: parent, Attempt: attempt,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), N: n}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// since returns every span recorded from index i on.
func (t *tracer) since(i int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[i:]...)
}

// mark is the index the next recorded span will get.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeFile writes every span as one JSON line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			_ = f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// byName groups span durations in milliseconds by span name.
func byName(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.dur())/1e6)
	}
	return out
}

// leaseRecorder is the http.RoundTripper the benchmark hands the fleet
// workers: it records one span per /v1 request, keyed by the job ID in
// the URL (or, for a lease grant, in the reply), and counts lease
// attempts that returned no work.
type leaseRecorder struct {
	base   http.RoundTripper
	tr     *tracer
	leases atomic.Int64
	empty  atomic.Int64
}

// RoundTrip implements http.RoundTripper. The /v1 replies are small JSON
// documents, so the body is read here and the span ends when the worker
// could act on it.
func (r *leaseRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := r.base.RoundTrip(req)
	name, job := v1Span(req.Method, req.URL.Path)
	if err != nil || name == "" {
		return resp, err
	}
	body, rerr := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	if rerr != nil {
		return nil, rerr
	}
	end := time.Now()
	if name == "lease.grant" {
		r.leases.Add(1)
		if resp.StatusCode != http.StatusOK {
			r.empty.Add(1)
			name = "lease.empty_poll"
		} else {
			var g struct {
				Job string `json:"job"`
			}
			_ = json.Unmarshal(body, &g) // the worker reports a bad grant itself
			job = g.Job
		}
	}
	r.tr.record(job, name, "", 0, start, end, 0)
	return resp, nil
}

// v1Span names the span for one /v1 request and extracts its job ID;
// the name is empty for requests outside the lease protocol.
func v1Span(method, path string) (name, job string) {
	if method == http.MethodPost && path == "/v1/lease" {
		return "lease.grant", ""
	}
	rest, ok := strings.CutPrefix(path, "/v1/jobs/")
	if !ok {
		return "", ""
	}
	id, op, ok := strings.Cut(rest, "/")
	if !ok {
		return "", ""
	}
	switch op {
	case "renew":
		return "lease.renew", id
	case "checkpoint":
		return "lease.upload", id
	case "complete":
		return "lease.complete", id
	}
	return "", ""
}
