// Package worker is the stateless fleet worker: it runs a jobs.Holder —
// the one loop that runs every job, the same loop aft-serve's in-process
// holders run — against a coordinator reached over the /v1 lease
// protocol (internal/jobs fleet.go, served by aft-serve). The package's
// own code is only the HTTP side of that protocol: one request per
// protocol call, with retries where the coordinator makes redelivery
// harmless.
//
// A worker owns no disk state at all — every durable byte lives in the
// coordinator's job store — so killing one with SIGKILL at any instant
// loses nothing: its lease expires, the coordinator requeues the job
// from the last uploaded checkpoint, and any packet the dead worker
// still had in flight is rejected by its stale fencing token.
package worker

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"aft/internal/jobs"
)

// Options configures a worker loop.
type Options struct {
	// Coordinator is the coordinator's base URL (scheme://host:port).
	Coordinator string
	// Name is the worker's stable name; it keys the coordinator's
	// fleet registry and appears in lease-conflict errors.
	Name string
	// Client is the HTTP client to use; nil selects a default with a
	// 2-minute timeout.
	Client *http.Client
	// Poll is the sleep between lease attempts when the queue is empty
	// or the coordinator is not ready; values <= 0 select 200ms.
	Poll time.Duration
	// MaxJobs stops the loop after that many grants have been processed
	// (shard handbacks count); 0 means run until the context ends.
	MaxJobs int
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
}

// Stats summarizes one Run's work.
type Stats = jobs.HolderStats

// Run executes the worker loop until the context ends (its error is
// then nil) or MaxJobs grants are processed. A coordinator still
// recovering refuses leases with 503 and the loop keeps polling, so it
// never recomputes rounds a checkpoint already covers.
func Run(ctx context.Context, opts Options) (Stats, error) {
	if opts.Coordinator == "" || opts.Name == "" {
		return Stats{}, fmt.Errorf("worker: Coordinator and Name are required")
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 2 * time.Minute}
	}
	if opts.Poll <= 0 {
		opts.Poll = 200 * time.Millisecond
	}
	h := jobs.Holder{Name: opts.Name, Coordinator: &client{opts: opts}, MaxJobs: opts.MaxJobs, Logf: opts.Logf}
	return h.Run(ctx), nil
}

// client is the jobs.Coordinator a worker reaches over HTTP.
type client struct {
	opts Options
}

// Lease implements jobs.Coordinator by polling POST /v1/lease every
// Poll — through empty queues, a recovering coordinator and a broken
// link — until a grant arrives or ctx ends.
func (c *client) Lease(ctx context.Context, holder string) (jobs.Grant, error) {
	body, err := json.Marshal(jobs.LeaseRequest{Worker: holder})
	if err != nil {
		return jobs.Grant{}, err
	}
	for {
		var g jobs.Grant
		if err := c.send(ctx, http.MethodPost, "/v1/lease", body, nil, &g); err == nil {
			return g, nil
		}
		if err := c.sleep(ctx); err != nil {
			return jobs.Grant{}, err
		}
	}
}

// Renew implements jobs.Coordinator with one POST …/renew.
func (c *client) Renew(ctx context.Context, g jobs.Grant) (jobs.RenewReply, error) {
	var reply jobs.RenewReply
	body, err := json.Marshal(jobs.RenewRequest{Worker: g.Worker, Token: g.Token})
	if err == nil {
		err = c.send(ctx, http.MethodPost, "/v1/jobs/"+g.Job+"/renew", body, nil, &reply)
	}
	return reply, err
}

// Upload implements jobs.Coordinator with PUT …/checkpoint, the raw
// snapshot as the body and the credentials in headers.
func (c *client) Upload(ctx context.Context, g jobs.Grant, snapshot []byte) (jobs.UploadReply, error) {
	hdr := map[string]string{
		jobs.HeaderWorker: g.Worker,
		jobs.HeaderToken:  strconv.FormatUint(g.Token, 10),
	}
	var reply jobs.UploadReply
	err := c.retry(ctx, func() error {
		return c.send(ctx, http.MethodPut, "/v1/jobs/"+g.Job+"/checkpoint", snapshot, hdr, &reply)
	})
	return reply, err
}

// Complete implements jobs.Coordinator with POST …/complete.
func (c *client) Complete(ctx context.Context, g jobs.Grant, res *jobs.Result) error {
	body, err := json.Marshal(jobs.CompleteRequest{Worker: g.Worker, Token: g.Token, Result: res})
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	return c.retry(ctx, func() error {
		return c.send(ctx, http.MethodPost, "/v1/jobs/"+g.Job+"/complete", body, nil, nil)
	})
}

// retry repeats call while it fails in transport — a dropped or severed
// link — sleeping Poll between attempts, until the coordinator answers
// or ctx ends. The coordinator treats a redelivered upload or
// completion as a no-op, so a reply the network ate costs nothing.
func (c *client) retry(ctx context.Context, call func() error) error {
	for {
		err := call()
		var se *jobs.StatusError
		if err == nil || errors.As(err, &se) {
			return err
		}
		if serr := c.sleep(ctx); serr != nil {
			return serr
		}
	}
}

// sleep waits one Poll interval, or fails when ctx ends first.
func (c *client) sleep(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(c.opts.Poll):
		return nil
	}
}

// send makes one request to the coordinator and decodes a 200
// reply into out (nil discards it). Any other status comes back as a
// *jobs.StatusError carrying the reply's error text.
func (c *client) send(ctx context.Context, method, path string, body []byte, hdr map[string]string, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.opts.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.opts.Client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		// Drain so the connection is reused; the reply is already read.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		var reply struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&reply) != nil || reply.Error == "" {
			reply.Error = http.StatusText(resp.StatusCode) // a 204, or a proxy's own page
		}
		return &jobs.StatusError{Code: resp.StatusCode, Msg: reply.Error}
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
