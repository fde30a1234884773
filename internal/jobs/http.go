// The HTTP/JSON surface of the job server. Endpoint-by-endpoint request
// and response schemas, error codes, and a full crash-recovery curl
// walkthrough are documented in API.md; this file keeps the handlers
// thin wrappers over the Server methods so every behaviour is reachable
// (and tested) without a network socket.

package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"aft/internal/pubsub"
)

// maxBody bounds a submission body; campaign and scenario specs are a
// few hundred bytes, so 1 MiB is generous.
const maxBody = 1 << 20

// readBody reads r's whole body, refusing rather than truncating one
// over limit bytes: it answers 413 with the bodyTooLarge text (400 for
// any other read error) and reports false. A declared Content-Length
// over the cap is refused before anything is read.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	if r.ContentLength > limit {
		writeJSON(w, http.StatusRequestEntityTooLarge, errorReply{Error: bodyTooLarge(limit)})
		return nil, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return body, true
	case errors.As(err, &tooLarge):
		writeJSON(w, http.StatusRequestEntityTooLarge, errorReply{Error: bodyTooLarge(limit)})
	default:
		writeJSON(w, http.StatusBadRequest, errorReply{Error: "read body: " + err.Error()})
	}
	return nil, false
}

// bodyTooLarge is the pinned text of a 413 reply.
func bodyTooLarge(limit int64) string {
	return fmt.Sprintf("request body exceeds the %d-byte cap", limit)
}

// decodeBody reads r's body with readBody and decodes it as one JSON
// value into v, answering 400 with what and the decode error when it
// is malformed. It reports whether v was filled.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	body, ok := readBody(w, r, limit)
	if !ok {
		return false
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: what + ": " + err.Error()})
		return false
	}
	return true
}

// errorReply is the body of every non-2xx response.
type errorReply struct {
	Error string `json:"error"`
}

// SubmitReply is the body of POST /jobs responses: the job's status
// plus whether the submission deduplicated onto an existing job.
type SubmitReply struct {
	Status
	// Deduped reports that an identical spec was already submitted and
	// this reply describes the existing job.
	Deduped bool `json:"deduped,omitempty"`
}

// ListReply is the body of GET /jobs.
type ListReply struct {
	Jobs []Status `json:"jobs"`
	// Total is the number of jobs matching the ?state= filter before
	// ?limit=/?offset= pagination, so clients can page confidently.
	Total int `json:"total"`
}

// HealthReply is the body of GET /healthz.
type HealthReply struct {
	OK bool `json:"ok"`
	// Status is the server's lifecycle phase: "recovering" while the
	// startup replay of campaign checkpoints is still running (no lease
	// is granted, in process or to the fleet), "ready" once it
	// finishes, "stopping" during graceful shutdown. Fleet workers poll
	// this and must not lease until it reads "ready".
	Status  string        `json:"status"`
	Workers int           `json:"workers"`
	Jobs    map[State]int `json:"jobs"`
}

// Health status strings reported by GET /healthz.
const (
	HealthRecovering = "recovering"
	HealthReady      = "ready"
	HealthStopping   = "stopping"
)

// sseInterval is the keepalive cadence of GET /jobs/{id}/events: how
// often a stream re-emits the current status when no transition event
// arrives. A variable so tests stream fast.
var sseInterval = 500 * time.Millisecond

// sseConnBuffer is each SSE connection's buffer of pending status
// events. When a connection falls this far behind, further events are
// dropped for it (counted in aft_sse_dropped_total) — the terminal
// event is re-derived at stream end, so drops never lose the final
// state.
const sseConnBuffer = 16

// initHTTP builds the request mux (Go 1.22+ method/wildcard patterns).
func (s *Server) initHTTP() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /metricz", s.handleMetricz)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)

	// The /v1 lease protocol (fleet.go): stateless workers lease jobs,
	// heartbeat, stream checkpoints back, and hand in results through
	// the same methods the in-process holders call.
	s.mux.HandleFunc("POST /v1/lease", s.handleLease)
	s.mux.HandleFunc("POST /v1/jobs/{id}/renew", s.handleRenew)
	s.mux.HandleFunc("PUT /v1/jobs/{id}/checkpoint", s.handleUpload)
	s.mux.HandleFunc("POST /v1/jobs/{id}/complete", s.handleComplete)
	s.mux.HandleFunc("GET /v1/workers", s.handleWorkers)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// writeJSON writes one JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// respond writes v as a 200 reply, or, when err is set, err's text
// under its StatusError code (500 for any other error).
func respond(w http.ResponseWriter, v any, err error) {
	if err == nil {
		writeJSON(w, http.StatusOK, v)
		return
	}
	code := http.StatusInternalServerError
	var se *StatusError
	if errors.As(err, &se) {
		code = se.Code
	}
	writeJSON(w, code, errorReply{Error: err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r, maxBody)
	if !ok {
		return
	}
	var spec Spec
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: "bad job spec: " + err.Error()})
		return
	}
	// Validate here so the client's mistakes are 400s, and whatever
	// Submit reports beyond validation (a disk failure persisting the
	// spec) is the server's fault: 500, or 503 during shutdown — both
	// retryable, unlike a malformed spec.
	if err := spec.Validate(); err != nil {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: err.Error()})
		return
	}
	// Admission control after validation (the client ID lives in the
	// spec): over-rate clients get 429 with a Retry-After telling them
	// when their bucket refills; other clients' buckets are untouched.
	if ok, retry := s.limiter.allow(spec.Client); !ok {
		s.rateLimited.Inc()
		w.Header().Set("Retry-After", retryAfterSeconds(retry))
		writeJSON(w, http.StatusTooManyRequests,
			errorReply{Error: fmt.Sprintf("rate limit exceeded for client %q", spec.Client)})
		return
	}
	st, deduped, err := s.Submit(spec)
	if err != nil {
		if errors.Is(err, ErrQueueFull) {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, errorReply{Error: err.Error()})
			return
		}
		code := http.StatusInternalServerError
		if errors.Is(err, ErrShuttingDown) {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, errorReply{Error: err.Error()})
		return
	}
	code := http.StatusAccepted
	if deduped {
		code = http.StatusOK
	}
	writeJSON(w, code, SubmitReply{Status: st, Deduped: deduped})
}

// retryAfterSeconds renders a wait as a whole-second Retry-After value,
// rounded up so a client that honours it never retries early; at least
// 1 so "0" never invites a tight retry loop.
func retryAfterSeconds(d time.Duration) string {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// listStates are the ?state= filter values GET /jobs accepts.
var listStates = map[State]bool{
	StateQueued: true, StateRunning: true, StateCheckpointed: true,
	StateDone: true, StateFailed: true, StateCancelled: true,
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var state State
	if v := q.Get("state"); v != "" {
		state = State(v)
		if !listStates[state] {
			writeJSON(w, http.StatusBadRequest,
				errorReply{Error: fmt.Sprintf("unknown state %q (want queued, running, checkpointed, done, failed, or cancelled)", v)})
			return
		}
	}
	limit, offset := 0, 0
	for _, p := range []struct {
		name string
		dst  *int
	}{{"limit", &limit}, {"offset", &offset}} {
		v := q.Get(p.name)
		if v == "" {
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest,
				errorReply{Error: fmt.Sprintf("bad %s %q (want a non-negative integer)", p.name, v)})
			return
		}
		*p.dst = n
	}
	jobsPage, total := s.ListPage(state, offset, limit)
	writeJSON(w, http.StatusOK, ListReply{Jobs: jobsPage, Total: total})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.StatusOf(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorReply{Error: fmt.Sprintf("unknown job %s", id)})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	res, ok := s.ResultOf(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorReply{Error: fmt.Sprintf("unknown job %s", id)})
		return
	}
	if res == nil {
		writeJSON(w, http.StatusConflict, errorReply{Error: fmt.Sprintf("job %s has no result yet", id)})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, err := s.Cancel(id)
	if err != nil {
		var conflict ErrConflict
		if errors.As(err, &conflict) {
			writeJSON(w, http.StatusConflict, errorReply{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusNotFound, errorReply{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// handleEvents streams job progress as Server-Sent Events: one `data:`
// line with a Status JSON per state transition or progress chunk
// (pushed from the server's event bus), a keepalive snapshot every
// sseInterval when nothing changes, a final event at the terminal
// state, then EOF. Delivery is bounded: a consumer that cannot keep up
// has intermediate events dropped (counted in aft_sse_dropped_total)
// but always receives the terminal event, which is re-derived from the
// job itself rather than trusted to the stream. Poll GET /jobs/{id}
// instead when an SSE client is inconvenient — the payloads are
// identical.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.jobByID(id)
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorReply{Error: fmt.Sprintf("unknown job %s", id)})
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorReply{Error: "streaming unsupported"})
		return
	}

	// Subscribe before the first snapshot so no transition between the
	// snapshot and the subscription is lost. The bus handler never
	// blocks: when this connection's buffer is full the event is
	// dropped and counted, so a stalled reader costs the workers
	// nothing.
	ch := make(chan Status, sseConnBuffer)
	sub := s.events.Subscribe("jobs/"+id, func(m pubsub.Message) {
		st, ok := m.Payload.(Status)
		if !ok {
			return
		}
		select {
		case ch <- st:
		default:
			s.sseDropped.Inc()
		}
	})
	defer s.events.Unsubscribe(sub)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	emit := func(st Status) bool {
		data, err := json.Marshal(st)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	// final re-derives the authoritative current status — the gap-free
	// terminal event, immune to bus drops.
	final := func() {
		if st, ok := s.StatusOf(id); ok {
			emit(st)
		}
	}

	st, ok := s.StatusOf(id)
	if !ok || !emit(st) || st.State.Terminal() {
		return
	}
	keepalive := time.NewTicker(sseInterval)
	defer keepalive.Stop()
	for {
		select {
		case st := <-ch:
			if !emit(st) {
				return
			}
			if st.State.Terminal() {
				return
			}
		case <-j.done:
			final()
			return
		case <-r.Context().Done():
			return
		case <-s.closing:
			// Shutdown: send one last snapshot (the job is parking in
			// checkpointed) and end the stream instead of pinning
			// http.Server.Shutdown to its timeout.
			final()
			return
		case <-keepalive.C:
			cur, ok := s.StatusOf(id)
			if !ok || !emit(cur) {
				return
			}
			if cur.State.Terminal() {
				return
			}
		}
	}
}

func (s *Server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, s.reg.Prometheus())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	counts := make(map[State]int)
	for _, st := range s.List() {
		counts[st.State]++
	}
	status := HealthReady
	switch {
	case s.stopping():
		status = HealthStopping
	case !s.Ready():
		status = HealthRecovering
	}
	writeJSON(w, http.StatusOK, HealthReply{
		OK:      status == HealthReady,
		Status:  status,
		Workers: s.opts.Workers,
		Jobs:    counts,
	})
}
