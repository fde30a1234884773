// Package trace records structured simulation events.
//
// Experiments use a Recorder to capture what happened (fault injected,
// assumption clashed, pattern swapped, redundancy resized) so that tests
// can assert on exact transcripts and the bench harness can replay the
// narrative behind each figure. Determinism tests compare two runs'
// transcripts byte for byte.
package trace

import (
	"fmt"
	"strings"
	"sync"
)

// Event is a single recorded occurrence at a virtual time.
type Event struct {
	Time    int64
	Kind    string
	Subject string
	Detail  string
}

// String renders the event on one line, suitable for transcripts.
func (e Event) String() string {
	if e.Detail == "" {
		return fmt.Sprintf("[%d] %s %s", e.Time, e.Kind, e.Subject)
	}
	return fmt.Sprintf("[%d] %s %s: %s", e.Time, e.Kind, e.Subject, e.Detail)
}

// Recorder accumulates events. It is safe for concurrent use. A nil
// *Recorder discards events, so components can accept an optional
// recorder without nil checks at every call site.
type Recorder struct {
	mu     sync.Mutex
	events []Event
	limit  int
}

// New returns a Recorder that keeps every event.
func New() *Recorder {
	return &Recorder{}
}

// NewBounded returns a Recorder that keeps only the most recent limit
// events (a ring buffer), for long-running simulations where only the
// tail matters.
func NewBounded(limit int) *Recorder {
	if limit <= 0 {
		panic("trace: NewBounded requires a positive limit")
	}
	return &Recorder{limit: limit}
}

// Record appends an event. The detail is formatted lazily only when a
// format string is given.
func (r *Recorder) Record(now int64, kind, subject, format string, args ...any) {
	if r == nil {
		return
	}
	detail := format
	if len(args) > 0 {
		detail = fmt.Sprintf(format, args...)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, Event{Time: now, Kind: kind, Subject: subject, Detail: detail})
	if r.limit > 0 && len(r.events) > r.limit {
		// Drop the oldest half in one copy to amortize.
		drop := len(r.events) - r.limit
		r.events = append(r.events[:0], r.events[drop:]...)
	}
}

// Events returns a copy of the recorded events.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Len reports the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Filter returns the events whose Kind equals kind.
func (r *Recorder) Filter(kind string) []Event {
	var out []Event
	for _, e := range r.Events() {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// Transcript renders all events, one per line.
func (r *Recorder) Transcript() string {
	var b strings.Builder
	for _, e := range r.Events() {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}
