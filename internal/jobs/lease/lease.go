// Package lease is the coordinator's fenced lease table: the mutual
// exclusion that makes distributing jobs over an unreliable network
// safe. A worker that wants a job acquires a lease on it; the lease
// carries a deadline the worker must keep renewing, and a fencing
// token — a per-job counter that increases every time the job changes
// hands. Every write a worker sends back (a checkpoint upload, a final
// result) names its token, and the table rejects any token that is not
// the job's current one, so a worker that lost its lease to a network
// partition, a GC pause, or a SIGKILL can never clobber the work of the
// worker that replaced it — no matter how delayed its packets are.
//
// The table is deliberately pure state: it knows nothing about jobs,
// HTTP, or disks, takes its clock by injection (so tests control time),
// and is safe for concurrent use. The jobs package wires it to the
// /v1 worker protocol; OPERATIONS.md documents the operator-facing
// tuning (TTL versus heartbeat cadence).
package lease

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// DefaultTTL is the lease duration when NewTable is given a
// non-positive one: long enough that three missed heartbeats at the
// default cadence (TTL/3) are survivable, short enough that a dead
// worker's job requeues promptly.
const DefaultTTL = 10 * time.Second

// Clock supplies the current time; tests inject a fake.
type Clock func() time.Time

// Lease is one grant: worker holds job until Deadline, fenced by Token.
type Lease struct {
	// Job is the leased job's ID.
	Job string
	// Worker is the holder's name.
	Worker string
	// Token is the fencing token: unique to this grant, larger than
	// every earlier grant's token for the same job.
	Token uint64
	// Deadline is when the lease expires unless renewed.
	Deadline time.Time
}

// entry is the table's record of an active lease.
type entry struct {
	worker   string
	token    uint64
	deadline time.Time
}

// Table tracks every active lease and the per-job fencing counters.
// All methods are safe for concurrent use.
type Table struct {
	mu   sync.Mutex
	ttl  time.Duration
	now  Clock
	held map[string]*entry
	// fence is the last token issued per job. It outlives the lease it
	// was issued for — releases and expiries never rewind it — which is
	// exactly what makes it a fence.
	fence map[string]uint64
}

// NewTable builds a table issuing leases of the given duration
// (DefaultTTL when non-positive), reading time from now (time.Now when
// nil).
func NewTable(ttl time.Duration, now Clock) *Table {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	if now == nil {
		now = time.Now
	}
	return &Table{
		ttl:   ttl,
		now:   now,
		held:  make(map[string]*entry),
		fence: make(map[string]uint64),
	}
}

// HeldError reports an Acquire on a job whose lease is still live.
type HeldError struct {
	// Job is the contested job; Holder is the current lease holder.
	Job, Holder string
}

// Error implements error with a pinned text (see TestErrorTexts).
func (e HeldError) Error() string {
	return fmt.Sprintf("lease: job %s already held by worker %s", e.Job, e.Holder)
}

// FencedError rejects a stale token: the lease it belonged to expired,
// was released, or was superseded by a newer grant.
type FencedError struct {
	// Job is the job the stale write targeted.
	Job string
	// Token is the token the write carried.
	Token uint64
	// Current is the job's fence (the last token issued); zero tokens
	// never occur, so Current > Token always holds for superseded
	// grants.
	Current uint64
	// Active reports whether a live lease holds Current right now;
	// false means the lease merely expired or was released and no one
	// has re-acquired the job yet.
	Active bool
}

// Error implements error with pinned texts (see TestErrorTexts).
func (e FencedError) Error() string {
	switch {
	case e.Active && e.Current != e.Token:
		return fmt.Sprintf("lease: fenced: job %s token %d superseded by token %d", e.Job, e.Token, e.Current)
	case e.Active:
		return fmt.Sprintf("lease: fenced: job %s token %d held by another worker", e.Job, e.Token)
	default:
		return fmt.Sprintf("lease: fenced: job %s token %d: no active lease", e.Job, e.Token)
	}
}

// IsFenced reports whether err is a fencing rejection — the signal a
// worker must treat as "abandon this job, someone else owns it now".
func IsFenced(err error) bool {
	_, ok := err.(FencedError)
	return ok
}

// Acquire grants a lease on job to worker. A live lease by another (or
// the same) worker fails with HeldError; an expired one is silently
// evicted and taken over, with the new grant's token fencing off the
// old holder.
func (t *Table) Acquire(job, worker string) (Lease, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	if e, ok := t.held[job]; ok {
		if now.Before(e.deadline) {
			return Lease{}, HeldError{Job: job, Holder: e.worker}
		}
		delete(t.held, job) // expired: take over
	}
	t.fence[job]++
	e := &entry{worker: worker, token: t.fence[job], deadline: now.Add(t.ttl)}
	t.held[job] = e
	return Lease{Job: job, Worker: worker, Token: e.token, Deadline: e.deadline}, nil
}

// check validates a fence under t.mu. An expired entry stays in the
// table: only Expire removes it, so the reaper always sees the lapse and
// requeues the job, however soon a stale write follows the deadline.
func (t *Table) check(job, worker string, token uint64) (*entry, error) {
	e, ok := t.held[job]
	if !ok || !t.now().Before(e.deadline) {
		return nil, FencedError{Job: job, Token: token, Current: t.fence[job]}
	}
	if e.worker != worker || e.token != token {
		return nil, FencedError{Job: job, Token: token, Current: e.token, Active: true}
	}
	return e, nil
}

// Check validates that worker's token is the job's current live lease —
// the guard every state-changing upload passes before its bytes are
// accepted.
func (t *Table) Check(job, worker string, token uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, err := t.check(job, worker, token)
	return err
}

// Renew extends a live lease's deadline by the table TTL.
func (t *Table) Renew(job, worker string, token uint64) (Lease, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, err := t.check(job, worker, token)
	if err != nil {
		return Lease{}, err
	}
	e.deadline = t.now().Add(t.ttl)
	return Lease{Job: job, Worker: worker, Token: token, Deadline: e.deadline}, nil
}

// Release ends a live lease voluntarily (shard handed back, job
// finalized). The job's fence stays where it is, so the released token
// can never be used again.
func (t *Table) Release(job, worker string, token uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, err := t.check(job, worker, token); err != nil {
		return err
	}
	delete(t.held, job)
	return nil
}

// Expire evicts every lease past its deadline and returns them (sorted
// by job ID for deterministic requeue order). The reaper calls this on
// a timer; evicted jobs go back on the coordinator's queue.
func (t *Table) Expire() []Lease {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	var out []Lease
	for job, e := range t.held {
		if !now.Before(e.deadline) {
			out = append(out, Lease{Job: job, Worker: e.worker, Token: e.token, Deadline: e.deadline})
			delete(t.held, job)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Job < out[j].Job })
	return out
}

// Holder reports the live lease on job, if any.
func (t *Table) Holder(job string) (Lease, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.held[job]
	if !ok || !t.now().Before(e.deadline) {
		return Lease{}, false
	}
	return Lease{Job: job, Worker: e.worker, Token: e.token, Deadline: e.deadline}, true
}

// Len reports the number of leases currently held (live or not yet
// reaped).
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.held)
}
