// Package simclock implements a deterministic discrete-event simulation
// clock.
//
// The experiments reproduced from the paper run for tens of millions of
// simulated time steps (Fig. 7 reports a 65-million-step run), which is
// only feasible in virtual time. The scheduler orders events by
// (time, sequence) so that simulations are fully deterministic: two runs
// with the same seed and the same schedule produce identical transcripts.
package simclock

import "container/heap"

// Time is a point in virtual time. The unit is whatever the simulation
// chooses (the paper's experiments count voting rounds).
type Time int64

// Event is a scheduled callback. The callback receives the scheduler so
// that it can schedule follow-up events.
type Event func(*Scheduler)

type item struct {
	at  Time
	seq uint64
	fn  Event
}

type eventQueue []*item

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *eventQueue) Push(x any) { *q = append(*q, x.(*item)) }

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// Scheduler is a deterministic discrete-event scheduler. The zero value
// is not usable; call New.
type Scheduler struct {
	now   Time
	seq   uint64
	queue eventQueue
}

// New returns an empty scheduler at time zero.
func New() *Scheduler {
	return &Scheduler{}
}

// Now reports the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Pending reports the number of events waiting to run.
func (s *Scheduler) Pending() int { return len(s.queue) }

// At schedules fn to run at absolute time t. Events scheduled for the
// past run at the current time, preserving FIFO order among same-time
// events.
func (s *Scheduler) At(t Time, fn Event) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.queue, &item{at: t, seq: s.seq, fn: fn})
}

// After schedules fn to run d units after the current time.
func (s *Scheduler) After(d Time, fn Event) {
	s.At(s.now+d, fn)
}

// Every schedules fn to run every interval units, starting after one
// interval, until fn returns false. interval must be positive.
func (s *Scheduler) Every(interval Time, fn func(*Scheduler) bool) {
	if interval <= 0 {
		panic("simclock: Every requires a positive interval")
	}
	var tick Event
	tick = func(sc *Scheduler) {
		if fn(sc) {
			sc.After(interval, tick)
		}
	}
	s.After(interval, tick)
}

// Step runs the single earliest event, advancing the clock to its time.
// It reports whether an event was run.
func (s *Scheduler) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	it := heap.Pop(&s.queue).(*item)
	s.now = it.at
	it.fn(s)
	return true
}

// Run executes events until the queue is empty or the clock would pass
// horizon (events at exactly horizon still run). It returns the number of
// events executed. A horizon of 0 or less means "no horizon".
func (s *Scheduler) Run(horizon Time) int {
	n := 0
	for len(s.queue) > 0 {
		if horizon > 0 && s.queue[0].at > horizon {
			break
		}
		s.Step()
		n++
	}
	return n
}

// RunAll executes events until the queue is empty and returns the number
// of events executed.
func (s *Scheduler) RunAll() int {
	return s.Run(0)
}
