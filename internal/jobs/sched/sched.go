// Package sched is the job server's admission scheduler: a
// deterministic priority + per-client fair queue that replaces FIFO
// dispatch for every lease grant, to in-process holders and fleet
// workers alike.
//
// Structure: every job belongs to a priority class (high, normal, low)
// and a client (the submitter's self-reported ID; jobs without one
// share the anonymous client ""). Within a class each client has its
// own FIFO; the class serves clients round-robin in first-arrival
// order, so a client that dumps a thousand jobs only delays itself —
// a trickle client's next job is at the head of its own queue and is
// reached within one sweep of the client ring. Across classes, grants
// follow a fixed weighted cycle (high ×4, normal ×2, low ×1): a slot
// whose class is empty falls through to the next class in cycle order,
// so the scheduler is work-conserving, and because every class owns
// slots in every cycle, no class — and therefore no job — can starve
// regardless of what higher classes do.
//
// Starvation bound, by construction: a job at depth d in its client's
// queue, with c clients active in its class, is granted within at most
// cycleLen·c·(d+1) grants (each full cycle gives the class at least
// its weight in slots; each class turn advances the client ring by
// one). TestStarvationBound asserts this property over randomized
// workloads.
//
// The queue is deliberately not safe for concurrent use: the jobs
// server guards it with its own mutex, and single-threaded dispatch is
// what keeps grant order deterministic — the same submission sequence
// always dispatches in the same order, which the table tests pin.
package sched

// Class is a job's priority class.
type Class string

// Priority classes, strongest first. The empty string is accepted as
// ClassNormal everywhere so specs without a priority field behave as
// before the field existed.
const (
	ClassHigh   Class = "high"
	ClassNormal Class = "normal"
	ClassLow    Class = "low"
)

// classes orders the classes as the weighted cycle visits them.
var classes = []Class{ClassHigh, ClassNormal, ClassLow}

// Weight reports a class's share of the grant cycle.
func Weight(c Class) int {
	switch c {
	case ClassHigh:
		return 4
	case ClassLow:
		return 1
	default:
		return 2
	}
}

// Canon maps the empty class to ClassNormal and reports whether the
// name is a known class at all.
func Canon(c Class) (Class, bool) {
	switch c {
	case "":
		return ClassNormal, true
	case ClassHigh, ClassNormal, ClassLow:
		return c, true
	default:
		return c, false
	}
}

// Item is one queued job.
type Item struct {
	// ID is the job's content-addressed ID.
	ID string
	// Client is the submitting client; "" is the shared anonymous
	// client.
	Client string
	// Class is the job's priority class ("" means normal).
	Class Class
}

// clientQueue is one client's FIFO within a class.
type clientQueue struct {
	client string
	items  []Item
}

// classState is one priority class's client ring.
type classState struct {
	// ring holds the clients with queued work, in first-arrival order;
	// cursor is the next client to serve. A drained client leaves the
	// ring and re-enters at the tail when it queues again.
	ring    []*clientQueue
	cursor  int
	clients map[string]*clientQueue
	n       int
}

// Mode selects the dispatch discipline.
type Mode string

// Dispatch modes.
const (
	// Fair is the priority + per-client weighted round-robin described
	// in the package comment.
	Fair Mode = "fair"
	// FIFO dispatches strictly in push order, ignoring class and
	// client — the pre-scheduler behaviour, kept as the load-test
	// baseline.
	FIFO Mode = "fifo"
)

// Queue is the scheduler. Construct with New; not safe for concurrent
// use (the caller brings its own lock).
type Queue struct {
	mode    Mode
	byClass map[Class]*classState
	fifo    []Item
	// cycle is the static weighted grant cycle; pos is the next slot.
	cycle []Class
	pos   int
	n     int
}

// New returns an empty queue with the given dispatch mode.
func New(mode Mode) *Queue {
	q := &Queue{mode: mode, byClass: make(map[Class]*classState)}
	for _, c := range classes {
		q.byClass[c] = &classState{clients: make(map[string]*clientQueue)}
		for i := 0; i < Weight(c); i++ {
			q.cycle = append(q.cycle, c)
		}
	}
	return q
}

// Mode reports the queue's dispatch discipline.
func (q *Queue) Mode() Mode { return q.mode }

// Len reports the number of queued items.
func (q *Queue) Len() int { return q.n }

// ClientDepth reports how many items the client has queued across all
// classes.
func (q *Queue) ClientDepth(client string) int {
	if q.mode == FIFO {
		n := 0
		for _, it := range q.fifo {
			if it.Client == client {
				n++
			}
		}
		return n
	}
	n := 0
	for _, c := range classes {
		if cq, ok := q.byClass[c].clients[client]; ok {
			n += len(cq.items)
		}
	}
	return n
}

// Push appends the item to its client's queue tail.
func (q *Queue) Push(it Item) { q.push(it, false) }

// PushFront puts the item at its client's queue head — the requeue
// path for jobs handed back mid-flight (an expired lease, a shard
// boundary), which must not lose their turn to jobs submitted after
// them.
func (q *Queue) PushFront(it Item) { q.push(it, true) }

func (q *Queue) push(it Item, front bool) {
	q.n++
	if q.mode == FIFO {
		if front {
			q.fifo = append([]Item{it}, q.fifo...)
		} else {
			q.fifo = append(q.fifo, it)
		}
		return
	}
	class, _ := Canon(it.Class)
	cs := q.byClass[class]
	cq, ok := cs.clients[it.Client]
	if !ok {
		cq = &clientQueue{client: it.Client}
		cs.clients[it.Client] = cq
	}
	if len(cq.items) == 0 {
		cs.ring = append(cs.ring, cq)
	}
	if front {
		cq.items = append([]Item{it}, cq.items...)
	} else {
		cq.items = append(cq.items, it)
	}
	cs.n++
}

// Pop removes and returns the next item to dispatch. ok is false when
// the queue is empty.
func (q *Queue) Pop() (it Item, ok bool) {
	if q.n == 0 {
		return Item{}, false
	}
	q.n--
	if q.mode == FIFO {
		it = q.fifo[0]
		q.fifo = q.fifo[1:]
		return it, true
	}
	// Scan the weighted cycle from the cursor for a non-empty class; a
	// hit consumes that slot (the cursor moves past it), a miss falls
	// through, so busy classes get exactly their weighted share while
	// idle slots are donated to whoever has work.
	for i := 0; i < len(q.cycle); i++ {
		slot := (q.pos + i) % len(q.cycle)
		cs := q.byClass[q.cycle[slot]]
		if cs.n == 0 {
			continue
		}
		q.pos = (slot + 1) % len(q.cycle)
		return cs.pop(), true
	}
	panic("sched: queue count positive but no class has work")
}

// pop serves the class's current client and advances the ring.
func (cs *classState) pop() Item {
	if cs.cursor >= len(cs.ring) {
		cs.cursor = 0
	}
	cq := cs.ring[cs.cursor]
	it := cq.items[0]
	cq.items = cq.items[1:]
	cs.n--
	if len(cq.items) == 0 {
		// The client drained: leave the ring; the cursor now points at
		// the next client (or wraps).
		cs.ring = append(cs.ring[:cs.cursor], cs.ring[cs.cursor+1:]...)
		if cs.cursor >= len(cs.ring) {
			cs.cursor = 0
		}
	} else {
		cs.cursor = (cs.cursor + 1) % len(cs.ring)
	}
	return it
}

// Remove deletes the queued item with the given job ID and reports
// whether it was present. Cancellation is the only caller, so the
// linear scan is over a single client's typically short queue.
func (q *Queue) Remove(id string) bool {
	if q.mode == FIFO {
		for i, it := range q.fifo {
			if it.ID == id {
				q.fifo = append(q.fifo[:i], q.fifo[i+1:]...)
				q.n--
				return true
			}
		}
		return false
	}
	for _, c := range classes {
		cs := q.byClass[c]
		for ri, cq := range cs.ring {
			for i, it := range cq.items {
				if it.ID != id {
					continue
				}
				cq.items = append(cq.items[:i], cq.items[i+1:]...)
				cs.n--
				q.n--
				if len(cq.items) == 0 {
					cs.ring = append(cs.ring[:ri], cs.ring[ri+1:]...)
					// The cursor shifts left with the ring when it sat past
					// the removed client, and wraps if it fell off the end;
					// cursor == ri already points at the next client.
					if cs.cursor > ri {
						cs.cursor--
					}
					if cs.cursor >= len(cs.ring) {
						cs.cursor = 0
					}
				}
				return true
			}
		}
	}
	return false
}
