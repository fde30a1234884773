package sched

import (
	"fmt"
	"math/rand"
	"testing"
)

// popAll drains the queue and returns the dispatched job IDs in grant
// order.
func popAll(t *testing.T, q *Queue) []string {
	t.Helper()
	var out []string
	for {
		it, ok := q.Pop()
		if !ok {
			break
		}
		out = append(out, it.ID)
	}
	if q.Len() != 0 {
		t.Fatalf("queue drained but Len() = %d", q.Len())
	}
	return out
}

func assertOrder(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("dispatched %d jobs, want %d\ngot  %v\nwant %v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grant %d = %s, want %s\ngot  %v\nwant %v", i, got[i], want[i], got, want)
		}
	}
}

// TestDispatchOrder pins the exact grant order for the scenarios the
// scheduler exists to fix: a burst client swamping a trickle client, a
// low-priority backlog under a high-priority burst (priority inversion),
// a client joining mid-stream, and a mixed-class mixed-client workload.
func TestDispatchOrder(t *testing.T) {
	cases := []struct {
		name string
		run  func(q *Queue)
		want []string
	}{
		{
			// Client A dumps six jobs before trickle client B submits
			// one. In push order B would wait behind all of A; the fair
			// queue grants B's single job second.
			name: "burst vs trickle",
			run: func(q *Queue) {
				for i := 1; i <= 6; i++ {
					q.Push(Item{ID: fmt.Sprintf("a%d", i), Client: "A"})
				}
				q.Push(Item{ID: "b1", Client: "B"})
			},
			want: []string{"a1", "b1", "a2", "a3", "a4", "a5", "a6"},
		},
		{
			// Ten low-priority jobs are already queued when ten
			// high-priority jobs arrive. High gets its 4×-weighted
			// share immediately, but low is served once per cycle —
			// never starved — and inherits all slots once high drains.
			name: "priority inversion",
			run: func(q *Queue) {
				for i := 1; i <= 10; i++ {
					q.Push(Item{ID: fmt.Sprintf("l%d", i), Client: "L", Class: ClassLow})
				}
				for i := 1; i <= 10; i++ {
					q.Push(Item{ID: fmt.Sprintf("h%d", i), Client: "H", Class: ClassHigh})
				}
			},
			want: []string{
				"h1", "h2", "h3", "h4", "l1",
				"h5", "h6", "h7", "h8", "l2",
				"h9", "h10",
				"l3", "l4", "l5", "l6", "l7", "l8", "l9", "l10",
			},
		},
		{
			// Client B joins after A's first grant and interleaves from
			// its next ring turn instead of queuing behind A's backlog.
			name: "client joins mid-stream",
			run: func(q *Queue) {
				for i := 1; i <= 4; i++ {
					q.Push(Item{ID: fmt.Sprintf("a%d", i), Client: "A"})
				}
				if it, ok := q.Pop(); !ok || it.ID != "a1" {
					panic("setup: first grant not a1")
				}
				q.Push(Item{ID: "b1", Client: "B"})
				q.Push(Item{ID: "b2", Client: "B"})
			},
			want: []string{"a2", "b1", "a3", "b2", "a4"},
		},
		{
			// Mixed classes and clients: class weights order the
			// classes, the ring orders clients within normal.
			name: "mixed classes and clients",
			run: func(q *Queue) {
				q.Push(Item{ID: "n1a", Client: "n1"})
				q.Push(Item{ID: "la", Client: "l1", Class: ClassLow})
				q.Push(Item{ID: "ha", Client: "h1", Class: ClassHigh})
				q.Push(Item{ID: "n2a", Client: "n2", Class: ClassNormal})
				q.Push(Item{ID: "hb", Client: "h1", Class: ClassHigh})
			},
			want: []string{"ha", "hb", "n1a", "n2a", "la"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := New(Fair)
			tc.run(q)
			assertOrder(t, popAll(t, q), tc.want)
		})
	}
}

// TestPushFrontRequeue verifies a requeued job resumes at its client's
// queue head: it does not lose its turn to jobs submitted after it, and
// other clients' ring turns are unaffected.
func TestPushFrontRequeue(t *testing.T) {
	q := New(Fair)
	q.Push(Item{ID: "a1", Client: "A"})
	q.Push(Item{ID: "a2", Client: "A"})
	q.Push(Item{ID: "b1", Client: "B"})
	it, ok := q.Pop()
	if !ok || it.ID != "a1" {
		t.Fatalf("first grant %v, want a1", it)
	}
	q.PushFront(it) // lease expired: hand a1 back
	assertOrder(t, popAll(t, q), []string{"b1", "a1", "a2"})
}

// TestRemove verifies cancellation splices a queued job out without
// disturbing the grant order of the rest.
func TestRemove(t *testing.T) {
	q := New(Fair)
	q.Push(Item{ID: "a1", Client: "A"})
	q.Push(Item{ID: "a2", Client: "A"})
	q.Push(Item{ID: "b1", Client: "B", Class: ClassHigh})
	if !q.Remove("a1") {
		t.Fatal("Remove(a1) = false, want true")
	}
	if q.Remove("a1") {
		t.Fatal("second Remove(a1) = true, want false")
	}
	if q.Remove("absent") {
		t.Fatal("Remove(absent) = true, want false")
	}
	if q.Len() != 2 {
		t.Fatalf("Len() = %d after removal, want 2", q.Len())
	}
	assertOrder(t, popAll(t, q), []string{"b1", "a2"})
}

// TestRemoveDrainsClient removes the last queued job of a client that
// sits behind the ring cursor and checks the ring stays consistent.
func TestRemoveDrainsClient(t *testing.T) {
	q := New(Fair)
	q.Push(Item{ID: "a1", Client: "A"})
	q.Push(Item{ID: "b1", Client: "B"})
	q.Push(Item{ID: "c1", Client: "C"})
	if it, _ := q.Pop(); it.ID != "a1" {
		t.Fatalf("first grant %s, want a1", it.ID)
	}
	if !q.Remove("c1") {
		t.Fatal("Remove(c1) = false, want true")
	}
	assertOrder(t, popAll(t, q), []string{"b1"})
}

// TestCanonAndWeight pins the class canonicalization and cycle weights
// the docs promise.
func TestCanonAndWeight(t *testing.T) {
	for _, tc := range []struct {
		in   Class
		want Class
		ok   bool
	}{
		{"", ClassNormal, true},
		{ClassHigh, ClassHigh, true},
		{ClassNormal, ClassNormal, true},
		{ClassLow, ClassLow, true},
		{"urgent", "urgent", false},
	} {
		got, ok := Canon(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Fatalf("Canon(%q) = %q, %v; want %q, %v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
	if Weight(ClassHigh) != 4 || Weight(ClassNormal) != 2 || Weight(ClassLow) != 1 || Weight("") != 2 {
		t.Fatal("class weights drifted from 4/2/1")
	}
}

// TestDeterministicReplay runs the same seeded workload through two
// fresh queues and requires identical grant order — the property the
// server's pinned transcripts rely on.
func TestDeterministicReplay(t *testing.T) {
	build := func() []string {
		q := New(Fair)
		rng := rand.New(rand.NewSource(42))
		classes := []Class{ClassHigh, ClassNormal, ClassLow, ""}
		var out []string
		for i := 0; i < 300; i++ {
			if rng.Intn(3) == 0 {
				if it, ok := q.Pop(); ok {
					out = append(out, it.ID)
				}
				continue
			}
			q.Push(Item{
				ID:     fmt.Sprintf("j%d", i),
				Client: fmt.Sprintf("c%d", rng.Intn(6)),
				Class:  classes[rng.Intn(len(classes))],
			})
		}
		return append(out, popAll(t, q)...)
	}
	a, b := build(), build()
	assertOrder(t, a, b)
}

// TestStarvationBound is the starvation property test: for any
// workload, a job at depth d of its client's queue in a class with c
// active clients is granted within cycleLen·c·(d+1) grants, where
// cycleLen is the total cycle weight (7). No job waits forever, no
// matter how much higher-priority or same-class traffic exists.
func TestStarvationBound(t *testing.T) {
	const cycleLen = 7
	rng := rand.New(rand.NewSource(7))
	q := New(Fair)
	classNames := []Class{ClassHigh, ClassNormal, ClassLow}

	type pushed struct {
		class Class
		depth int // items already queued for this client+class
	}
	depth := make(map[string]int) // client|class -> queued count
	meta := make(map[string]pushed)
	clientsIn := make(map[Class]map[string]bool)
	for _, c := range classNames {
		clientsIn[c] = make(map[string]bool)
	}

	const jobs = 400
	for i := 0; i < jobs; i++ {
		class := classNames[rng.Intn(len(classNames))]
		client := fmt.Sprintf("c%d", rng.Intn(8))
		key := client + "|" + string(class)
		id := fmt.Sprintf("j%d", i)
		meta[id] = pushed{class: class, depth: depth[key]}
		depth[key]++
		clientsIn[class][client] = true
		q.Push(Item{ID: id, Client: client, Class: class})
	}

	grant := 0
	for {
		it, ok := q.Pop()
		if !ok {
			break
		}
		grant++
		m := meta[it.ID]
		bound := cycleLen * len(clientsIn[m.class]) * (m.depth + 1)
		if grant > bound {
			t.Fatalf("job %s (class %s, client depth %d) granted at %d, bound %d",
				it.ID, m.class, m.depth, grant, bound)
		}
		// Later jobs see one fewer grant ahead of them: shift every
		// remaining job's budget by resetting the counter is wrong —
		// the bound is measured from queue start, and all jobs were
		// pushed before the first grant, so the absolute grant index
		// is the right clock.
	}
	if grant != jobs {
		t.Fatalf("granted %d jobs, want %d", grant, jobs)
	}
}
