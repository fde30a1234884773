package lease

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a mutex-guarded manual clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newFake() (*fakeClock, *Table) {
	c := &fakeClock{t: time.Unix(1000, 0)}
	return c, NewTable(time.Second, c.now)
}

func TestAcquireRenewRelease(t *testing.T) {
	clk, tb := newFake()
	l, err := tb.Acquire("j1", "w1")
	if err != nil {
		t.Fatal(err)
	}
	if l.Token != 1 || l.Worker != "w1" || !l.Deadline.Equal(clk.now().Add(time.Second)) {
		t.Fatalf("grant %+v", l)
	}
	if err := tb.Check("j1", "w1", l.Token); err != nil {
		t.Fatalf("holder's check rejected: %v", err)
	}
	clk.advance(500 * time.Millisecond)
	r, err := tb.Renew("j1", "w1", l.Token)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Deadline.Equal(clk.now().Add(time.Second)) {
		t.Fatalf("renewed deadline %v", r.Deadline)
	}
	if err := tb.Release("j1", "w1", l.Token); err != nil {
		t.Fatal(err)
	}
	// The released token is dead even though nobody re-acquired.
	if err := tb.Check("j1", "w1", l.Token); !IsFenced(err) {
		t.Fatalf("released token still valid: %v", err)
	}
	// The next grant's token advances past the released one.
	l2, err := tb.Acquire("j1", "w2")
	if err != nil {
		t.Fatal(err)
	}
	if l2.Token != 2 {
		t.Fatalf("token after release = %d, want 2", l2.Token)
	}
}

func TestContentionExactlyOneWinner(t *testing.T) {
	_, tb := newFake()
	const racers = 32
	var wins, held atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, err := tb.Acquire("contested", fmt.Sprintf("w%d", i))
			switch {
			case err == nil:
				wins.Add(1)
			case errors.As(err, &HeldError{}):
				held.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	if wins.Load() != 1 || held.Load() != racers-1 {
		t.Fatalf("wins=%d held=%d, want exactly one winner", wins.Load(), held.Load())
	}
}

func TestExpiryTakeoverFencesOldHolder(t *testing.T) {
	clk, tb := newFake()
	l1, err := tb.Acquire("j", "slow")
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(time.Second) // deadline reached: expired
	if _, ok := tb.Holder("j"); ok {
		t.Fatal("expired lease still reported live")
	}
	l2, err := tb.Acquire("j", "fast")
	if err != nil {
		t.Fatalf("takeover of expired lease failed: %v", err)
	}
	if l2.Token != l1.Token+1 {
		t.Fatalf("takeover token %d, want %d", l2.Token, l1.Token+1)
	}
	// The old holder's writes are fenced, renew included.
	if err := tb.Check("j", "slow", l1.Token); !IsFenced(err) {
		t.Fatalf("old token not fenced: %v", err)
	}
	if _, err := tb.Renew("j", "slow", l1.Token); !IsFenced(err) {
		t.Fatalf("old renew not fenced: %v", err)
	}
	// The new holder is untouched.
	if err := tb.Check("j", "fast", l2.Token); err != nil {
		t.Fatalf("new holder fenced: %v", err)
	}
}

// TestStaleWriteLeavesExpiryToReaper is the reproducer for a lapse the
// reaper could miss: a write that arrived after the deadline but before
// the next Expire used to evict the entry itself, so Expire never
// reported it and the coordinator never requeued the job.
func TestStaleWriteLeavesExpiryToReaper(t *testing.T) {
	clk, tb := newFake()
	l, err := tb.Acquire("j", "slow")
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(time.Second)
	if err := tb.Check("j", "slow", l.Token); !IsFenced(err) {
		t.Fatalf("write after the deadline: %v, want fenced", err)
	}
	if _, err := tb.Renew("j", "slow", l.Token); !IsFenced(err) {
		t.Fatalf("renew after the deadline: %v, want fenced", err)
	}
	if got := tb.Expire(); len(got) != 1 || got[0].Job != "j" || got[0].Token != l.Token {
		t.Fatalf("Expire after stale writes = %+v, want the lapsed lease", got)
	}
}

func TestExpireReapsAndRequeuesSorted(t *testing.T) {
	clk, tb := newFake()
	for _, j := range []string{"b", "a", "c"} {
		if _, err := tb.Acquire(j, "w"); err != nil {
			t.Fatal(err)
		}
	}
	clk.advance(500 * time.Millisecond)
	if _, err := tb.Acquire("d", "w"); err != nil { // fresher lease
		t.Fatal(err)
	}
	clk.advance(500 * time.Millisecond) // a, b, c expired; d alive
	got := tb.Expire()
	if len(got) != 3 || got[0].Job != "a" || got[1].Job != "b" || got[2].Job != "c" {
		t.Fatalf("expired %+v", got)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len after reap = %d", tb.Len())
	}
	if _, ok := tb.Holder("d"); !ok {
		t.Fatal("live lease reaped")
	}
	if tb.Expire() != nil {
		t.Fatal("second Expire returned leases")
	}
}

// TestErrorTexts pins the exact error strings the HTTP layer surfaces
// to workers; a text change is an API change and must be deliberate.
func TestErrorTexts(t *testing.T) {
	clk, tb := newFake()
	l, err := tb.Acquire("j77", "w1")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		err  error
		want string
	}{
		{
			name: "held",
			err: func() error {
				_, err := tb.Acquire("j77", "w2")
				return err
			}(),
			want: "lease: job j77 already held by worker w1",
		},
		{
			name: "superseded token",
			err: func() error {
				return tb.Check("j77", "w2", l.Token-1+0) // token 0: never issued
			}(),
			want: "lease: fenced: job j77 token 0 superseded by token 1",
		},
		{
			name: "wrong worker with current token",
			err:  tb.Check("j77", "w2", l.Token),
			want: "lease: fenced: job j77 token 1 held by another worker",
		},
		{
			name: "expired lease",
			err: func() error {
				clk.advance(2 * time.Second)
				return tb.Check("j77", "w1", l.Token)
			}(),
			want: "lease: fenced: job j77 token 1: no active lease",
		},
		{
			name: "released lease",
			err: func() error {
				l2, err := tb.Acquire("j77", "w3")
				if err != nil {
					t.Fatal(err)
				}
				if err := tb.Release("j77", "w3", l2.Token); err != nil {
					t.Fatal(err)
				}
				return tb.Check("j77", "w3", l2.Token)
			}(),
			want: "lease: fenced: job j77 token 2: no active lease",
		},
		{
			name: "never leased",
			err:  tb.Check("ghost", "w1", 9),
			want: "lease: fenced: job ghost token 9: no active lease",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.err == nil {
				t.Fatal("expected an error")
			}
			if got := tc.err.Error(); got != tc.want {
				t.Fatalf("error text\n got %q\nwant %q", got, tc.want)
			}
		})
	}
	// Sanity: the non-fenced error is not classified as fenced.
	if IsFenced(HeldError{Job: "j", Holder: "w"}) {
		t.Fatal("HeldError classified as fenced")
	}
}

// TestSingleWriterInvariantUnderContention hammers the table from many
// goroutines with a real clock and a tiny TTL, and asserts that at any
// instant at most one worker's Check passes per job — the invariant the
// distributed checkpoint uploads rely on. Run under -race in CI.
func TestSingleWriterInvariantUnderContention(t *testing.T) {
	tb := NewTable(2*time.Millisecond, nil)
	const workers, jobs = 8, 3
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("w%d", w)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for j := 0; j < jobs; j++ {
					job := fmt.Sprintf("job%d", j)
					l, err := tb.Acquire(job, name)
					if err != nil {
						continue
					}
					// While our lease is live, our token must check out
					// and every other token must be fenced.
					if err := tb.Check(job, name, l.Token); err != nil && !IsFenced(err) {
						t.Errorf("check: %v", err)
					}
					if err := tb.Check(job, name, l.Token+1); !IsFenced(err) {
						t.Errorf("future token accepted on %s", job)
					}
					if _, err := tb.Renew(job, name, l.Token); err != nil && !IsFenced(err) {
						t.Errorf("renew: %v", err)
					}
					_ = tb.Release(job, name, l.Token) // may be fenced by expiry: fine
				}
			}
		}(w)
	}
	reapDone := make(chan struct{})
	go func() {
		defer close(reapDone)
		for {
			select {
			case <-stop:
				return
			default:
				tb.Expire()
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	<-reapDone
}
