// Package watchdog implements the heartbeat watchdog of the paper's
// Fig. 4 scenario: a watchdog task observes a watched task; when the
// watched task stays silent past its deadline the watchdog "fires", and
// each firing feeds the alpha-count oracle that discriminates transient
// from permanent faults.
//
// The watchdog runs in virtual time on a simclock.Scheduler so that the
// Fig. 4 experiment is deterministic.
package watchdog

import (
	"fmt"

	"aft/internal/simclock"
)

// Config parameterizes a watchdog.
type Config struct {
	// Interval is the period between watchdog checks.
	Interval simclock.Time
	// Deadline is the maximum silence tolerated since the last
	// heartbeat; longer silences fire the watchdog.
	Deadline simclock.Time
}

// Watchdog monitors heartbeats in virtual time. It keeps firing once per
// check interval for as long as the watched task stays silent, matching
// the repeated firings of Fig. 4.
type Watchdog struct {
	cfg      Config
	onFire   func(now simclock.Time)
	lastBeat simclock.Time
	started  bool
	stopped  bool
	// gen identifies the live check chain. Each Start increments it;
	// a chain whose generation no longer matches unschedules itself, so
	// a stop→start cycle can never leave two chains ticking.
	gen   uint64
	fires int64
	beats int64
	// skew is the watchdog's local-clock offset: a positive skew means
	// the watchdog's clock runs ahead of the heartbeat timeline, so a
	// perfectly live task looks older than it is and a skew past the
	// deadline fires the watchdog spuriously. See SetSkew.
	skew simclock.Time
}

// New builds a watchdog. onFire runs on every firing; it may be nil.
func New(cfg Config, onFire func(now simclock.Time)) (*Watchdog, error) {
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("watchdog: interval must be positive, got %d", cfg.Interval)
	}
	if cfg.Deadline <= 0 {
		return nil, fmt.Errorf("watchdog: deadline must be positive, got %d", cfg.Deadline)
	}
	return &Watchdog{cfg: cfg, onFire: onFire}, nil
}

// Start schedules the periodic checks. The last-heartbeat time starts at
// the current virtual time, so a healthy task has a full deadline before
// the first possible firing.
//
// Starting a running watchdog is a no-op; starting a stopped one
// restarts it with a fresh deadline window, retiring any check events of
// the previous chain that are still in the scheduler's queue.
func (w *Watchdog) Start(s *simclock.Scheduler) {
	if w.started && !w.stopped {
		return
	}
	w.started = true
	w.stopped = false
	w.gen++
	gen := w.gen
	w.lastBeat = s.Now()
	s.Every(w.cfg.Interval, func(sc *simclock.Scheduler) bool {
		if w.stopped || w.gen != gen {
			return false
		}
		w.check(sc.Now())
		return true
	})
}

// check fires if the watched task has been silent past the deadline,
// as judged by the watchdog's own (possibly skewed) clock.
func (w *Watchdog) check(now simclock.Time) {
	if now+w.skew-w.lastBeat <= w.cfg.Deadline {
		return
	}
	w.fires++
	if w.onFire != nil {
		w.onFire(now)
	}
}

// SetSkew offsets the watchdog's local clock by d virtual time units:
// every subsequent check judges silence as if the current time were
// now+d. It models the clock-skew fault of distributed heartbeating —
// a watchdog whose clock drifts ahead of the watched task's sees
// heartbeats age prematurely and, once the skew exceeds the deadline
// slack, fires on a perfectly healthy task. Negative skews (a lagging
// watchdog clock, tolerating longer silences) are accepted too. Skew
// can be changed at any time; it takes effect at the next check.
func (w *Watchdog) SetSkew(d simclock.Time) { w.skew = d }

// Skew reports the watchdog's current local-clock offset.
func (w *Watchdog) Skew() simclock.Time { return w.skew }

// Beat records a heartbeat from the watched task at the given virtual
// time.
func (w *Watchdog) Beat(now simclock.Time) {
	w.beats++
	if now > w.lastBeat {
		w.lastBeat = now
	}
}

// Stop cancels future checks (takes effect at the next scheduled check).
// A stopped watchdog can be restarted with Start.
func (w *Watchdog) Stop() { w.stopped = true }

// Fires reports how many times the watchdog has fired.
func (w *Watchdog) Fires() int64 { return w.fires }

// Beats reports how many heartbeats were received.
func (w *Watchdog) Beats() int64 { return w.beats }

// LastBeat reports the virtual time of the most recent heartbeat.
func (w *Watchdog) LastBeat() simclock.Time { return w.lastBeat }
