package watchdog

import (
	"testing"

	"aft/internal/simclock"
)

// TestSkewFiresOnHealthyTask: a clock-skewed watchdog reads the
// silence as longer than it is — a task beating well inside the
// deadline still gets shot once the skew pushes the apparent silence
// past it. This is the chaos harness's "skew" fault model.
func TestSkewFiresOnHealthyTask(t *testing.T) {
	s := simclock.New()
	var fires []simclock.Time
	w, err := New(Config{Interval: 10, Deadline: 15},
		func(now simclock.Time) { fires = append(fires, now) })
	if err != nil {
		t.Fatal(err)
	}
	w.Start(s)
	s.Every(10, func(sc *simclock.Scheduler) bool {
		w.Beat(sc.Now())
		return sc.Now() < 200
	})
	// Skew the watchdog clock 20 ahead from t=50: at the t=50 check the
	// last beat is at 50 but beats race checks at equal times, so the
	// worst apparent silence is 20 + (check - lastBeat) = 20..30 > 15.
	s.At(45, func(*simclock.Scheduler) { w.SetSkew(20) })
	s.At(95, func(*simclock.Scheduler) { w.SetSkew(0) })
	s.Run(200)
	if len(fires) == 0 {
		t.Fatal("skewed watchdog never fired on a healthy task")
	}
	for _, at := range fires {
		if at < 50 || at > 100 {
			t.Fatalf("fired at %d, outside the skewed window [50,100]: %v", at, fires)
		}
	}
}

// TestSkewWithinToleranceIsHarmless: skew smaller than the deadline
// slack never fires — the boundary is deadline-exclusive, matching the
// unskewed check.
func TestSkewWithinToleranceIsHarmless(t *testing.T) {
	s := simclock.New()
	w, err := New(Config{Interval: 10, Deadline: 25}, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Start(s)
	s.Every(10, func(sc *simclock.Scheduler) bool {
		w.Beat(sc.Now())
		return sc.Now() < 200
	})
	// Apparent silence at a check is at most skew + interval = 25, not
	// strictly greater than the deadline: never fires.
	w.SetSkew(15)
	s.Run(200)
	if w.Fires() != 0 {
		t.Fatalf("tolerated skew fired %d times", w.Fires())
	}
}
