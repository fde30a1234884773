// Auto-shrinking of failing specs.
//
// A generated failure is rarely a good reproducer: it arrives wrapped
// in unrelated phases, spectator watchdogs, a horizon ten times longer
// than the bug needs. Shrink minimizes greedily — drop whole
// components first (phases, replays, watchdogs, the executor, the
// teardown), then bisect the horizon, then zero parameters — accepting
// a candidate only when it still fails with the exact signature of the
// original, and repeating passes to a fixpoint.
//
// Every candidate, horizon probes included, is replayed from step zero:
// generated horizons are a few thousand steps and a run takes
// milliseconds, so a checkpointed prefix would save nothing.

package gen

import (
	"encoding/json"

	"aft/internal/scenario"
)

// shrinkBudget caps candidate executions per Shrink call, so a
// pathological spec cannot stall a campaign.
const shrinkBudget = 400

// Shrink minimizes a failing spec while preserving its failure
// signature (as classified by Check with the same diff setting). It
// returns the smallest spec found and the number of candidate
// executions spent. Shrinking a passing spec — or one whose signature
// does not match — is a no-op returning the spec unchanged.
func Shrink(spec scenario.Spec, sig string, diff bool) (scenario.Spec, int) {
	s := &shrinker{sig: sig, diff: diff, check: Check, memo: make(map[string]string)}
	return s.run(spec)
}

func (s *shrinker) run(spec scenario.Spec) (scenario.Spec, int) {
	if s.sig == "" || !s.fails(spec) {
		return spec, s.evals
	}
	best := spec
	for {
		improved := false
		for _, cand := range moves(best) {
			if s.evals >= shrinkBudget {
				return best, s.evals
			}
			if s.fails(cand) {
				best = cand
				improved = true
				break
			}
		}
		if !improved {
			if cand, ok := s.shrinkHorizon(best); ok {
				best = cand
				improved = true
			}
		}
		if !improved || s.evals >= shrinkBudget {
			return best, s.evals
		}
	}
}

type shrinker struct {
	sig  string
	diff bool
	// check classifies a candidate; Check in production, substitutable
	// so the shrinker's search is testable against synthetic oracles.
	check func(scenario.Spec, bool) (string, string)
	memo  map[string]string // canonical spec JSON -> signature
	evals int
}

// fails reports whether the candidate fails with the target signature.
// Invalid candidates never match; results are memoized so repeated
// candidates across passes cost nothing.
func (s *shrinker) fails(cand scenario.Spec) bool {
	if cand.Validate() != nil {
		return false
	}
	data, err := json.Marshal(cand)
	if err != nil {
		return false
	}
	key := string(data)
	got, ok := s.memo[key]
	if !ok {
		if s.evals >= shrinkBudget {
			return false
		}
		s.evals++
		got, _ = s.check(cand, s.diff)
		s.memo[key] = got
	}
	return got == s.sig
}

// cloneSpec deep-copies a spec so a candidate mutation cannot alias
// the champion's slices.
func cloneSpec(s scenario.Spec) scenario.Spec {
	out := s
	out.Phases = append([]scenario.Phase(nil), s.Phases...)
	for i := range out.Phases {
		out.Phases[i].Model.Strikes = append([]int64(nil), out.Phases[i].Model.Strikes...)
	}
	out.Watchdogs = append([]scenario.WatchdogSpec(nil), s.Watchdogs...)
	out.Replays = append([]scenario.ReplaySpec(nil), s.Replays...)
	if s.Executor != nil {
		e := *s.Executor
		out.Executor = &e
	}
	return out
}

// moves generates one pass's candidates, largest reductions first:
// structural drops, then parameter simplifications. Candidates that
// fail validation (for example dropping the watchdogs while a crash
// phase remains) are filtered by the caller's fails check.
func moves(best scenario.Spec) []scenario.Spec {
	var out []scenario.Spec
	if len(best.Phases) > 1 {
		for i := len(best.Phases) - 1; i >= 0; i-- {
			c := cloneSpec(best)
			c.Phases = append(c.Phases[:i], c.Phases[i+1:]...)
			c.Phases[0].Start = 0
			out = append(out, c)
		}
	}
	for i := len(best.Replays) - 1; i >= 0; i-- {
		c := cloneSpec(best)
		c.Replays = append(c.Replays[:i], c.Replays[i+1:]...)
		out = append(out, c)
	}
	for i := len(best.Watchdogs) - 1; i >= 0; i-- {
		c := cloneSpec(best)
		c.Watchdogs = append(c.Watchdogs[:i], c.Watchdogs[i+1:]...)
		out = append(out, c)
	}
	if best.TeardownAt > 0 {
		c := cloneSpec(best)
		c.TeardownAt = 0
		out = append(out, c)
	}
	if best.Executor != nil {
		c := cloneSpec(best)
		c.Executor = nil
		out = append(out, c)
	}
	for i := range best.Phases {
		out = append(out, phaseMoves(best, i)...)
	}
	if e := best.Executor; e != nil && (e.Spares > 0 || e.MaxRetries > 0) {
		c := cloneSpec(best)
		c.Executor.Spares, c.Executor.MaxRetries = 0, 0
		out = append(out, c)
	}
	return out
}

// phaseMoves simplifies one phase: zero its parameters one at a time
// and replace its model with a simpler one.
func phaseMoves(best scenario.Spec, i int) []scenario.Spec {
	var out []scenario.Spec
	edit := func(f func(p *scenario.Phase)) {
		c := cloneSpec(best)
		f(&c.Phases[i])
		out = append(out, c)
	}
	p := best.Phases[i]
	if p.Corrupt > 1 {
		edit(func(p *scenario.Phase) { p.Corrupt = 1 })
	}
	if p.Collude {
		edit(func(p *scenario.Phase) { p.Collude = false })
	}
	if p.Partition {
		edit(func(p *scenario.Phase) { p.Partition = false })
	}
	if p.Corrupt > 0 {
		edit(func(p *scenario.Phase) { p.Corrupt, p.Collude = 0, false })
	}
	if p.Skew > 1 {
		edit(func(p *scenario.Phase) { p.Skew = 1 })
	}
	if p.Skew > 0 {
		edit(func(p *scenario.Phase) { p.Skew = 0 })
	}
	if p.Crash {
		edit(func(p *scenario.Phase) { p.Crash = false })
	}
	if p.Upset {
		edit(func(p *scenario.Phase) { p.Upset = false })
	}
	if p.Latch {
		edit(func(p *scenario.Phase) { p.Latch = false })
	}
	switch p.Model.Kind {
	case "burst":
		edit(func(p *scenario.Phase) {
			p.Model = scenario.ModelSpec{Kind: "bernoulli", P: p.Model.PBad}
		})
		edit(func(p *scenario.Phase) { p.Model = scenario.ModelSpec{Kind: "always"} })
	case "bernoulli":
		if p.Model.P > 0 && p.Model.P < 1 {
			edit(func(p *scenario.Phase) { p.Model = scenario.ModelSpec{Kind: "always"} })
		}
	case "scripted":
		if len(p.Model.Strikes) > 1 {
			edit(func(p *scenario.Phase) { p.Model.Strikes = p.Model.Strikes[:1] })
		}
	}
	return out
}

// minHorizon is the smallest horizon that keeps every phase start,
// scripted strike, teardown, and replay inside the run.
func minHorizon(sp scenario.Spec) int64 {
	var m int64 = 1
	for _, p := range sp.Phases {
		if p.Start+1 > m {
			m = p.Start + 1
		}
		for _, st := range p.Model.Strikes {
			if p.Start+st+1 > m {
				m = p.Start + st + 1
			}
		}
	}
	if sp.TeardownAt > m {
		m = sp.TeardownAt
	}
	for _, r := range sp.Replays {
		if r.At+1 > m {
			m = r.At + 1
		}
	}
	return m
}

// shrinkHorizon binary-searches the smallest failing horizon. Each
// probe goes through fails, so it is validated and memoized like any
// other candidate.
func (s *shrinker) shrinkHorizon(best scenario.Spec) (scenario.Spec, bool) {
	lo, hi := minHorizon(best), best.Horizon
	if lo >= hi {
		return best, false
	}
	withHorizon := func(h int64) scenario.Spec {
		cand := cloneSpec(best)
		cand.Horizon = h
		return cand
	}
	for lo < hi {
		if s.evals >= shrinkBudget {
			return best, false
		}
		mid := lo + (hi-lo)/2
		if s.fails(withHorizon(mid)) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if hi >= best.Horizon {
		return best, false
	}
	return withHorizon(hi), true
}
