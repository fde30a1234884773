// Package alphacount implements the alpha-count filter of Bondavalli,
// Chiaradonna, Di Giandomenico and Grandoni ("Threshold-based mechanisms
// to discriminate transient from intermittent faults", IEEE ToC 2000),
// the count-and-threshold oracle at the heart of the paper's §3.2
// strategy and Fig. 4.
//
// The filter keeps a score α per monitored component. Each judgment
// updates it:
//
//	fault observed:   α ← α + 1
//	no fault:         α ← α · K        (0 ≤ K < 1)
//
// While α stays below the threshold αT the faults are deemed transient;
// once α ≥ αT the component is deemed affected by a permanent or
// intermittent fault (the label the paper's Fig. 4 prints when α crosses
// 3.0). An optional lower threshold adds hysteresis so that verdicts do
// not flap around αT.
package alphacount

import (
	"fmt"
	"sort"

	"aft/internal/faults"
)

// Verdict is the filter's current discrimination.
type Verdict int

// Verdicts.
const (
	// TransientVerdict means the observed faults look transient.
	TransientVerdict Verdict = iota + 1
	// PermanentVerdict means the fault pattern looks permanent or
	// intermittent ("permanent or intermittent" in Fig. 4).
	PermanentVerdict
)

// String returns the verdict label, matching Fig. 4's wording for the
// permanent case.
func (v Verdict) String() string {
	switch v {
	case TransientVerdict:
		return "transient"
	case PermanentVerdict:
		return "permanent or intermittent"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Class maps the verdict to the fault taxonomy: the class of pattern the
// environment is believed to exhibit.
func (v Verdict) Class() faults.Class {
	if v == PermanentVerdict {
		return faults.Permanent
	}
	return faults.Transient
}

// Config parameterizes a filter.
type Config struct {
	// K is the decay factor applied on fault-free judgments, in [0, 1).
	K float64
	// Threshold is αT: at α ≥ Threshold the verdict becomes
	// PermanentVerdict. Must be positive.
	Threshold float64
	// LowerThreshold adds hysteresis: once permanent, the verdict
	// returns to transient only when α decays to ≤ LowerThreshold.
	// Zero means "use Threshold" (no hysteresis).
	LowerThreshold float64
}

// DefaultConfig mirrors the paper's Fig. 4 experiment: threshold 3.0
// with a decay of 0.5 and mild hysteresis.
func DefaultConfig() Config {
	return Config{K: 0.5, Threshold: 3.0, LowerThreshold: 1.0}
}

// Filter is a single-component alpha-count instance. It is not safe for
// concurrent use.
type Filter struct {
	cfg     Config
	alpha   float64
	verdict Verdict

	judgments int64
	faults    int64
	flips     int64
}

// New builds a filter, validating the configuration.
func New(cfg Config) (*Filter, error) {
	if cfg.K < 0 || cfg.K >= 1 {
		return nil, fmt.Errorf("alphacount: K = %v out of [0,1)", cfg.K)
	}
	if cfg.Threshold <= 0 {
		return nil, fmt.Errorf("alphacount: threshold %v must be positive", cfg.Threshold)
	}
	if cfg.LowerThreshold < 0 || cfg.LowerThreshold > cfg.Threshold {
		return nil, fmt.Errorf("alphacount: lower threshold %v out of [0, %v]",
			cfg.LowerThreshold, cfg.Threshold)
	}
	if cfg.LowerThreshold == 0 {
		cfg.LowerThreshold = cfg.Threshold
	}
	return &Filter{cfg: cfg, verdict: TransientVerdict}, nil
}

// MustNew builds a filter and panics on configuration errors; for use
// with known-good constants.
func MustNew(cfg Config) *Filter {
	f, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// Alpha returns the current score.
func (f *Filter) Alpha() float64 { return f.alpha }

// Verdict returns the current discrimination.
func (f *Filter) Verdict() Verdict { return f.verdict }

// Config returns the filter's configuration.
func (f *Filter) Config() Config { return f.cfg }

// Fault records a fault judgment and returns the (possibly new) verdict.
func (f *Filter) Fault() Verdict {
	f.judgments++
	f.faults++
	f.alpha++
	f.update()
	return f.verdict
}

// OK records a fault-free judgment and returns the (possibly new)
// verdict.
func (f *Filter) OK() Verdict {
	f.judgments++
	f.alpha *= f.cfg.K
	f.update()
	return f.verdict
}

// Judge records a boolean judgment: true means a fault was observed.
func (f *Filter) Judge(fault bool) Verdict {
	if fault {
		return f.Fault()
	}
	return f.OK()
}

func (f *Filter) update() {
	switch f.verdict {
	case TransientVerdict:
		if f.alpha >= f.cfg.Threshold {
			f.verdict = PermanentVerdict
			f.flips++
		}
	case PermanentVerdict:
		if f.alpha <= f.cfg.LowerThreshold {
			f.verdict = TransientVerdict
			f.flips++
		}
	}
}

// Reset clears the score and verdict, e.g. after the faulty component
// was replaced.
func (f *Filter) Reset() {
	f.alpha = 0
	f.verdict = TransientVerdict
}

// Stats reports the number of judgments, faults and verdict flips seen.
func (f *Filter) Stats() (judgments, faultCount, flips int64) {
	return f.judgments, f.faults, f.flips
}

// Bank manages one filter per named component, creating them on demand
// with a shared configuration.
type Bank struct {
	cfg     Config
	filters map[string]*Filter
}

// NewBank builds a bank.
func NewBank(cfg Config) (*Bank, error) {
	if _, err := New(cfg); err != nil {
		return nil, err
	}
	return &Bank{cfg: cfg, filters: make(map[string]*Filter)}, nil
}

// Get returns (creating if needed) the filter for a component.
func (b *Bank) Get(component string) *Filter {
	f, ok := b.filters[component]
	if !ok {
		f = MustNew(b.cfg)
		b.filters[component] = f
	}
	return f
}

// Judge routes a judgment to the component's filter.
func (b *Bank) Judge(component string, fault bool) Verdict {
	return b.Get(component).Judge(fault)
}

// Components returns the names of all tracked components, sorted.
func (b *Bank) Components() []string {
	out := make([]string, 0, len(b.filters))
	for name := range b.filters {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
