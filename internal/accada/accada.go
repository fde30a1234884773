// Package accada implements the ACCADA-like adaptation middleware of the
// paper's §3.2 (Gui, De Florio, Sun, Blondia, SSS 2009): a
// context-aware component framework that postpones the binding of the
// fault-tolerance design pattern to run time.
//
// The §3.2 pipeline is implemented verbatim:
//
//   - the software architecture is a reflective DAG (package dag) with
//     one snapshot per fault assumption — D1 (redoing, assumption e1)
//     and D2 (reconfiguration, assumption e2);
//   - fault notifications arrive through publish/subscribe (package
//     pubsub, a sharded topic-indexed bus) on the topic
//     "faults/<component>"; live deployments can put the manager behind
//     pubsub's bounded-queue async mode, while the simulated experiments
//     keep the default synchronous delivery for determinism;
//   - an alpha-count oracle (package alphacount) discriminates transient
//     from permanent/intermittent faults;
//   - on a verdict change the matching snapshot is injected into the
//     live DAG, reshaping the architecture as in Fig. 3.
//
// The package also provides AdaptiveExecutor, the execution-level
// counterpart: a component wrapper that applies redoing while faults
// look transient and reconfiguration once they look permanent, which is
// what the E5/E6 ablation benchmarks measure against the static
// patterns.
package accada

import (
	"fmt"
	"sync"

	"aft/internal/alphacount"
	"aft/internal/dag"
	"aft/internal/ftpatterns"
	"aft/internal/pubsub"
	"aft/internal/trace"
)

// FaultTopic returns the bus topic on which fault judgments for a
// component are published. The payload must be a bool: true for a fault
// detection, false for a fault-free observation.
func FaultTopic(component string) string { return "faults/" + component }

// AdaptationTopic returns the bus topic on which the manager announces
// architecture swaps for a component. The payload is the new Verdict.
func AdaptationTopic(component string) string { return "adaptation/" + component }

// Manager is the middleware component: it owns the live reflective DAG
// and swaps snapshots as the per-component oracles change their minds.
type Manager struct {
	mu    sync.Mutex
	graph *dag.Graph
	bus   *pubsub.Bus
	alpha alphacount.Config
	rec   *trace.Recorder
	now   func() int64

	bindings map[string]*binding
	swaps    int64
}

type binding struct {
	transientSnap dag.Snapshot // D1: redoing architecture
	permanentSnap dag.Snapshot // D2: reconfiguration architecture
	filter        *alphacount.Filter
	sub           *pubsub.Subscription
	verdict       alphacount.Verdict
}

// Option configures a Manager.
type Option interface {
	apply(*Manager)
}

type recorderOption struct{ rec *trace.Recorder }

func (o recorderOption) apply(m *Manager) { m.rec = o.rec }

// WithRecorder attaches a trace recorder.
func WithRecorder(rec *trace.Recorder) Option { return recorderOption{rec: rec} }

type clockOption struct{ now func() int64 }

func (o clockOption) apply(m *Manager) { m.now = o.now }

// WithClock supplies a virtual-time source for trace timestamps.
func WithClock(now func() int64) Option { return clockOption{now: now} }

// NewManager builds a manager over a live graph and a notification bus.
func NewManager(graph *dag.Graph, bus *pubsub.Bus, alpha alphacount.Config, opts ...Option) (*Manager, error) {
	if graph == nil {
		return nil, fmt.Errorf("accada: nil graph")
	}
	if bus == nil {
		return nil, fmt.Errorf("accada: nil bus")
	}
	if _, err := alphacount.New(alpha); err != nil {
		return nil, err
	}
	m := &Manager{
		graph:    graph,
		bus:      bus,
		alpha:    alpha,
		now:      func() int64 { return 0 },
		bindings: make(map[string]*binding),
	}
	for _, o := range opts {
		o.apply(m)
	}
	return m, nil
}

// Bind registers a component for adaptation: d1 is the architecture to
// run while the component's faults look transient, d2 the one for
// permanent/intermittent faults. The manager starts in d1's regime and
// subscribes to the component's fault topic. The component name must
// form a well-formed bus topic (non-empty, no blank segments) that the
// bus treats as a literal, not a wildcard pattern: a name like "c1/*"
// would otherwise widen into a pattern subscription that swallows other
// components' fault notifications.
func (m *Manager) Bind(component string, d1, d2 dag.Snapshot) error {
	topic := FaultTopic(component)
	if err := pubsub.Validate(topic); err != nil {
		return fmt.Errorf("accada: invalid component name %q: %w", component, err)
	}
	if !pubsub.IsLiteralTopic(topic) {
		return fmt.Errorf("accada: invalid component name %q: wildcard suffix", component)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.bindings[component]; ok {
		return fmt.Errorf("accada: component %q already bound", component)
	}
	b := &binding{
		transientSnap: d1,
		permanentSnap: d2,
		filter:        alphacount.MustNew(m.alpha),
		verdict:       alphacount.TransientVerdict,
	}
	b.sub = m.bus.Subscribe(FaultTopic(component), func(msg pubsub.Message) {
		fault, ok := msg.Payload.(bool)
		if !ok {
			return
		}
		m.Judge(component, fault)
	})
	m.bindings[component] = b
	return nil
}

// Unbind removes a component's adaptation binding.
func (m *Manager) Unbind(component string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.bindings[component]
	if !ok {
		return fmt.Errorf("accada: component %q not bound", component)
	}
	m.bus.Unsubscribe(b.sub)
	delete(m.bindings, component)
	return nil
}

// Judge feeds one fault judgment for a component into its oracle,
// swapping the architecture when the verdict changes. It returns the
// current verdict.
func (m *Manager) Judge(component string, fault bool) alphacount.Verdict {
	m.mu.Lock()
	b, ok := m.bindings[component]
	if !ok {
		m.mu.Unlock()
		return alphacount.TransientVerdict
	}
	verdict := b.filter.Judge(fault)
	changed := verdict != b.verdict
	if changed {
		b.verdict = verdict
		m.swaps++
	}
	var snap dag.Snapshot
	if changed {
		if verdict == alphacount.PermanentVerdict {
			snap = b.permanentSnap
		} else {
			snap = b.transientSnap
		}
	}
	now := m.now()
	rec := m.rec
	m.mu.Unlock()

	if changed {
		// Inject outside the manager lock: the graph has its own lock,
		// and subscribers may call back into the manager.
		m.graph.Inject(snap)
		rec.Record(now, "swap", component, "verdict=%s", verdict)
		m.bus.Publish(pubsub.Message{
			Topic:   AdaptationTopic(component),
			Time:    now,
			Payload: verdict,
		})
	}
	return verdict
}

// Verdict reports the oracle's current verdict for a component.
func (m *Manager) Verdict(component string) alphacount.Verdict {
	m.mu.Lock()
	defer m.mu.Unlock()
	if b, ok := m.bindings[component]; ok {
		return b.verdict
	}
	return alphacount.TransientVerdict
}

// Alpha reports the component's current alpha-count score.
func (m *Manager) Alpha(component string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if b, ok := m.bindings[component]; ok {
		return b.filter.Alpha()
	}
	return 0
}

// Swaps reports the total number of architecture swaps performed.
func (m *Manager) Swaps() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.swaps
}

// --- AdaptiveExecutor -------------------------------------------------

// AdaptiveExecutor runs a component under the fault-tolerance pattern
// matching the oracle's current verdict:
//
//   - transient verdict → redoing on the active version;
//   - permanent verdict → reconfiguration: abandon the active version
//     and continue on the next spare.
//
// Once reconfiguration replaces the component, the executor's "active
// version" moves with it, so a later return to the redoing regime
// retries the replacement, not the dead primary — exactly the Fig. 3
// picture where c3.2 takes over from c3.1.
type AdaptiveExecutor struct {
	versions   []ftpatterns.Version
	current    int
	maxRetries int
	filter     *alphacount.Filter

	attempts    int64
	activations int64
	swaps       int64
	invocations int64
	failures    int64
	onSwap      func(alphacount.Verdict)
}

// NewAdaptiveExecutor builds an executor over a primary version and its
// spares. maxRetries bounds the redoing regime's retries per invocation.
func NewAdaptiveExecutor(alpha alphacount.Config, maxRetries int, versions ...ftpatterns.Version) (*AdaptiveExecutor, error) {
	if len(versions) == 0 {
		return nil, fmt.Errorf("accada: executor needs at least one version")
	}
	for i, v := range versions {
		if v == nil {
			return nil, fmt.Errorf("accada: version %d is nil", i)
		}
	}
	if maxRetries < 0 {
		return nil, fmt.Errorf("accada: negative retry bound")
	}
	f, err := alphacount.New(alpha)
	if err != nil {
		return nil, err
	}
	vs := make([]ftpatterns.Version, len(versions))
	copy(vs, versions)
	return &AdaptiveExecutor{versions: vs, maxRetries: maxRetries, filter: f}, nil
}

// OnSwap registers a callback invoked on every verdict change.
func (e *AdaptiveExecutor) OnSwap(fn func(alphacount.Verdict)) { e.onSwap = fn }

// Verdict reports the oracle's current verdict.
func (e *AdaptiveExecutor) Verdict() alphacount.Verdict { return e.filter.Verdict() }

// Current reports the index of the active version.
func (e *AdaptiveExecutor) Current() int { return e.current }

// Invoke runs the component once under the pattern matching the current
// verdict.
func (e *AdaptiveExecutor) Invoke() ftpatterns.Result {
	e.invocations++
	var res ftpatterns.Result
	if e.filter.Verdict() == alphacount.PermanentVerdict {
		res = e.invokeReconfiguring()
	} else {
		res = e.invokeRedoing()
	}
	e.attempts += int64(res.Attempts)
	e.activations += int64(res.Activations)
	if !res.OK {
		e.failures++
	}
	// A fault was observed whenever the first attempt did not succeed.
	faultSeen := !res.OK || res.Attempts > 1 || res.Activations > 0
	prev := e.filter.Verdict()
	e.filter.Judge(faultSeen)
	if v := e.filter.Verdict(); v != prev {
		e.swaps++
		if e.onSwap != nil {
			e.onSwap(v)
		}
	}
	return res
}

func (e *AdaptiveExecutor) invokeRedoing() ftpatterns.Result {
	var res ftpatterns.Result
	for i := 0; i <= e.maxRetries; i++ {
		res.Attempts++
		if err := e.versions[e.current](); err == nil {
			res.OK = true
			return res
		}
	}
	res.Err = ftpatterns.ErrRetriesExhausted
	return res
}

func (e *AdaptiveExecutor) invokeReconfiguring() ftpatterns.Result {
	var res ftpatterns.Result
	for e.current < len(e.versions) {
		res.Attempts++
		if err := e.versions[e.current](); err == nil {
			res.OK = true
			return res
		}
		e.current++
		if e.current < len(e.versions) {
			res.Activations++
		}
	}
	// Out of spares: stay on the last version rather than indexing past
	// the end; the component is failed until repaired.
	e.current = len(e.versions) - 1
	res.Err = ftpatterns.ErrSparesExhausted
	return res
}

// Stats reports cumulative counters: invocations, attempts, activations,
// verdict swaps, and failed invocations.
func (e *AdaptiveExecutor) Stats() (invocations, attempts, activations, swaps, failures int64) {
	return e.invocations, e.attempts, e.activations, e.swaps, e.failures
}
