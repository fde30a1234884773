// Package jobs is the durable experiment job server behind
// cmd/aft-serve: a long-running service that accepts Fig. 6/7 campaigns
// (experiments.AdaptiveRunConfig), E8/E9/E10 sweep grids, and chaos
// scenarios over HTTP/JSON, executes them on lease holders — in-process
// ones, remote aft-worker processes, or both — and survives being
// killed at any instant.
//
// Durability is checkpoint-backed, not best-effort: a running campaign
// snapshots through experiments.Campaign.Snapshot and
// internal/checkpoint every CheckpointEvery rounds, the job store is a
// crash-safe on-disk layout (spec, checkpoint, and result each written
// by atomic rename), and a restarted server resumes every in-flight
// campaign from its last checkpoint. Because snapshots restore
// byte-identically, the final transcript of a killed-and-resumed
// campaign is byte-for-byte the transcript of an uninterrupted run —
// the same kill-at-any-round property the engine-level tests assert,
// extended to the serving path.
//
// Jobs are content-addressed: a job's ID is the SHA-256 of its
// canonical spec JSON (prefixed with a schema version), so resubmitting
// an identical spec returns the existing job instead of recomputing.
//
// The job lifecycle (queued → running → checkpointed → done / failed /
// cancelled), the on-disk store layout, and the crash-recovery
// semantics are documented in DESIGN.md under "The job server"; the
// HTTP surface is documented endpoint by endpoint in API.md.
package jobs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"aft/internal/experiments"
	"aft/internal/jobs/sched"
	"aft/internal/scenario"
)

// Kind names a job's workload.
type Kind string

// Job kinds.
const (
	// KindCampaign is a §3.3 adaptive-redundancy campaign (Fig. 6/7).
	KindCampaign Kind = "campaign"
	// KindSweep is an E8/E9/E10 ablation grid.
	KindSweep Kind = "sweep"
	// KindScenario is a chaos scenario (internal/scenario).
	KindScenario Kind = "scenario"
)

// State is a job's lifecycle state. The transitions are
// queued → running → done | failed | cancelled, with checkpointed as
// the durable waypoint a parked campaign rests in between runs (after a
// graceful shutdown or a crash, before a worker picks it back up).
type State string

// Job lifecycle states.
const (
	// StateQueued is a submitted job waiting for a worker, with no
	// checkpoint yet.
	StateQueued State = "queued"
	// StateRunning is a job currently on a worker.
	StateRunning State = "running"
	// StateCheckpointed is a parked job with a durable checkpoint,
	// waiting for a worker to resume it (the state every in-flight
	// campaign re-enters after a server restart).
	StateCheckpointed State = "checkpointed"
	// StateDone is a successfully completed job.
	StateDone State = "done"
	// StateFailed is a job that completed with an error (including a
	// chaos scenario that violated an invariant).
	StateFailed State = "failed"
	// StateCancelled is a job cancelled by request; a cancelled
	// campaign's last checkpoint is retained on disk.
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// specVersion keys job IDs: bump whenever a change alters what an
// identical spec computes (an engine fix that changes transcripts, a
// new result column), so stale results can never be deduplicated across
// a behaviour change.
const specVersion = 1

// SweepSpec selects one ablation grid. The zero values of the optional
// knobs select the same defaults the aft-bench figures use.
type SweepSpec struct {
	// Grid is "e8", "e9", "e10", or "chaos" (a generative fuzz
	// campaign over random scenario specs, see internal/scenario/gen).
	Grid string `json:"grid"`
	// Steps scales the campaign-backed grids (e8, e10); 0 selects the
	// full-scale default.
	Steps int64 `json:"steps,omitempty"`
	// Seed drives the grid's randomness (e8, e10, chaos); 0 means seed
	// 1906, the figures' default.
	Seed uint64 `json:"seed,omitempty"`
	// Count is the chaos grid's corpus size: how many specs to
	// generate and check. Required (positive) when Grid is "chaos".
	Count int `json:"count,omitempty"`
	// LowerAfters overrides the e10 hysteresis points; empty selects
	// the default sweep.
	LowerAfters []int `json:"lower_afters,omitempty"`
	// E9 overrides the e9 grid configuration; nil selects
	// experiments.DefaultE9Config.
	E9 *experiments.E9Config `json:"e9,omitempty"`
}

// ScenarioSpec selects a chaos scenario: a builtin by name, or an
// inline spec. Exactly one of Name and Spec must be set.
type ScenarioSpec struct {
	// Name is a builtin scenario name (see `aft-chaos -list`).
	Name string `json:"name,omitempty"`
	// Spec is an inline scenario spec.
	Spec *scenario.Spec `json:"spec,omitempty"`
	// Seed overrides the spec's default seed when non-zero.
	Seed uint64 `json:"seed,omitempty"`
}

// maxClientLen bounds the Client field: client IDs key scheduler rings
// and rate-limit buckets, so an unbounded one is an unbounded map.
const maxClientLen = 128

// maxOrganSize bounds a campaign's Policy.Max. A holder sizes the
// campaign's occupancy histogram at Max+1 counters and votes over up to
// Max replicas a round, so an unbounded Max lets one submission exhaust
// the holder's memory. The paper's organs hold 3 to 9 replicas;
// OPERATIONS.md records what a campaign at the cap costs.
const maxOrganSize = 255

// Spec is a complete job submission: a kind plus exactly the matching
// payload field, optionally tagged with the submitter's client ID and a
// priority class for the fair-queue scheduler.
type Spec struct {
	Kind Kind `json:"kind"`
	// Client identifies the submitter for per-client fair queuing and
	// rate limiting. Jobs without a client share one anonymous queue.
	// Both fields are omitempty so specs that predate them keep their
	// content addresses.
	Client string `json:"client,omitempty"`
	// Priority is the scheduling class: "high", "normal" (the default
	// when empty), or "low". See OPERATIONS.md "Serving under load".
	Priority string `json:"priority,omitempty"`
	// Campaign is the KindCampaign payload.
	Campaign *experiments.AdaptiveRunConfig `json:"campaign,omitempty"`
	// Sweep is the KindSweep payload.
	Sweep *SweepSpec `json:"sweep,omitempty"`
	// Scenario is the KindScenario payload.
	Scenario *ScenarioSpec `json:"scenario,omitempty"`
}

// Validate checks the spec without running anything: the kind matches
// the payload, and the payload passes the same validation its runtime
// entry point would apply, so a bad submission is rejected at submit
// time instead of failing later on a worker.
func (s Spec) Validate() error {
	set := 0
	if s.Campaign != nil {
		set++
	}
	if s.Sweep != nil {
		set++
	}
	if s.Scenario != nil {
		set++
	}
	if set != 1 {
		return fmt.Errorf("jobs: exactly one payload (campaign, sweep, scenario) required, got %d", set)
	}
	if _, ok := sched.Canon(sched.Class(s.Priority)); !ok {
		return fmt.Errorf("jobs: unknown priority %q (want high, normal, or low)", s.Priority)
	}
	if len(s.Client) > maxClientLen {
		return fmt.Errorf("jobs: client ID longer than %d bytes", maxClientLen)
	}
	switch s.Kind {
	case KindCampaign:
		if s.Campaign == nil {
			return fmt.Errorf("jobs: kind %q needs the campaign payload", s.Kind)
		}
		cfg := *s.Campaign
		if cfg.Steps <= 0 {
			return fmt.Errorf("jobs: campaign Steps %d must be positive", cfg.Steps)
		}
		if cfg.SampleEvery < 0 {
			return fmt.Errorf("jobs: campaign SampleEvery %d must be non-negative", cfg.SampleEvery)
		}
		if cfg.Policy.Max > maxOrganSize {
			return fmt.Errorf("jobs: campaign Policy.Max %d exceeds the organ-size cap %d", cfg.Policy.Max, maxOrganSize)
		}
		if err := cfg.Policy.Validate(); err != nil {
			return err
		}
		return cfg.Storms.Validate()
	case KindSweep:
		if s.Sweep == nil {
			return fmt.Errorf("jobs: kind %q needs the sweep payload", s.Kind)
		}
		switch s.Sweep.Grid {
		case "e8", "e9", "e10":
			return nil
		case "chaos":
			if s.Sweep.Count <= 0 {
				return fmt.Errorf("jobs: chaos sweep Count %d must be positive", s.Sweep.Count)
			}
			return nil
		default:
			return fmt.Errorf("jobs: unknown sweep grid %q (want e8, e9, e10, or chaos)", s.Sweep.Grid)
		}
	case KindScenario:
		if s.Scenario == nil {
			return fmt.Errorf("jobs: kind %q needs the scenario payload", s.Kind)
		}
		sc := s.Scenario
		if (sc.Name == "") == (sc.Spec == nil) {
			return fmt.Errorf("jobs: scenario needs exactly one of name and spec")
		}
		if sc.Name != "" {
			if _, ok := scenario.Builtin(sc.Name); !ok {
				return fmt.Errorf("jobs: unknown scenario %q (known: %s)",
					sc.Name, strings.Join(scenario.Names(), ", "))
			}
			return nil
		}
		return sc.Spec.Validate()
	default:
		return fmt.Errorf("jobs: unknown kind %q (want campaign, sweep, or scenario)", s.Kind)
	}
}

// ID returns the job's content address: the first 16 hex digits of the
// SHA-256 over the spec schema version and the spec's canonical JSON.
// Two submissions with the same effective spec therefore share an ID —
// the double-submit deduplication key.
func (s Spec) ID() (string, error) {
	if err := s.Validate(); err != nil {
		return "", err
	}
	data, err := json.Marshal(s)
	if err != nil {
		return "", fmt.Errorf("jobs: encode spec: %w", err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "aft/job/v%d\n", specVersion)
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// scenarioSpec resolves the scenario payload to a concrete spec and the
// run options.
func (s *ScenarioSpec) resolve() (scenario.Spec, scenario.Options, error) {
	var spec scenario.Spec
	if s.Name != "" {
		builtin, ok := scenario.Builtin(s.Name)
		if !ok {
			return spec, scenario.Options{}, fmt.Errorf("jobs: unknown scenario %q", s.Name)
		}
		spec = builtin
	} else {
		spec = *s.Spec
	}
	return spec, scenario.Options{Seed: s.Seed}, nil
}

// Result is a job's terminal record, persisted as result.json in the
// job store and served by GET /jobs/{id}/result.
type Result struct {
	ID    string `json:"id"`
	Kind  Kind   `json:"kind"`
	State State  `json:"state"`
	// Error explains failed and cancelled states.
	Error string `json:"error,omitempty"`
	// Rounds is the work completed at the terminal state: voting rounds
	// for campaigns, simulated steps for scenarios, grid cells for
	// sweeps.
	Rounds int64 `json:"rounds"`
	// Transcript is the rendered artefact — the Fig. 6/7 text for
	// campaigns, the canonical event transcript for scenarios, the
	// rendered table for sweeps. For campaigns it is byte-identical
	// across kill/resume cycles.
	Transcript string `json:"transcript,omitempty"`
	// Summary is kind-specific structured output (see API.md).
	Summary json.RawMessage `json:"summary,omitempty"`
}
