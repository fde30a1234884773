package main

import (
	"encoding/json"
	"fmt"

	"aft/internal/experiments"
	"aft/internal/jobs"
	"aft/internal/redundancy"
	"aft/internal/scenario"
	"aft/internal/xrand"
)

// The job populations. Everything a run does is generated here from the
// --seed argument, so the same seed gives the same inputs, the same job
// IDs and the same work; the program under test only ever sees the
// generated specs. The amount of work (rounds, horizons, job counts) is
// the same for every seed — only the random streams differ — so runs
// with different seeds are comparable.

const (
	// fig7Steps is the length of the fig7-campaign campaign and of each
	// lane of its seed sweep.
	fig7Steps = 500_000
	// fig7SweepSeeds is the sweep's lane count: one batch-engine batch
	// per worker on a two-core machine.
	fig7SweepSeeds = 2 * experiments.DefaultBatchWidth

	// serveJobs is the serve-scenario population of one pass.
	serveJobs = 600
	// serveHorizon is each scenario's simulated steps (the -serve-load
	// shape).
	serveHorizon = 500
	// serveRepeatEvery places a resubmission of one of the same
	// client's earlier specs at every tenth submission, exercising the
	// dedup read path.
	serveRepeatEvery = 10

	// fleetShardRounds caps one lease grant; longer campaigns become
	// shard chains.
	fleetShardRounds = 1_000_000
)

// fleetSizes are the campaign lengths each fleet-campaign client cycles
// through; the seed only permutes them.
var fleetSizes = []int64{500_000, 1_000_000, 1_500_000, 2_000_000, 2_500_000, 3_000_000}

// fleetJobs is the fleet-campaign population of one pass: each of two
// clients runs every size twice.
const fleetJobs = 4 * 6

var priorities = []string{"high", "normal", "low"}

// fig7Inputs is one fig7-campaign pass: one campaign, and a seed sweep
// whose lane 0 is that same campaign.
type fig7Inputs struct {
	cfg   experiments.AdaptiveRunConfig
	seeds []uint64
}

// fig7Population generates the inputs of pass number pass. Every pass
// draws fresh campaign seeds, so a run averages the engines' speed over
// many storm histories instead of repeating one.
func fig7Population(seed uint64, pass int) fig7Inputs {
	rng := xrand.New(xrand.Seeds(seed^0xf197, pass+1)[pass])
	cfg := experiments.DefaultFig7Config(fig7Steps)
	cfg.Seed = rng.Uint64()
	seeds := make([]uint64, fig7SweepSeeds)
	seeds[0] = cfg.Seed
	for i := 1; i < len(seeds); i++ {
		seeds[i] = rng.Uint64()
	}
	return fig7Inputs{cfg: cfg, seeds: seeds}
}

// popJob is one submission of a served workload.
type popJob struct {
	// Index is the submission's position in the pass, across clients.
	Index int
	// Client is the submitting client loop (0-based).
	Client int
	// ID is the job's content address.
	ID string
	// Repeat marks a resubmission of an earlier spec of the same
	// client, which the server answers from its index (dedup).
	Repeat bool
	Spec   jobs.Spec
	// Body is the spec's JSON, the POST /jobs body.
	Body []byte
}

// population is one pass of a served workload: each client's closed-loop
// submission sequence.
type population struct {
	perClient [][]popJob
	total     int
}

// unique returns every distinct job of the population, first occurrence
// order.
func (p population) unique() []popJob {
	seen := make(map[string]bool)
	var out []popJob
	for _, seq := range p.perClient {
		for _, j := range seq {
			if !seen[j.ID] {
				seen[j.ID] = true
				out = append(out, j)
			}
		}
	}
	return out
}

// servePopulation generates n scenario jobs dealt round-robin to the
// clients. Every tenth submission of a client (serveRepeatEvery) repeats
// a seeded choice among that client's earlier specs, so every seed does
// the same amount of fresh work.
func servePopulation(seed uint64, n, clients int) (population, error) {
	rng := xrand.New(seed ^ 0x5e7e)
	p := population{perClient: make([][]popJob, clients), total: n}
	for i := 0; i < n; i++ {
		c := i % clients
		prev := p.perClient[c]
		var spec jobs.Spec
		repeat := len(prev)%serveRepeatEvery == serveRepeatEvery-1
		if repeat {
			spec = prev[rng.Intn(len(prev))].Spec
		} else {
			spec = jobs.Spec{
				Kind:     jobs.KindScenario,
				Client:   fmt.Sprintf("client-%d", c),
				Priority: priorities[rng.Intn(len(priorities))],
				Scenario: &jobs.ScenarioSpec{Spec: &scenario.Spec{
					Name:    "perfbench",
					Seed:    rng.Uint64(),
					Horizon: serveHorizon,
					Organ:   true,
					Policy:  redundancy.DefaultPolicy(),
					Phases:  []scenario.Phase{{Name: "quiet", Start: 0, Model: scenario.ModelSpec{Kind: "never"}}},
				}},
			}
		}
		j, err := newPopJob(i, c, spec, repeat)
		if err != nil {
			return population{}, err
		}
		p.perClient[c] = append(p.perClient[c], j)
	}
	return p, nil
}

// fleetPopulation generates n Fig. 7 campaign jobs dealt round-robin to
// the clients. Each client cycles through fleetSizes in a seeded order,
// so every client — and every seed — has the same amount of work; the
// seed also draws each campaign's seed and priority.
func fleetPopulation(seed uint64, n, clients int) (population, error) {
	rng := xrand.New(seed ^ 0xf1ee7)
	p := population{perClient: make([][]popJob, clients), total: n}
	order := make([][]int, clients)
	for c := range order {
		order[c] = rng.Perm(len(fleetSizes))
	}
	for i := 0; i < n; i++ {
		c, k := i%clients, i/clients
		cfg := experiments.DefaultFig7Config(fleetSizes[order[c][k%len(fleetSizes)]])
		cfg.Seed = rng.Uint64()
		spec := jobs.Spec{
			Kind:     jobs.KindCampaign,
			Client:   fmt.Sprintf("client-%d", c),
			Priority: priorities[rng.Intn(len(priorities))],
			Campaign: &cfg,
		}
		j, err := newPopJob(i, c, spec, false)
		if err != nil {
			return population{}, err
		}
		p.perClient[c] = append(p.perClient[c], j)
	}
	return p, nil
}

func newPopJob(i, client int, spec jobs.Spec, repeat bool) (popJob, error) {
	id, err := spec.ID()
	if err != nil {
		return popJob{}, fmt.Errorf("job %d: %w", i, err)
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return popJob{}, fmt.Errorf("job %d: %w", i, err)
	}
	return popJob{Index: i, Client: client, ID: id, Repeat: repeat, Spec: spec, Body: body}, nil
}
