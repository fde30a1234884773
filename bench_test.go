package aft

// One benchmark per paper artefact, each regenerating its figure through
// the same harness cmd/aft-bench uses, plus microbenchmarks for the hot
// paths underneath them. Shape assertions live in
// internal/experiments/experiments_test.go; these benchmarks measure the
// cost of regeneration and report the headline metric of each experiment
// for eyeballing in bench output.

import (
	"fmt"
	"testing"

	"aft/internal/experiments"
	"aft/internal/pubsub"
	"aft/internal/redundancy"
	"aft/internal/simclock"
	"aft/internal/voting"
	"aft/internal/xrand"
)

// BenchmarkFig4AlphaCount regenerates the watchdog + alpha-count
// scenario of Fig. 4.
func BenchmarkFig4AlphaCount(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig4(experiments.DefaultFig4Config())
		if err != nil {
			b.Fatal(err)
		}
		if res.FlipIndex != 3 {
			b.Fatalf("flip at %d", res.FlipIndex)
		}
	}
}

// BenchmarkFig5DTOF regenerates the distance-to-failure table of Fig. 5.
func BenchmarkFig5DTOF(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFig5(uint64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].DTOF != 4 {
			b.Fatal("dtof table wrong")
		}
	}
}

// BenchmarkFig6Staircase regenerates the redundancy staircase of Fig. 6
// (12k rounds with one ramping storm).
func BenchmarkFig6Staircase(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAdaptive(experiments.DefaultFig6Config())
		if err != nil {
			b.Fatal(err)
		}
		if res.Failures != 0 {
			b.Fatalf("failures %d", res.Failures)
		}
	}
}

// BenchmarkFig7Histogram regenerates the redundancy occupancy histogram
// of Fig. 7 at a 1M-round scale (the paper ran 65M; cmd/aft-bench
// -fig 7 -steps 65000000 reproduces it in full).
func BenchmarkFig7Histogram(b *testing.B) {
	cfg := experiments.DefaultFig7Config(1_000_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAdaptive(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Failures != 0 {
			b.Fatalf("failures %d", res.Failures)
		}
		b.ReportMetric(res.MinFraction*100, "%time@r=3")
	}
}

// BenchmarkE5PermanentFault regenerates the livelock ablation.
func BenchmarkE5PermanentFault(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunE5(experiments.DefaultE5Config())
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("rows missing")
		}
	}
}

// BenchmarkE6TransientFaults regenerates the spare-waste ablation.
func BenchmarkE6TransientFaults(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunE6(experiments.DefaultE6Config())
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("rows missing")
		}
	}
}

// BenchmarkE7SelectionMatrix regenerates the §3.1 selection/survival
// matrix.
func BenchmarkE7SelectionMatrix(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cells, err := experiments.RunE7(experiments.DefaultE7Config())
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != 25 {
			b.Fatal("matrix incomplete")
		}
	}
}

// BenchmarkE8Dimensioning regenerates the fixed-versus-autonomic
// dimensioning comparison.
func BenchmarkE8Dimensioning(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunE8(60_000, 42, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 5 {
			b.Fatal("rows missing")
		}
	}
}

// BenchmarkE9AlphaSweep regenerates the alpha-count parameter sweep.
func BenchmarkE9AlphaSweep(b *testing.B) {
	cfg := experiments.DefaultE9Config()
	cfg.Traces = 50
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunE9(cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 16 {
			b.Fatal("grid incomplete")
		}
	}
}

// BenchmarkE10HysteresisSweep regenerates the LowerAfter sweep.
func BenchmarkE10HysteresisSweep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunE10(60_000, 42, []int{10, 1000, 10000}, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("rows missing")
		}
	}
}

// --- microbenchmarks on the hot paths ----------------------------------

// BenchmarkAdaptiveRound measures one round of the fused §3.3 campaign
// engine — storm draw, first-K corruption, vote, controller observation
// — the operation the 65-million-round Fig. 7 campaign repeats. The
// consensus path must report 0 allocs/op (also asserted by
// TestCampaignStepZeroAlloc); compare with
// BenchmarkAdaptiveRoundReference for the seed path.
func BenchmarkAdaptiveRound(b *testing.B) {
	eng, err := experiments.NewCampaign(experiments.DefaultFig7Config(1_000_000))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step()
	}
}

// benchSwitchboard builds the 3-replica switchboard both consensus-step
// benchmarks share.
func benchSwitchboard(b *testing.B) *redundancy.Switchboard {
	b.Helper()
	farm, err := voting.NewFarm(3, func(v uint64) uint64 { return v })
	if err != nil {
		b.Fatal(err)
	}
	sb, err := redundancy.NewSwitchboard(farm, redundancy.DefaultPolicy(), []byte("bench-key"))
	if err != nil {
		b.Fatal(err)
	}
	return sb
}

// BenchmarkConsensusStep measures the engine's consensus step through
// the switchboard (reusable ballot buffer, map-free tally): the exact
// work BenchmarkConsensusStepReference does on the seed path, minus the
// garbage. Must report 0 allocs/op.
func BenchmarkConsensusStep(b *testing.B) {
	sb := benchSwitchboard(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb.StepFirstK(uint64(i), 0, nil)
	}
}

// BenchmarkConsensusStepReference measures the seed per-round path on
// the same consensus round: a fresh ballot slice every round through
// Switchboard.Step.
func BenchmarkConsensusStepReference(b *testing.B) {
	sb := benchSwitchboard(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb.Step(uint64(i), nil, nil)
	}
}

// BenchmarkFig7HistogramReference regenerates the 1M-round Fig. 7
// campaign on the retained pre-engine loop, so `go test -bench Fig7`
// shows the engine gain end to end.
func BenchmarkFig7HistogramReference(b *testing.B) {
	cfg := experiments.DefaultFig7Config(1_000_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAdaptiveReference(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Failures != 0 {
			b.Fatalf("failures %d", res.Failures)
		}
	}
}

// BenchmarkVotingRoundConsensus measures one clean voting round, the
// dominant operation of the Fig. 7 run.
func BenchmarkVotingRoundConsensus(b *testing.B) {
	farm, err := voting.NewFarm(3, func(v uint64) uint64 { return v })
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o := farm.Round(uint64(i), nil, nil)
		if o.Failed() {
			b.Fatal("clean round failed")
		}
	}
}

// BenchmarkVotingRoundDissent measures a round with one corrupted
// replica (map-tally path).
func BenchmarkVotingRoundDissent(b *testing.B) {
	farm, err := voting.NewFarm(7, func(v uint64) uint64 { return v })
	if err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(1)
	corrupted := func(i int) bool { return i == 0 }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		farm.Round(uint64(i), corrupted, rng)
	}
}

// BenchmarkExecutiveVerify measures one verification sweep over a
// 100-variable registry.
func BenchmarkExecutiveVerify(b *testing.B) {
	reg := NewRegistry()
	for i := 0; i < 100; i++ {
		name := "var" + string(rune('a'+i%26)) + string(rune('0'+i/26))
		v := Variable{
			Name:         name,
			Doc:          "bench variable",
			Syndrome:     Horning,
			BindAt:       RunTime,
			Alternatives: []Alternative{{ID: "x"}, {ID: "y"}},
		}
		if err := reg.Declare(v); err != nil {
			b.Fatal(err)
		}
		if err := reg.Bind(name, "x", RunTime); err != nil {
			b.Fatal(err)
		}
		if err := reg.AttachTruth(name, func() (string, error) { return "x", nil }); err != nil {
			b.Fatal(err)
		}
	}
	exec, err := NewExecutive(reg, nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		exec.VerifyOnce(int64(i))
	}
}

// BenchmarkBusPublish measures one fault notification through the
// pub/sub bus with 8 subscribers.
func BenchmarkBusPublish(b *testing.B) {
	bus := pubsub.New()
	for i := 0; i < 8; i++ {
		bus.Subscribe("faults/*", func(pubsub.Message) {})
	}
	msg := pubsub.Message{Topic: "faults/c3", Payload: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bus.Publish(msg)
	}
}

// BenchmarkBusPublishParallel measures concurrent publishing against a
// bus carrying 1000 subscriptions on distinct topics — the §3.2
// notification hot path under contention. Run with GOMAXPROCS=8 to
// reproduce the acceptance point: the seed's single-mutex bus scanned
// every subscription per publish (~16µs/op); the sharded topic index
// touches only matching ones (~0.1µs/op).
func BenchmarkBusPublishParallel(b *testing.B) {
	bus := pubsub.New()
	for i := 0; i < 1000; i++ {
		bus.Subscribe(fmt.Sprintf("faults/c%d", i), func(pubsub.Message) {})
	}
	msg := pubsub.Message{Topic: "faults/c42", Payload: true}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			bus.Publish(msg)
		}
	})
}

// BenchmarkBusPublishAsync measures the bounded-queue async delivery
// mode under the same 1000-subscription load. Publishers can outpace
// the single matching worker and hit the drop path; the drops/op metric
// reports how much of the run priced backpressure rather than enqueue.
func BenchmarkBusPublishAsync(b *testing.B) {
	bus := pubsub.New().Async(1024)
	for i := 0; i < 1000; i++ {
		bus.Subscribe(fmt.Sprintf("faults/c%d", i), func(pubsub.Message) {})
	}
	msg := pubsub.Message{Topic: "faults/c42", Payload: true}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			bus.Publish(msg)
		}
	})
	b.StopTimer()
	bus.Close()
	b.ReportMetric(float64(bus.Metrics().Dropped.Value())/float64(b.N), "drops/op")
}

// BenchmarkSweepSerial and BenchmarkSweepParallel regenerate the E9
// alpha-count grid serially and on the worker pool; the rows are
// byte-identical, so the pair isolates the runtime's scheduling cost
// (and, on multi-core hosts, its speedup).
func BenchmarkSweepSerial(b *testing.B) {
	cfg := experiments.DefaultE9Config()
	cfg.Traces = 50
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunE9(cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 16 {
			b.Fatal("grid incomplete")
		}
	}
}

func BenchmarkSweepParallel(b *testing.B) {
	cfg := experiments.DefaultE9Config()
	cfg.Traces = 50
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunE9(cfg, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 16 {
			b.Fatal("grid incomplete")
		}
	}
}

// BenchmarkBatchStep measures one-round calls of the batch campaign
// engine at several widths, reporting ns/lane-round. Step is Run(1), so
// this times the per-call overhead of entering every lane's window
// rather than the kernel (BenchmarkBatchRun times that). All widths must
// report 0 allocs/op (also gated by TestBatchStepZeroAlloc).
func BenchmarkBatchStep(b *testing.B) {
	for _, width := range []int{1, 8, 32, 64} {
		b.Run(fmt.Sprintf("w%d", width), func(b *testing.B) {
			cfg := experiments.DefaultFig7Config(int64(b.N) + 1_000_000)
			bc, err := experiments.NewBatchCampaign(cfg, xrand.Seeds(1906, width))
			if err != nil {
				b.Fatal(err)
			}
			bc.Run(1000) // steady state
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.Step()
			}
			b.StopTimer()
			elapsed := b.Elapsed()
			b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N)/float64(width), "ns/lane-round")
		})
	}
}

// BenchmarkBatchRun measures the batch kernel: Run over 100 000-round
// chunks at the storm density of a 500k-round Fig. 7 campaign, at
// several widths, reporting ns/lane-round. Run takes the lanes in
// groups of four whose background runs at Policy.Min draw together
// (xrand.Misses4), so on a CPU with AVX2 the per-lane cost at w16 and
// w32 should be well below w1's, and the same at both. The chunks cross
// storms, raises and lowers, and must report 0 allocs/op (also gated
// by TestBatchRunZeroAlloc).
func BenchmarkBatchRun(b *testing.B) {
	const chunk = 100_000
	for _, width := range []int{1, 16, 32} {
		b.Run(fmt.Sprintf("w%d", width), func(b *testing.B) {
			cfg := experiments.DefaultFig7Config(500_000)
			cfg.Steps = int64(b.N)*chunk + 1000
			bc, err := experiments.NewBatchCampaign(cfg, xrand.Seeds(1906, width))
			if err != nil {
				b.Fatal(err)
			}
			bc.Run(1000) // steady state
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.Run(chunk)
			}
			b.StopTimer()
			laneRounds := float64(b.N) * chunk * float64(width)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/laneRounds, "ns/lane-round")
		})
	}
}

// BenchmarkBatchParallel measures SweepSeeds end to end — 32 Fig.
// 7-style lanes of 100k rounds, in pool tasks of four lanes — at
// several worker counts, reporting aggregate lane-rounds per second. On
// a multi-core host the rounds/sec metric scales with cores on top of
// the batch engine's single-core gain.
func BenchmarkBatchParallel(b *testing.B) {
	const lanes, steps = 32, 100_000
	cfg := experiments.DefaultFig7Config(steps)
	seeds := xrand.Seeds(1906, lanes)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.SweepSeeds(cfg, seeds, workers); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			roundsSec := float64(lanes*steps) * float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(roundsSec, "rounds/sec")
		})
	}
}

// BenchmarkSchedulerThroughput measures discrete-event scheduling, the
// substrate under the Fig. 4 scenario.
func BenchmarkSchedulerThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := simclock.New()
		n := 0
		s.Every(1, func(*simclock.Scheduler) bool {
			n++
			return n < 1000
		})
		s.RunAll()
	}
}
