package experiments_test

import (
	"fmt"

	"aft/internal/checkpoint"
	"aft/internal/experiments"
)

// ExampleCampaign_Snapshot interrupts a Fig. 7-style campaign halfway,
// snapshots it, resumes from the snapshot, and shows the resumed run
// rendering the exact transcript of an uninterrupted one.
func ExampleCampaign_Snapshot() {
	cfg := experiments.DefaultFig7Config(40_000)

	// The uninterrupted run, for comparison.
	straight, _ := experiments.NewCampaign(cfg)
	straight.Run(cfg.Steps)

	// The interrupted run: 25k rounds, then a "crash".
	c, _ := experiments.NewCampaign(cfg)
	c.Run(25_000)
	snap, _ := c.Snapshot()
	blob := snap.Encode() // what a checkpoint upload carries

	// Later, in a new process: decode, restore, finish the campaign.
	decoded, _ := checkpoint.Decode(blob)
	resumed, _ := experiments.RestoreCampaign(decoded)
	resumed.Run(resumed.Remaining())

	a := experiments.RenderFig7(straight.Result(), cfg.Policy.Min)
	b := experiments.RenderFig7(resumed.Result(), cfg.Policy.Min)
	fmt.Println("transcripts identical:", a == b)
	// Output: transcripts identical: true
}

// ExampleRestoreCampaign shows the shard workflow the job fleet drives
// (internal/jobs): a campaign split into sequential shards whose
// snapshots chain, surviving a kill between any two of them.
func ExampleRestoreCampaign() {
	cfg := experiments.DefaultFig7Config(30_000)
	shards, _ := experiments.SplitCampaign(cfg, 3)

	var blob []byte
	for _, sh := range shards {
		var c *experiments.Campaign
		if sh.Index == 0 {
			c, _ = experiments.NewCampaign(cfg)
		} else {
			snap, _ := checkpoint.Decode(blob) // from the previous shard's file
			c, _ = experiments.RestoreCampaign(snap)
		}
		c.Run(sh.Rounds())
		snap, _ := c.Snapshot()
		blob = snap.Encode()
		fmt.Printf("shard %d/%d done at round %d\n", sh.Index+1, sh.Count, c.Rounds())
	}
	// Output:
	// shard 1/3 done at round 10000
	// shard 2/3 done at round 20000
	// shard 3/3 done at round 30000
}
