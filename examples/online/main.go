// Online: drive RBCAer over a full day of hourly timeslots, comparing
// oracle per-slot demand against factored learned demand (the paper
// assumes popularity "can be learned through some popularity
// prediction algorithm"), and inspect one scheduling round's internals
// through the low-level API.
package main

import (
	"fmt"
	"os"

	crowdcdn "repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "online: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	cfg := crowdcdn.DefaultTraceConfig()
	cfg.NumHotspots = 60
	cfg.NumVideos = 3000
	cfg.NumUsers = 6000
	cfg.NumRequests = 120000
	cfg.NumRegions = 8
	cfg.Slots = 24 // hourly scheduling rounds over one day

	world, tr, err := crowdcdn.Generate(cfg)
	if err != nil {
		return err
	}

	oracle := crowdcdn.NewRBCAer(crowdcdn.DefaultParams())
	factored := crowdcdn.NewFactoredPredicted(crowdcdn.NewRBCAer(crowdcdn.DefaultParams()))

	fmt.Println("RBCAer over 24 hourly slots (oracle vs learned demand):")
	for _, policy := range []crowdcdn.Scheduler{oracle, factored} {
		m, err := crowdcdn.Simulate(world, tr, policy, crowdcdn.SimOptions{Seed: 1})
		if err != nil {
			return err
		}
		fmt.Printf("  %-22s serving=%.3f dist=%.2fkm repl=%.3f cdnload=%.3f\n",
			m.Scheme, m.HotspotServingRatio, m.AvgAccessDistanceKm,
			m.ReplicationCost, m.CDNServerLoad)
	}

	// Peek inside one round with the low-level scheduler: aggregate the
	// busiest slot's demand by hand and inspect the plan.
	sched, err := crowdcdn.NewRBCAScheduler(world, crowdcdn.DefaultParams())
	if err != nil {
		return err
	}
	bySlot := tr.BySlot()
	busiest, busiestCount := 0, 0
	for s, reqs := range bySlot {
		if len(reqs) > busiestCount {
			busiest, busiestCount = s, len(reqs)
		}
	}
	index, err := world.Index()
	if err != nil {
		return err
	}
	agg := crowdcdn.NewDemand(len(world.Hotspots))
	for _, req := range bySlot[busiest] {
		h, _, ok := index.Nearest(req.Location)
		if !ok {
			return fmt.Errorf("no hotspot for request %d", req.ID)
		}
		agg.Add(crowdcdn.HotspotID(h), req.Video, 1)
	}
	agg.Fold()

	plan, err := sched.ScheduleRound(agg, crowdcdn.Constraints{})
	if err != nil {
		return err
	}
	fmt.Printf("\nbusiest slot %d (%d requests):\n", busiest, busiestCount)
	fmt.Printf("  overloaded=%d under-utilized=%d content-clusters=%d\n",
		plan.Stats.Overloaded, plan.Stats.Underutilized, plan.Stats.Clusters)
	fmt.Printf("  movable workload=%d, moved=%d (%d guide nodes, %d θ iterations)\n",
		plan.Stats.MaxFlow, plan.Stats.MovedFlow, plan.Stats.GuideNodes, plan.Stats.Iterations)
	fmt.Printf("  %d per-video redirects, %d replicas placed\n",
		len(plan.Redirects), plan.Stats.Replicas)
	return nil
}
