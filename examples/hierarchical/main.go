// Hierarchical: scale RBCAer to a city-size fleet with the
// cross-region mode the paper proposes as future work — RBCAer across
// region-level virtual hotspots, the cross-region flow realised as
// demand moves between hotspots, then one sharded round (RBCAer within
// each region, regions solved concurrently, no boundary pass) — and
// compare it against flat RBCAer, at the paper's θ2 = 1.5 km and with
// θ2 widened to the range the cross-region round reaches, on quality
// and scheduling time.
package main

import (
	"fmt"
	"os"

	crowdcdn "repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "hierarchical: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	// A 4x-the-paper fleet over a proportionally larger area.
	cfg := crowdcdn.DefaultTraceConfig()
	cfg.NumHotspots = 1240
	cfg.NumUsers = 120000
	cfg.NumRequests = 850000
	cfg.NumRegions = 56
	cfg.Bounds.MaxX = 34
	cfg.Bounds.MaxY = 22

	world, tr, err := crowdcdn.Generate(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("world: %d hotspots, %d requests over %.0fx%.0f km\n\n",
		len(world.Hotspots), len(tr.Requests), world.Bounds.Width(), world.Bounds.Height())

	wide := crowdcdn.DefaultParams()
	wide.Theta2 = 6
	policies := []struct {
		label  string
		policy crowdcdn.Scheduler
	}{
		{"RBCAer (θ2 = 1.5 km)", crowdcdn.NewRBCAer(crowdcdn.DefaultParams())},
		{"RBCAer (θ2 = 6 km)", crowdcdn.NewRBCAer(wide)},
		{"RBCAer-hierarchical", crowdcdn.NewHierarchical(3.0)},
	}
	fmt.Printf("%-22s %8s %9s %8s %8s %14s\n", "scheme", "serving", "dist(km)", "repl(x)", "cdnload", "sched-time")
	for _, p := range policies {
		m, err := crowdcdn.Simulate(world, tr, p.policy, crowdcdn.SimOptions{Seed: 1})
		if err != nil {
			return err
		}
		fmt.Printf("%-22s %8.3f %9.2f %8.2f %8.3f %14v\n",
			p.label, m.HotspotServingRatio, m.AvgAccessDistanceKm, m.ReplicationCost,
			m.CDNServerLoad, m.SchedulingTime.Round(1000000))
	}
	fmt.Println("\nthe cross-region round balances across longer ranges than flat")
	fmt.Println("RBCAer's θ2 = 1.5 km neighbourhood allows — and so does flat RBCAer")
	fmt.Println("once θ2 is widened, which serves more still and replicates more;")
	fmt.Println("the decomposition takes longer than the θ2 = 1.5 km round.")
	fmt.Println("sweep fleet sizes with: go run ./cmd/cdnexp ext-hier")
	return nil
}
