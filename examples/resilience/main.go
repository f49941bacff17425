// Resilience: schedule through a correlated regional outage. A blackout
// takes every hotspot within 4 km of the city centre offline for the
// middle slots of the day while a flash crowd hits the hottest videos;
// the simulator re-aggregates demand to the surviving fleet and falls
// back to the CDN for the rest. The run schedules slots on every core —
// fault injection is deterministic, so the metrics are byte-identical
// for every worker count.
package main

import (
	"fmt"
	"os"

	crowdcdn "repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "resilience: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	cfg := crowdcdn.DefaultTraceConfig()
	cfg.Slots = 8
	world, tr, err := crowdcdn.Generate(cfg)
	if err != nil {
		return err
	}
	center := crowdcdn.Point{
		X: (world.Bounds.MinX + world.Bounds.MaxX) / 2,
		Y: (world.Bounds.MinY + world.Bounds.MaxY) / 2,
	}
	outage := &crowdcdn.FaultScenario{
		Name: "downtown-blackout",
		Outages: []crowdcdn.RegionalOutage{
			{Center: center, RadiusKm: 4, StartSlot: 3, EndSlot: 6},
		},
		FlashCrowds: []crowdcdn.FlashCrowd{
			{StartSlot: 3, EndSlot: 6, TopVideos: 10, Multiplier: 2},
		},
	}
	fmt.Printf("world: %d hotspots over %.0fx%.0f km; outage radius 4 km around (%.1f, %.1f), slots 3-5\n\n",
		len(world.Hotspots), world.Bounds.Width(), world.Bounds.Height(), center.X, center.Y)

	policy, err := crowdcdn.LookupScheme("rbcaer", 1.5, crowdcdn.DefaultParams(), crowdcdn.ShardParams{}, 0)
	if err != nil {
		return err
	}
	fmt.Printf("%-10s %8s %9s %9s %9s %10s\n",
		"run", "serving", "dist(km)", "offline", "stranded", "flash-reqs")
	for _, f := range []struct {
		name     string
		scenario *crowdcdn.FaultScenario
	}{
		{"healthy", nil},
		{"blackout", outage},
	} {
		m, err := policy.Run(world, tr, 0, crowdcdn.SimOptions{Seed: 1, Faults: f.scenario})
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %8.3f %9.2f %9d %9d %10d\n",
			f.name, m.HotspotServingRatio, m.AvgAccessDistanceKm,
			m.OfflineHotspotSlots, m.StrandedRequests, m.FlashInjectedRequests)
	}
	fmt.Println("\nhotspots inside the outage serve nothing for three slots; RBCAer")
	fmt.Println("re-aggregates their demand onto the surviving ring and strands the")
	fmt.Println("overflow to the CDN. sweep five failure families with:")
	fmt.Println("go run ./cmd/cdnexp resilience")
	return nil
}
