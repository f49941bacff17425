package region_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The hierarchical policy's end-to-end tests live in this directory's
// external test package: the policy (scheme.NewHierarchical) runs on
// this package's partitions and virtual world, and package scheme
// imports this one.

func TestHierarchicalPolicyFeasibleAndCompetitive(t *testing.T) {
	cfg := trace.DefaultConfig()
	cfg.NumHotspots, cfg.NumVideos, cfg.NumUsers, cfg.NumRequests, cfg.NumRegions = 80, 3000, 6000, 11000, 8
	world, tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}

	hier, err := sim.Run(world, tr, scheme.NewHierarchical(3.0), sim.Options{Seed: 1})
	if err != nil {
		t.Fatalf("Run(hierarchical): %v", err)
	}
	if hier.Infeasible != 0 {
		t.Errorf("hierarchical produced %d infeasible targets", hier.Infeasible)
	}
	near, err := sim.Run(world, tr, scheme.Nearest{}, sim.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if hier.HotspotServingRatio < near.HotspotServingRatio {
		t.Errorf("hierarchical serving %.3f below Nearest %.3f",
			hier.HotspotServingRatio, near.HotspotServingRatio)
	}
	flat, err := sim.Run(world, tr, scheme.NewRBCAer(core.DefaultParams()), sim.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Hierarchical trades some quality for scalability but should stay
	// within a reasonable band of flat RBCAer.
	if hier.HotspotServingRatio < 0.9*flat.HotspotServingRatio {
		t.Errorf("hierarchical serving %.3f more than 10%% below flat RBCAer %.3f",
			hier.HotspotServingRatio, flat.HotspotServingRatio)
	}
}

func TestHierarchicalPolicyValidation(t *testing.T) {
	if _, err := scheme.NewHierarchical(3).Schedule(nil); err == nil {
		t.Error("Schedule(nil) succeeded")
	}
	cfg := trace.DefaultConfig()
	cfg.NumHotspots, cfg.NumVideos, cfg.NumUsers, cfg.NumRequests, cfg.NumRegions = 20, 500, 500, 600, 3
	world, tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	index, err := world.Index()
	if err != nil {
		t.Fatal(err)
	}
	ctx := &sim.SlotContext{
		World:    world,
		Index:    index,
		Requests: tr.Requests,
		Nearest:  make([]int, len(tr.Requests)),
		Demand:   core.NewDemand(len(world.Hotspots)),
	}
	if _, err := scheme.NewHierarchical(-1).Schedule(ctx); err == nil {
		t.Error("Schedule with negative cell succeeded")
	}
	if scheme.NewHierarchical(0).Name() != "RBCAer-hierarchical" {
		t.Error("Name() wrong")
	}
}
