package region_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/region"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestHierarchicalPolicyFeasibleAndCompetitive lives in the external
// test package because the policies it compares against (package
// scheme) import this one.
func TestHierarchicalPolicyFeasibleAndCompetitive(t *testing.T) {
	cfg := trace.DefaultConfig()
	cfg.NumHotspots, cfg.NumVideos, cfg.NumUsers, cfg.NumRequests, cfg.NumRegions = 80, 3000, 6000, 11000, 8
	world, tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}

	hier, err := sim.Run(world, tr, region.NewPolicy(3.0), sim.Options{Seed: 1})
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
