package scheme

import (
	"testing"

	"repro/internal/core"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestFactoredPredictedRunsAndBeatsDirect(t *testing.T) {
	cfg := trace.DefaultConfig()
	cfg.NumHotspots = 40
	cfg.NumVideos = 1500
	cfg.NumUsers = 3000
	cfg.NumRequests = 40000
	cfg.NumRegions = 6
	cfg.Slots = 48
	cfg.ServiceCapacityFrac *= 0.6
	world, tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	factored, err := sim.Run(world, tr,
		NewFactoredPredicted(NewRBCAer(core.DefaultParams())), sim.Options{Seed: 1})
	if err != nil {
		t.Fatalf("Run(factored): %v", err)
	}
	if factored.Infeasible != 0 {
		t.Errorf("factored produced %d infeasible targets", factored.Infeasible)
	}
	direct, err := sim.Run(world, tr,
		&Predicted{Inner: NewRBCAer(core.DefaultParams()), Method: predict.Seasonal{Period: 24}},
		sim.Options{Seed: 1})
	if err != nil {
		t.Fatalf("Run(direct seasonal): %v", err)
	}
	// The factored forecaster's whole point: it must not be worse than
	// direct per-(hotspot, video) forecasting.
	if factored.HotspotServingRatio < direct.HotspotServingRatio-0.02 {
		t.Errorf("factored serving %.3f clearly below direct seasonal %.3f",
			factored.HotspotServingRatio, direct.HotspotServingRatio)
	}
}

func TestFactoredPredictedValidation(t *testing.T) {
	if _, err := NewFactoredPredicted(NewRBCAer(core.DefaultParams())).Schedule(nil); err == nil {
		t.Error("Schedule(nil) succeeded")
	}
	ctx, _, _ := buildContext(t, nil)
	if _, err := (&FactoredPredicted{}).Schedule(ctx); err == nil {
		t.Error("Schedule without inner succeeded")
	}
	name := NewFactoredPredicted(NewRBCAer(core.DefaultParams())).Name()
	if name != "RBCAer+factored(seasonal(24))" {
		t.Errorf("Name() = %q", name)
	}
}

func TestSpreadDemandConservesTotal(t *testing.T) {
	shares := map[trace.VideoID]float64{1: 5, 2: 3, 3: 2}
	d := core.NewDemand(1)
	spreadDemand(d, 0, 100, shares)
	if d.Totals[0] != 100 {
		t.Fatalf("spread total = %d, want 100", d.Totals[0])
	}
	// Proportional: video 1 gets half.
	if d.Count(0, 1) != 50 || d.Count(0, 2) != 30 || d.Count(0, 3) != 20 {
		t.Errorf("allocation = %v, want 50/30/20", d.VideoCounts(0))
	}
	// Largest-remainder handling with a non-divisible total.
	d2 := core.NewDemand(1)
	spreadDemand(d2, 0, 10, map[trace.VideoID]float64{1: 1, 2: 1, 3: 1})
	if d2.Totals[0] != 10 {
		t.Fatalf("spread total = %d, want 10", d2.Totals[0])
	}
	// Zero shares allocate nothing.
	d3 := core.NewDemand(1)
	spreadDemand(d3, 0, 10, map[trace.VideoID]float64{})
	if d3.Totals[0] != 0 {
		t.Errorf("empty shares allocated %d", d3.Totals[0])
	}
}

func TestFillOverprovisionPlacesMore(t *testing.T) {
	ctx, world, _ := buildContext(t, nil)
	base, err := core.New(world, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	over := core.DefaultParams()
	over.FillOverprovision = 5
	generous, err := core.New(world, over)
	if err != nil {
		t.Fatal(err)
	}
	basePlan, err := base.Schedule(ctx.Demand)
	if err != nil {
		t.Fatal(err)
	}
	generousPlan, err := generous.Schedule(ctx.Demand)
	if err != nil {
		t.Fatal(err)
	}
	if generousPlan.Stats.Replicas < basePlan.Stats.Replicas {
		t.Errorf("overprovisioned fill placed fewer replicas: %d < %d",
			generousPlan.Stats.Replicas, basePlan.Stats.Replicas)
	}
	bad := core.DefaultParams()
	bad.FillOverprovision = -1
	if _, err := core.New(world, bad); err == nil {
		t.Error("negative FillOverprovision accepted")
	}
}
