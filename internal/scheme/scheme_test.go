package scheme

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// buildContext generates a small calibrated world and packages slot 0
// as a scheduling context.
func buildContext(t *testing.T, mutate func(*trace.Config)) (*sim.SlotContext, *trace.World, *trace.Trace) {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.NumHotspots = 40
	cfg.NumVideos = 1500
	cfg.NumUsers = 2500
	cfg.NumRequests = 2600
	cfg.NumRegions = 6
	if mutate != nil {
		mutate(&cfg)
	}
	world, tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	index, err := world.Index()
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := sim.BuildSlotContext(world, index, 0, tr.BySlot()[0], stats.SplitRand(1, "scheme-test"))
	if err != nil {
		t.Fatal(err)
	}
	return ctx, world, tr
}

func TestNearestTargetsAndPlacement(t *testing.T) {
	ctx, world, _ := buildContext(t, nil)
	asg, err := (Nearest{}).Schedule(ctx)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	for r, target := range asg.Target {
		if target != ctx.Nearest[r] {
			t.Fatalf("request %d targeted %d, want nearest %d", r, target, ctx.Nearest[r])
		}
	}
	for h := 0; h < asg.Placement.Rows(); h++ {
		placement := asg.Placement.Row(h)
		if len(placement) > world.Hotspots[h].CacheCapacity {
			t.Fatalf("hotspot %d placement %d exceeds cache", h, len(placement))
		}
		// Every placed video must have local demand.
		for _, v := range placement {
			if ctx.Demand.Count(h, trace.VideoID(v)) == 0 {
				t.Fatalf("hotspot %d cached video %d with no local demand", h, v)
			}
		}
	}
	if (Nearest{}).Name() != "Nearest" {
		t.Error("Name() wrong")
	}
}

func TestNearestNilContext(t *testing.T) {
	if _, err := (Nearest{}).Schedule(nil); err == nil {
		t.Error("Schedule(nil) succeeded")
	}
}

func TestRandomTargetsHoldVideoWithinRadius(t *testing.T) {
	ctx, world, _ := buildContext(t, nil)
	policy := Random{RadiusKm: 1.5}
	asg, err := policy.Schedule(ctx)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	for r, target := range asg.Target {
		if target == sim.CDN {
			continue
		}
		if !asg.Placement.Contains(target, int(ctx.Requests[r].Video)) {
			t.Fatalf("request %d routed to hotspot %d lacking its video", r, target)
		}
		agg := world.Hotspots[ctx.Nearest[r]].Location
		if d := agg.DistanceTo(world.Hotspots[target].Location); d > 1.5 {
			t.Fatalf("request %d routed %.2f km from its aggregation hotspot (> radius)", r, d)
		}
	}
	if policy.Name() != "Random(1.5km)" {
		t.Errorf("Name() = %q", policy.Name())
	}
}

func TestRandomInvalidRadius(t *testing.T) {
	ctx, _, _ := buildContext(t, nil)
	if _, err := (Random{}).Schedule(ctx); err == nil {
		t.Error("Schedule with zero radius succeeded")
	}
	if _, err := (Random{RadiusKm: 1}).Schedule(nil); err == nil {
		t.Error("Schedule(nil) succeeded")
	}
}

func TestRBCAerFeasibleAndBetterThanNearest(t *testing.T) {
	_, world, tr := buildContext(t, nil)
	rb, err := sim.Run(world, tr, NewRBCAer(core.DefaultParams()), sim.Options{Seed: 1})
	if err != nil {
		t.Fatalf("Run(RBCAer): %v", err)
	}
	// RBCAer plans must be exactly feasible: the simulator never bounces
	// one of its targets.
	if rb.Infeasible != 0 {
		t.Errorf("RBCAer produced %d infeasible targets", rb.Infeasible)
	}
	near, err := sim.Run(world, tr, Nearest{}, sim.Options{Seed: 1})
	if err != nil {
		t.Fatalf("Run(Nearest): %v", err)
	}
	if rb.HotspotServingRatio < near.HotspotServingRatio {
		t.Errorf("RBCAer serving ratio %.3f below Nearest %.3f",
			rb.HotspotServingRatio, near.HotspotServingRatio)
	}
	if rb.AvgAccessDistanceKm > near.AvgAccessDistanceKm {
		t.Errorf("RBCAer distance %.3f above Nearest %.3f",
			rb.AvgAccessDistanceKm, near.AvgAccessDistanceKm)
	}
}

func TestRBCAerZeroParamsDefaulted(t *testing.T) {
	ctx, _, _ := buildContext(t, nil)
	policy := NewRBCAer(core.Params{})
	if _, err := policy.Schedule(ctx); err != nil {
		t.Fatalf("Schedule with zero params: %v", err)
	}
	if policy.Name() != "RBCAer" {
		t.Error("Name() wrong")
	}
	if _, err := policy.Schedule(nil); err == nil {
		t.Error("Schedule(nil) succeeded")
	}
}

func TestLPBasedProducesValidAssignment(t *testing.T) {
	ctx, world, tr := buildContext(t, func(c *trace.Config) {
		c.NumHotspots = 20
		c.NumVideos = 400
		c.NumUsers = 800
		c.NumRequests = 700
	})
	_ = ctx
	m, err := sim.Run(world, tr, LPBased{MaxGroups: 25, MaxCandidates: 4}, sim.Options{Seed: 1})
	if err != nil {
		t.Fatalf("Run(LPBased): %v", err)
	}
	if m.TotalRequests == 0 || m.HotspotServingRatio < 0 || m.HotspotServingRatio > 1 {
		t.Errorf("implausible metrics: %+v", m)
	}
	if (LPBased{}).Name() != "LP-based" {
		t.Error("Name() wrong")
	}
	if _, err := (LPBased{}).Schedule(nil); err == nil {
		t.Error("Schedule(nil) succeeded")
	}
	bad := LPBased{MaxGroups: -1}
	if _, err := bad.Schedule(ctx); err == nil {
		t.Error("Schedule with negative MaxGroups succeeded")
	}
}

func TestMaterializePlanHonoursRedirects(t *testing.T) {
	ctx, world, _ := buildContext(t, nil)
	sched, err := core.New(world, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sched.ScheduleRound(ctx.Demand, core.Constraints{})
	if err != nil {
		t.Fatal(err)
	}
	asg, err := MaterializePlan(ctx, plan)
	if err != nil {
		t.Fatalf("MaterializePlan: %v", err)
	}
	// Count materialised redirects: requests whose target differs from
	// their aggregation hotspot (and is not the CDN).
	var redirected int64
	for r, target := range asg.Target {
		if target != sim.CDN && target != ctx.Nearest[r] {
			redirected++
		}
	}
	var planned int64
	for _, rd := range plan.Redirects {
		planned += rd.Count
	}
	if redirected != planned {
		t.Errorf("materialised %d redirects, plan has %d", redirected, planned)
	}
}

func TestLPBasedDantzigPricing(t *testing.T) {
	ctx, _, _ := buildContext(t, func(c *trace.Config) {
		c.NumHotspots = 20
		c.NumVideos = 400
		c.NumUsers = 800
		c.NumRequests = 700
	})
	bland, err := (LPBased{MaxGroups: 25, MaxCandidates: 4}).Schedule(ctx)
	if err != nil {
		t.Fatalf("bland: %v", err)
	}
	dantzig, err := (LPBased{MaxGroups: 25, MaxCandidates: 4, Dantzig: true}).Schedule(ctx)
	if err != nil {
		t.Fatalf("dantzig: %v", err)
	}
	// Both pricings solve the same LP; the resulting assignments must
	// serve the same requests from hotspots (degenerate optima may
	// differ in which hotspot, not in whether).
	if len(bland.Target) != len(dantzig.Target) {
		t.Fatal("assignment sizes differ")
	}
}
