package invariant

import (
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/lp"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/trace"
)

// lpLowerBound solves the full LP relaxation of problem (U) on one
// slot's exact demand: every hotspot is a candidate server for every
// demand group (plus the CDN), with the slot's effective service and
// cache capacities. Any feasible enforced outcome of the slot — from
// any scheme — induces a feasible fractional point (x̂ the served
// shares, ŷ the placement indicator), so the optimum is a true lower
// bound on α·Ω1 + β·Ω2.
func lpLowerBound(t *testing.T, ctx *sim.SlotContext, alpha, beta float64) float64 {
	t.Helper()
	m := len(ctx.World.Hotspots)

	type group struct {
		hotspot int
		video   trace.VideoID
		count   int64
	}
	var groups []group
	for h := 0; h < m; h++ {
		ctx.Demand.Each(h, func(v trace.VideoID, n int64) {
			if n > 0 {
				groups = append(groups, group{hotspot: h, video: v, count: n})
			}
		})
	}
	sort.Slice(groups, func(a, b int) bool {
		if groups[a].hotspot != groups[b].hotspot {
			return groups[a].hotspot < groups[b].hotspot
		}
		return groups[a].video < groups[b].video
	})

	var prob lp.Problem
	prob.Pricing = lp.DantzigPricing
	type xKey struct{ g, j int }
	xVar := make(map[xKey]lp.Var)
	yVar := make(map[int64]lp.Var)
	yKey := func(v trace.VideoID, j int) int64 { return int64(v)*int64(m) + int64(j) }
	xCDN := make([]lp.Var, len(groups))
	for gi, g := range groups {
		loc := ctx.World.Hotspots[g.hotspot].Location
		for j := 0; j < m; j++ {
			d := loc.DistanceTo(ctx.World.Hotspots[j].Location)
			xVar[xKey{g: gi, j: j}] = prob.AddVariable(alpha * float64(g.count) * d)
			if _, ok := yVar[yKey(g.video, j)]; !ok {
				yVar[yKey(g.video, j)] = prob.AddVariable(beta)
			}
		}
		xCDN[gi] = prob.AddVariable(alpha * float64(g.count) * ctx.World.CDNDistanceKm)
	}

	// Each group fully assigned (Eq. 4).
	for gi := range groups {
		row := map[lp.Var]float64{xCDN[gi]: 1}
		for j := 0; j < m; j++ {
			row[xVar[xKey{g: gi, j: j}]] = 1
		}
		if err := prob.AddConstraint(row, lp.EQ, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Serving requires placement (Eq. 5).
	for gi, g := range groups {
		for j := 0; j < m; j++ {
			row := map[lp.Var]float64{
				xVar[xKey{g: gi, j: j}]: 1,
				yVar[yKey(g.video, j)]:  -1,
			}
			if err := prob.AddConstraint(row, lp.LE, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Service capacity (Eq. 6).
	svc := ctx.EffectiveCapacity()
	for j := 0; j < m; j++ {
		row := make(map[lp.Var]float64, len(groups))
		for gi, g := range groups {
			row[xVar[xKey{g: gi, j: j}]] = float64(g.count)
		}
		if err := prob.AddConstraint(row, lp.LE, float64(svc[j])); err != nil {
			t.Fatal(err)
		}
	}
	// Cache capacity (Eq. 7).
	cache := ctx.EffectiveCacheCapacity()
	perCache := make([]map[lp.Var]float64, m)
	for k, v := range yVar {
		j := int(k % int64(m))
		if perCache[j] == nil {
			perCache[j] = make(map[lp.Var]float64)
		}
		perCache[j][v] = 1
	}
	for j, row := range perCache {
		if row == nil {
			continue
		}
		if err := prob.AddConstraint(row, lp.LE, float64(cache[j])); err != nil {
			t.Fatal(err)
		}
	}

	sol, err := prob.Solve()
	if err != nil {
		t.Fatalf("LP solve: %v", err)
	}
	if sol.Status != lp.Optimal {
		t.Fatalf("LP status %v", sol.Status)
	}
	return sol.Objective
}

// enforcedObjective schedules the slot with the given scheme and
// evaluates α·Ω1 + β·Ω2 on the enforced outcome.
func enforcedObjective(t *testing.T, ctx *sim.SlotContext, pol sim.Scheduler, alpha, beta float64) float64 {
	t.Helper()
	asg, err := pol.Schedule(ctx)
	if err != nil {
		t.Fatalf("%s: %v", pol.Name(), err)
	}
	out, err := CheckAssignment(ctx, asg)
	if err != nil {
		t.Fatalf("%s assignment invalid: %v", pol.Name(), err)
	}
	return out.Objective(alpha, beta)
}

// TestDifferentialObjectiveBounds sandwiches RBCAer's enforced
// objective between the LP-relaxation lower bound (no integer feasible
// point can beat the relaxed optimum) and Nearest's objective (the
// heuristic must not lose to never redirecting), table-driven over
// (α, β) weights and θ-sweep grids, on an oversubscribed single-slot
// world.
func TestDifferentialObjectiveBounds(t *testing.T) {
	world, tr := genWorld(t, 3, func(cfg *trace.Config) {
		// Dense downtown block: hotspots within the θ sweep's reach of
		// each other, demand well past the fleet's service capacity, so
		// redirection genuinely competes with the CDN.
		cfg.Bounds = geo.Rect{MinX: 0, MinY: 0, MaxX: 3, MaxY: 2}
		cfg.NumHotspots = 8
		cfg.NumVideos = 40
		cfg.NumUsers = 150
		cfg.NumRequests = 700
		cfg.NumRegions = 2
		cfg.RegionStdKm = 0.5
		cfg.Slots = 1
		// Capacities that leave part of the fleet underutilized while
		// the region-centre hotspots overload, so the balancer has both
		// surplus and room to move it into.
		cfg.ServiceCapacityFrac = 0.6
		cfg.CacheCapacityFrac = 0.25
	})
	ctx := slotContext(t, world, tr, 0)

	thetas := []struct{ t1, t2 float64 }{
		{0.5, 1.5}, // the paper's default sweep
		{0.5, 1.0},
		{1.0, 2.0},
	}
	weights := []struct{ alpha, beta float64 }{
		{1, 0.5},
		{1, 1},
		{1, 2},
	}
	const eps = 1e-6
	improved := false
	for _, w := range weights {
		bound := lpLowerBound(t, ctx, w.alpha, w.beta)
		nearest := enforcedObjective(t, ctx, scheme.Nearest{}, w.alpha, w.beta)
		t.Logf("α=%v β=%v: LP bound %.3f, Nearest %.3f", w.alpha, w.beta, bound, nearest)
		if bound > nearest+eps {
			t.Fatalf("α=%v β=%v: LP bound %.3f exceeds Nearest %.3f — relaxation is wrong",
				w.alpha, w.beta, bound, nearest)
		}
		for _, th := range thetas {
			params := core.DefaultParams()
			params.Theta1, params.Theta2 = th.t1, th.t2
			obj := enforcedObjective(t, ctx, scheme.NewRBCAer(params), w.alpha, w.beta)
			t.Logf("α=%v β=%v θ=[%v,%v]: RBCAer %.3f", w.alpha, w.beta, th.t1, th.t2, obj)
			if obj < bound-eps*(1+bound) {
				t.Errorf("α=%v β=%v θ=[%v,%v]: RBCAer objective %.3f below LP lower bound %.3f",
					w.alpha, w.beta, th.t1, th.t2, obj, bound)
			}
			if obj > nearest+eps {
				t.Errorf("α=%v β=%v θ=[%v,%v]: RBCAer objective %.3f worse than Nearest %.3f",
					w.alpha, w.beta, th.t1, th.t2, obj, nearest)
			}
			if obj < nearest-eps {
				improved = true
			}
		}
	}
	// A sandwich where RBCAer never beats Nearest means the world has
	// degenerated to no balancing opportunity and the test is vacuous.
	if !improved {
		t.Error("RBCAer never improved on Nearest; world no longer exercises redirection")
	}
}
