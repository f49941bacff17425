package scheme

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/lp"
	"repro/internal/sim"
	"repro/internal/trace"
)

// LPBased is the paper's LP-relaxation baseline (Fig. 8): it relaxes
// the joint request-redirection / content-placement ILP (problem U) on
// a sample of the demand, solves the relaxation with the internal
// simplex solver, and rounds the fractional solution. Unsampled demand
// falls back to Nearest behaviour so the policy remains a complete
// scheduler.
//
// Like the paper — which could only solve a 10K-request sample with
// GLPK and still measured hours of runtime — this scheme exists to
// quantify how impractical exact-optimisation scheduling is; its
// quality is not the point. MaxGroups bounds the LP size so the demo
// completes in seconds rather than hours.
type LPBased struct {
	// MaxGroups caps how many (hotspot, video) demand groups enter the
	// LP (largest first). 0 selects the default of 500.
	MaxGroups int
	// MaxCandidates caps serving candidates per group (nearest first,
	// always including the aggregation hotspot). 0 selects 6.
	MaxCandidates int
	// CandidateRadiusKm bounds candidate distance. 0 selects 1.5.
	CandidateRadiusKm float64
	// Beta weights the replication-cost term of the objective
	// (α is fixed to 1). 0 selects 1.0.
	Beta float64
	// Dantzig switches the simplex to most-negative-reduced-cost
	// pricing (usually far fewer iterations than the default Bland
	// rule; falls back to Bland on stalls).
	Dantzig bool
}

var _ sim.Scheduler = LPBased{}

// Name implements sim.Scheduler.
func (LPBased) Name() string { return "LP-based" }

func (s LPBased) defaults() LPBased {
	if s.MaxGroups == 0 {
		s.MaxGroups = 500
	}
	if s.MaxCandidates == 0 {
		s.MaxCandidates = 6
	}
	if s.CandidateRadiusKm == 0 {
		s.CandidateRadiusKm = 1.5
	}
	if s.Beta == 0 {
		s.Beta = 1.0
	}
	return s
}

// Schedule implements sim.Scheduler.
func (s LPBased) Schedule(ctx *sim.SlotContext) (*sim.Assignment, error) {
	if ctx == nil {
		return nil, fmt.Errorf("scheme: nil context")
	}
	s = s.defaults()
	if s.MaxGroups < 0 || s.MaxCandidates < 1 || s.CandidateRadiusKm < 0 || s.Beta < 0 {
		return nil, fmt.Errorf("scheme: invalid LP-based configuration %+v", s)
	}
	m := len(ctx.World.Hotspots)

	// Demand groups (aggregation hotspot, video, count), largest first.
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
		if groups[a].count != groups[b].count {
			return groups[a].count > groups[b].count
		}
		if groups[a].hotspot != groups[b].hotspot {
			return groups[a].hotspot < groups[b].hotspot
		}
		return groups[a].video < groups[b].video
	})
	if len(groups) > s.MaxGroups {
		groups = groups[:s.MaxGroups]
	}

	// Build the LP relaxation of problem (U) over the sample.
	var prob lp.Problem
	if s.Dantzig {
		prob.Pricing = lp.DantzigPricing
	}
	type xKey struct {
		g int
		j int
	}
	xVar := make(map[xKey]lp.Var)
	yVar := make(map[int64]lp.Var) // (video, hotspot) -> y
	yKey := func(v trace.VideoID, j int) int64 {
		return int64(v)*int64(m) + int64(j)
	}
	candsOf := make([][]int, len(groups))
	xCDN := make([]lp.Var, len(groups))

	for gi, g := range groups {
		loc := ctx.World.Hotspots[g.hotspot].Location
		nbrs := ctx.Index.Within(loc, s.CandidateRadiusKm)
		cands := make([]int, 0, s.MaxCandidates)
		for _, nb := range nbrs {
			cands = append(cands, nb.ID)
			if len(cands) >= s.MaxCandidates {
				break
			}
		}
		if len(cands) == 0 {
			cands = append(cands, g.hotspot)
		}
		candsOf[gi] = cands
		for _, j := range cands {
			d := loc.DistanceTo(ctx.World.Hotspots[j].Location)
			xVar[xKey{g: gi, j: j}] = prob.AddVariable(float64(g.count) * d)
			if _, ok := yVar[yKey(g.video, j)]; !ok {
				yVar[yKey(g.video, j)] = prob.AddVariable(s.Beta)
			}
		}
		xCDN[gi] = prob.AddVariable(float64(g.count) * ctx.World.CDNDistanceKm)
	}

	// Each group is fully assigned (Eq. 4).
	for gi := range groups {
		row := map[lp.Var]float64{xCDN[gi]: 1}
		for _, j := range candsOf[gi] {
			row[xVar[xKey{g: gi, j: j}]] = 1
		}
		if err := prob.AddConstraint(row, lp.EQ, 1); err != nil {
			return nil, fmt.Errorf("scheme: LP assignment row: %w", err)
		}
	}
	// Serving requires placement: x_gj <= y_vj (Eq. 5).
	for gi, g := range groups {
		for _, j := range candsOf[gi] {
			row := map[lp.Var]float64{
				xVar[xKey{g: gi, j: j}]: 1,
				yVar[yKey(g.video, j)]:  -1,
			}
			if err := prob.AddConstraint(row, lp.LE, 0); err != nil {
				return nil, fmt.Errorf("scheme: LP coupling row: %w", err)
			}
		}
	}
	// Service capacity (Eq. 6). Rows enter the LP in hotspot order, not
	// map order: the simplex's pivots — and, on a degenerate LP, which
	// optimal vertex it stops at — depend on the row order.
	perServer := make([]map[lp.Var]float64, m)
	for gi, g := range groups {
		for _, j := range candsOf[gi] {
			if perServer[j] == nil {
				perServer[j] = make(map[lp.Var]float64)
			}
			perServer[j][xVar[xKey{g: gi, j: j}]] = float64(g.count)
		}
	}
	capacity := ctx.EffectiveCapacity()
	cache := ctx.EffectiveCacheCapacity()
	for j, row := range perServer {
		if row == nil {
			continue
		}
		if err := prob.AddConstraint(row, lp.LE, float64(capacity[j])); err != nil {
			return nil, fmt.Errorf("scheme: LP capacity row: %w", err)
		}
	}
	// Cache capacity (Eq. 7). Explicit y <= 1 rows are redundant: y is
	// only pushed up by x <= y with Σx = 1, and the objective minimises
	// y, so y never exceeds 1 at an optimum.
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
			return nil, fmt.Errorf("scheme: LP cache row: %w", err)
		}
	}

	sol, err := prob.Solve()
	if err != nil {
		return nil, fmt.Errorf("scheme: solving LP relaxation: %w", err)
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("scheme: LP relaxation %v", sol.Status)
	}

	// Round: start from Nearest placement, force-in replicas for the
	// groups' chosen servers, then route sampled demand accordingly.
	nearest := topPlacement(ctx.Demand, cache)
	forced := make([][]int32, m) // videos forced in at each hotspot

	type route struct {
		target int
		budget int64
	}
	routesOf := make(map[int64][]*route) // (hotspot, video) -> ordered targets
	gKey := func(h int, v trace.VideoID) int64 {
		return int64(h)*int64(ctx.World.NumVideos) + int64(v)
	}
	for gi, g := range groups {
		// Distribute the group's demand across candidates by the
		// fractional x, largest share first.
		type share struct {
			j    int
			frac float64
		}
		var shares []share
		for _, j := range candsOf[gi] {
			f := sol.Value(xVar[xKey{g: gi, j: j}])
			if f > 1e-6 {
				shares = append(shares, share{j: j, frac: f})
			}
		}
		sort.Slice(shares, func(a, b int) bool {
			if shares[a].frac != shares[b].frac {
				return shares[a].frac > shares[b].frac
			}
			return shares[a].j < shares[b].j
		})
		remaining := g.count
		for _, sh := range shares {
			if remaining <= 0 {
				break
			}
			amt := int64(float64(g.count)*sh.frac + 0.5)
			if amt > remaining {
				amt = remaining
			}
			if amt <= 0 {
				continue
			}
			if !nearest.Contains(sh.j, int(g.video)) && !slices.Contains(forced[sh.j], int32(g.video)) {
				if nearest.Len(sh.j)+len(forced[sh.j]) >= cache[sh.j] {
					continue
				}
				forced[sh.j] = append(forced[sh.j], int32(g.video))
			}
			routesOf[gKey(g.hotspot, g.video)] = append(routesOf[gKey(g.hotspot, g.video)],
				&route{target: sh.j, budget: amt})
			remaining -= amt
		}
		// Whatever share remains follows the CDN variable implicitly
		// (no route entry → Nearest fallback below).
	}

	// Route requests: sampled groups follow the LP rounding, everything
	// else behaves like Nearest.
	targets := make([]int, len(ctx.Requests))
	for r, req := range ctx.Requests {
		h := ctx.Nearest[r]
		targets[r] = h
		if routes, ok := routesOf[gKey(h, req.Video)]; ok {
			for _, rt := range routes {
				if rt.budget > 0 {
					rt.budget--
					targets[r] = rt.target
					break
				}
			}
		}
	}
	return &sim.Assignment{Placement: nearest.WithAdded(forced), Target: targets}, nil
}
