// Package invariant checks scheduling outputs against the paper's
// feasibility constraints, independently of the code that produced
// them. It is a test harness: property tests run every scheme's output
// through these checks across seeds and fault timelines, so a
// scheduler change that violates a constraint — overloading a hotspot,
// overfilling a cache, dropping or double-assigning requests, or
// drifting the Ω1/Ω2 accounting away from the plan — fails loudly.
package invariant

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// omega1Eps tolerates float summation drift when recomputing Ω1.
const omega1Eps = 1e-6

// effective resolves a round's effective service and cache capacities
// from the constraints, falling back to the world's nominal values.
func effective(world *trace.World, cons core.Constraints) (svc []int64, cache []int) {
	svc = cons.Service
	if svc == nil {
		svc = world.ServiceCapacities()
	}
	cache = cons.Cache
	if cache == nil {
		cache = world.CacheCapacities()
	}
	return svc, cache
}

// CheckPlan verifies a core.Plan against the demand and effective
// constraints it was scheduled under:
//
//   - replica count per hotspot within the effective cache capacity
//     c_h, and Stats.Replicas consistent with the placement;
//   - every redirect realisable: positive count, distinct endpoints,
//     video placed at the target, and per-video redirected demand
//     within the source's aggregated demand;
//   - flow conservation (exactly-once assignment at hotspot
//     granularity): for every hotspot, redirected-out workload plus
//     CDN overflow equals its surplus max(0, λ_h − s_h), and
//     Plan.Flows match the per-pair redirect totals;
//   - per-hotspot service load within the effective capacity s_h:
//     retained demand plus redirected inflow never exceeds s_h;
//   - the Stats ledger consistent: Σ Flows = MovedFlow −
//     UnrealizedFlow ≤ MaxFlow, StrandedToCDN = Σ OverflowToCDN, and
//     Ω1 recomputed from the redirects and overflow matches
//     Stats.Omega1Km (Ω2 is Stats.Replicas).
func CheckPlan(world *trace.World, d *core.Demand, cons core.Constraints, plan *core.Plan) error {
	if world == nil || d == nil || plan == nil {
		return fmt.Errorf("invariant: nil world, demand, or plan")
	}
	m := len(world.Hotspots)
	if d.NumHotspots() != m {
		return fmt.Errorf("invariant: demand covers %d hotspots, world has %d", d.NumHotspots(), m)
	}
	svc, cache := effective(world, cons)

	// Cache constraint and Ω2 consistency.
	replicas, err := checkPlacement(&plan.Placement, cache)
	if err != nil {
		return err
	}
	if replicas != plan.Stats.Replicas {
		return fmt.Errorf("invariant: Stats.Replicas = %d, placement holds %d",
			plan.Stats.Replicas, replicas)
	}

	// Redirect validity and per-hotspot accounting.
	if len(plan.OverflowToCDN) != m {
		return fmt.Errorf("invariant: overflow covers %d hotspots, want %d", len(plan.OverflowToCDN), m)
	}
	outBy := make([]int64, m)
	inBy := make([]int64, m)
	perVideoOut := make([]map[trace.VideoID]int64, m)
	pairTotals := make(map[[2]int]int64)
	for k, r := range plan.Redirects {
		i, j := int(r.From), int(r.To)
		if i < 0 || i >= m || j < 0 || j >= m {
			return fmt.Errorf("invariant: redirect %d endpoints (%d → %d) out of range", k, i, j)
		}
		if i == j {
			return fmt.Errorf("invariant: redirect %d is a self-loop at hotspot %d", k, i)
		}
		if r.Count <= 0 {
			return fmt.Errorf("invariant: redirect %d has non-positive count %d", k, r.Count)
		}
		if !plan.Placement.Contains(j, int(r.Video)) {
			return fmt.Errorf("invariant: redirect %d sends video %d to hotspot %d, which does not place it",
				k, r.Video, j)
		}
		outBy[i] += r.Count
		inBy[j] += r.Count
		if perVideoOut[i] == nil {
			perVideoOut[i] = make(map[trace.VideoID]int64)
		}
		perVideoOut[i][r.Video] += r.Count
		pairTotals[[2]int{i, j}] += r.Count
	}
	for h, byVideo := range perVideoOut {
		for v, n := range byVideo {
			if n > d.Count(h, v) {
				return fmt.Errorf("invariant: hotspot %d redirects %d requests for video %d but aggregates only %d",
					h, n, v, d.Count(h, v))
			}
		}
	}

	// Plan.Flows must be exactly the per-pair redirect totals.
	flowPairs := make(map[[2]int]int64)
	for k, f := range plan.Flows {
		if f.Amount <= 0 {
			return fmt.Errorf("invariant: flow %d has non-positive amount %d", k, f.Amount)
		}
		flowPairs[[2]int{int(f.From), int(f.To)}] += f.Amount
	}
	if len(flowPairs) != len(pairTotals) {
		return fmt.Errorf("invariant: %d flow pairs vs %d redirect pairs", len(flowPairs), len(pairTotals))
	}
	for pair, amt := range flowPairs {
		if pairTotals[pair] != amt {
			return fmt.Errorf("invariant: flow %d→%d carries %d, redirects realise %d",
				pair[0], pair[1], amt, pairTotals[pair])
		}
	}

	// Flow conservation per hotspot, and the service-capacity bound
	// (paper constraint (2)): retained demand plus inflow fits s_h.
	var totalOut, totalOverflow int64
	for h := 0; h < m; h++ {
		o := plan.OverflowToCDN[h]
		if o < 0 {
			return fmt.Errorf("invariant: negative overflow %d at hotspot %d", o, h)
		}
		surplus := d.Totals[h] - svc[h]
		if surplus < 0 {
			surplus = 0
		}
		if outBy[h]+o != surplus {
			return fmt.Errorf("invariant: hotspot %d redirects %d + overflow %d ≠ surplus %d (λ=%d, s=%d)",
				h, outBy[h], o, surplus, d.Totals[h], svc[h])
		}
		retained := d.Totals[h] - outBy[h] - o
		if retained < 0 {
			return fmt.Errorf("invariant: hotspot %d retained demand is negative (%d)", h, retained)
		}
		if retained+inBy[h] > svc[h] {
			return fmt.Errorf("invariant: hotspot %d load %d (retained %d + inflow %d) exceeds effective capacity %d",
				h, retained+inBy[h], retained, inBy[h], svc[h])
		}
		totalOut += outBy[h]
		totalOverflow += o
	}

	// Stats ledger.
	st := plan.Stats
	if st.MovedFlow > st.MaxFlow {
		return fmt.Errorf("invariant: MovedFlow %d exceeds MaxFlow %d", st.MovedFlow, st.MaxFlow)
	}
	if st.UnrealizedFlow < 0 || st.UnrealizedFlow > st.MovedFlow {
		return fmt.Errorf("invariant: UnrealizedFlow %d outside [0, MovedFlow=%d]",
			st.UnrealizedFlow, st.MovedFlow)
	}
	if realized := st.MovedFlow - st.UnrealizedFlow; totalOut != realized {
		return fmt.Errorf("invariant: redirects realise %d, Stats claim MovedFlow−UnrealizedFlow = %d",
			totalOut, realized)
	}
	if totalOverflow != st.StrandedToCDN {
		return fmt.Errorf("invariant: Σ overflow = %d, Stats.StrandedToCDN = %d",
			totalOverflow, st.StrandedToCDN)
	}

	// Ω1 recompute from X (redirects + overflow), same summation order
	// as the scheduler.
	var omega1 float64
	for _, r := range plan.Redirects {
		omega1 += float64(r.Count) *
			world.Hotspots[r.From].Location.DistanceTo(world.Hotspots[r.To].Location)
	}
	omega1 += float64(totalOverflow) * world.CDNDistanceKm
	if diff := math.Abs(omega1 - st.Omega1Km); diff > omega1Eps*math.Max(1, math.Abs(omega1)) {
		return fmt.Errorf("invariant: Ω1 recomputed %.9f, Stats.Omega1Km %.9f (Δ=%g)",
			omega1, st.Omega1Km, diff)
	}
	return nil
}

// Outcome is the enforced result of one slot assignment: what each
// hotspot actually serves once the simulator's feasibility rule
// (placement present and capacity remaining, else CDN) is applied.
type Outcome struct {
	// Served[h] is the number of requests hotspot h serves.
	Served []int64
	// CDN is the number of requests the origin serves.
	CDN int64
	// Replicas is Σ placement sizes (Ω2 for this slot).
	Replicas int64
	// Omega1Km is Σ over requests of the aggregation-hotspot → server
	// distance (0 when served at the request's own aggregation
	// hotspot, CDNDistanceKm for origin-served requests).
	Omega1Km float64
}

// CheckAssignment verifies a slot assignment from any scheme against
// the slot's effective constraints — placement within effective cache
// capacities, every request assigned exactly one well-formed target —
// then applies the simulator's feasibility enforcement and returns the
// enforced outcome, whose per-hotspot loads are verified against the
// effective service capacities.
func CheckAssignment(ctx *sim.SlotContext, asg *sim.Assignment) (*Outcome, error) {
	if ctx == nil || asg == nil {
		return nil, fmt.Errorf("invariant: nil context or assignment")
	}
	m := len(ctx.World.Hotspots)
	if len(asg.Target) != len(ctx.Requests) {
		return nil, fmt.Errorf("invariant: %d targets for %d requests", len(asg.Target), len(ctx.Requests))
	}
	replicas, err := checkPlacement(&asg.Placement, ctx.EffectiveCacheCapacity())
	if err != nil {
		return nil, err
	}
	out := &Outcome{Served: make([]int64, m), Replicas: replicas}

	// Enforce feasibility exactly as the simulator does, in request
	// order, and account the aggregation-hotspot → server distances.
	capLeft := append([]int64(nil), ctx.EffectiveCapacity()...)
	for r, req := range ctx.Requests {
		target := asg.Target[r]
		if target != sim.CDN && (target < 0 || target >= m) {
			return nil, fmt.Errorf("invariant: request %d target %d out of range", r, target)
		}
		if target != sim.CDN {
			if capLeft[target] <= 0 || !asg.Placement.Contains(target, int(req.Video)) {
				target = sim.CDN
			}
		}
		if target == sim.CDN {
			out.CDN++
			out.Omega1Km += ctx.World.CDNDistanceKm
			continue
		}
		capLeft[target]--
		out.Served[target]++
		if h := ctx.Nearest[r]; h != target {
			out.Omega1Km += ctx.World.Hotspots[h].Location.
				DistanceTo(ctx.World.Hotspots[target].Location)
		}
	}
	svc := ctx.EffectiveCapacity()
	for h, n := range out.Served {
		if n > svc[h] {
			return nil, fmt.Errorf("invariant: hotspot %d serves %d, effective capacity is %d",
				h, n, svc[h])
		}
	}
	return out, nil
}

// checkPlacement verifies a placement covers every hotspot, each row
// strictly ascending (a set) and within its effective cache, and returns
// the replicas it holds.
func checkPlacement(p *core.PlacementRuns, cache []int) (int64, error) {
	if p.Rows() != len(cache) {
		return 0, fmt.Errorf("invariant: placement covers %d hotspots, want %d", p.Rows(), len(cache))
	}
	for h := range cache {
		row := p.Row(h)
		if len(row) > cache[h] {
			return 0, fmt.Errorf("invariant: hotspot %d places %d videos, effective cache is %d",
				h, len(row), cache[h])
		}
		for i := 1; i < len(row); i++ {
			if row[i] <= row[i-1] {
				return 0, fmt.Errorf("invariant: hotspot %d placement row is not strictly ascending", h)
			}
		}
	}
	return int64(len(p.IDs)), nil
}

// Objective evaluates α·Ω1 + β·Ω2 for an enforced slot outcome: Ω1 is
// the total aggregation-hotspot → server distance (CDN requests at
// CDNDistanceKm) and Ω2 the number of replicas placed.
func (o *Outcome) Objective(alpha, beta float64) float64 {
	return alpha*o.Omega1Km + beta*float64(o.Replicas)
}
