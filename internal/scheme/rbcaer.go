package scheme

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/trace"
)

// PlanPolicy adapts a plan-producing scheduler — the flat
// core.Scheduler (Algorithm 1 + Procedure 1) or the sharded
// shard.Scheduler — to the simulator: it builds the scheduler lazily
// for the slot's world (again if the world changes), runs one round on
// the slot's aggregated demand, and materialises the plan's per-video
// redirects into per-request targets.
type PlanPolicy struct {
	name string
	// build returns the ScheduleRound of a scheduler for the world.
	build func(*trace.World) (roundFunc, error)

	world *trace.World
	round roundFunc
}

// roundFunc is one scheduling round: a scheduler's ScheduleRound.
type roundFunc = func(*core.Demand, core.Constraints) (*core.Plan, error)

var _ sim.Scheduler = (*PlanPolicy)(nil)

// NewRBCAer returns the RBCAer policy with the given parameters; the
// zero value selects core.DefaultParams.
func NewRBCAer(params core.Params) *PlanPolicy {
	if params == (core.Params{}) {
		params = core.DefaultParams()
	}
	return &PlanPolicy{name: "RBCAer", build: func(world *trace.World) (roundFunc, error) {
		sched, err := core.New(world, params)
		if err != nil {
			return nil, err
		}
		return sched.ScheduleRound, nil
	}}
}

// NewSharded returns the sharded regional RBCAer policy (see
// internal/shard): one sharded round per slot.
func NewSharded(p shard.Params) *PlanPolicy {
	return &PlanPolicy{name: "RBCAer-sharded", build: func(world *trace.World) (roundFunc, error) {
		sched, err := shard.New(world, p)
		if err != nil {
			return nil, err
		}
		return sched.ScheduleRound, nil
	}}
}

// Name implements sim.Scheduler.
func (p *PlanPolicy) Name() string { return p.name }

// Schedule implements sim.Scheduler.
func (p *PlanPolicy) Schedule(ctx *sim.SlotContext) (*sim.Assignment, error) {
	if ctx == nil {
		return nil, fmt.Errorf("scheme: nil context")
	}
	if p.round == nil || p.world != ctx.World {
		round, err := p.build(ctx.World)
		if err != nil {
			return nil, fmt.Errorf("scheme: building %s: %w", p.name, err)
		}
		p.world, p.round = ctx.World, round
	}
	// The round runs against the slot's effective, fault-degraded
	// capacities.
	plan, err := p.round(ctx.Demand, core.Constraints{
		Service: ctx.EffectiveCapacity(),
		Cache:   ctx.EffectiveCacheCapacity(),
	})
	if err != nil {
		return nil, fmt.Errorf("scheme: scheduling round: %w", err)
	}
	asg, err := MaterializePlan(ctx, plan)
	if err != nil {
		return nil, err
	}
	asg.Degraded = plan.Degraded
	asg.StrandedDemand = plan.Stats.StrandedToCDN
	asg.Phases = plan.Stats.Phases
	asg.Events = plan.Events
	asg.Plan = plan
	return asg, nil
}

// MaterializePlan converts a core.Plan into per-request targets:
// redirected (hotspot, video) demand is sent to the plan's targets, the
// rest is served locally while the local service budget (capacity minus
// reserved inflow) lasts, and everything else goes to the CDN. It is
// exported so experiments can route a plan produced outside the policy
// (e.g. from predicted demand).
//
// The redirects are grouped by (source, video) — sorted by (source,
// video, plan position), so each group keeps plan order — and each
// group is a queue drained front to back by a cursor: a request takes its group's current redirect and
// the cursor moves on once that redirect's count is spent. Which group
// and which placement entry each request's (hotspot, video) meets is
// looked up for all requests at once (core.Probes); the requests are
// then routed in order.
func MaterializePlan(ctx *sim.SlotContext, plan *core.Plan) (*sim.Assignment, error) {
	m := len(ctx.World.Hotspots)

	// order lists the redirects by (source, video, plan position); the
	// groups are its runs, keyed like a placement: row h holds the
	// videos of hotspot h's groups, ascending.
	order := make([]int32, len(plan.Redirects))
	inflow := make([]int64, m)
	for i, rd := range plan.Redirects {
		order[i] = int32(i)
		inflow[rd.To] += rd.Count
	}
	slices.SortFunc(order, func(a, b int32) int {
		ra, rb := &plan.Redirects[a], &plan.Redirects[b]
		return cmp.Or(cmp.Compare(ra.From, rb.From), cmp.Compare(ra.Video, rb.Video), cmp.Compare(a, b))
	})
	type group struct {
		next, end int32 // the redirect being drained, as a position in order
		left      int64 // what that redirect has left to serve
	}
	var groups []group
	keys := core.PlacementRuns{IDs: make([]int32, 0, len(order)), Off: make([]int, 1, m+1)}
	for lo := 0; lo < len(order); {
		first := plan.Redirects[order[lo]]
		hi := lo + 1
		for hi < len(order) && plan.Redirects[order[hi]].From == first.From && plan.Redirects[order[hi]].Video == first.Video {
			hi++
		}
		for len(keys.Off) <= int(first.From) {
			keys.Off = append(keys.Off, len(keys.IDs))
		}
		groups = append(groups, group{next: int32(lo), end: int32(hi), left: first.Count})
		keys.IDs = append(keys.IDs, int32(first.Video))
		lo = hi
	}
	for len(keys.Off) <= m {
		keys.Off = append(keys.Off, len(keys.IDs))
	}

	capacity := ctx.EffectiveCapacity()
	localBudget := make([]int64, m)
	for h := 0; h < m; h++ {
		localBudget[h] = capacity[h] - inflow[h]
		if localBudget[h] < 0 {
			return nil, fmt.Errorf("scheme: plan reserves %d inflow at hotspot %d beyond capacity %d",
				inflow[h], h, capacity[h])
		}
	}

	videos := make([]trace.VideoID, len(ctx.Requests))
	for r := range ctx.Requests {
		videos[r] = ctx.Requests[r].Video
	}
	probes := core.NewProbes(ctx.Nearest, videos, m, ctx.World.NumVideos)
	groupOf, placedAt := keys.Locate(probes), plan.Placement.Locate(probes)
	targets := make([]int, len(ctx.Requests))
	for r, h := range ctx.Nearest {
		if k := groupOf[r]; k >= 0 && groups[k].next < groups[k].end {
			g := &groups[k]
			targets[r] = int(plan.Redirects[order[g.next]].To)
			if g.left--; g.left == 0 {
				if g.next++; g.next < g.end {
					g.left = plan.Redirects[order[g.next]].Count
				}
			}
			continue
		}
		if localBudget[h] > 0 && placedAt[r] >= 0 {
			targets[r] = h
			localBudget[h]--
			continue
		}
		targets[r] = sim.CDN
	}
	return &sim.Assignment{Placement: plan.Placement, Target: targets}, nil
}
