package scheme

import (
	"fmt"

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

// MaterializePlan converts a core.Plan into per-request targets by
// the plan's routing rule (core.Router) under the slot's effective
// capacities: redirected (hotspot, video) demand goes to the plan's
// targets for their planned counts, the rest is served locally while
// the local service budget (capacity minus reserved inflow) lasts, and
// everything else goes to the CDN. It is exported so experiments can
// route a plan produced outside the policy (e.g. from predicted
// demand).
func MaterializePlan(ctx *sim.SlotContext, plan *core.Plan) (*sim.Assignment, error) {
	router, err := core.NewRouter(plan.Placement, plan.Redirects, ctx.EffectiveCapacity())
	if err != nil {
		return nil, err
	}
	videos := make([]trace.VideoID, len(ctx.Requests))
	for r := range ctx.Requests {
		videos[r] = ctx.Requests[r].Video
	}
	return &sim.Assignment{Placement: plan.Placement, Target: router.RouteAll(ctx.Nearest, videos)}, nil
}
