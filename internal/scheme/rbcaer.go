package scheme

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// RBCAer adapts the core scheduler (Algorithm 1 + Procedure 1) to the
// simulator: it runs a scheduling round on the slot's aggregated
// demand, then materialises the plan's per-video redirects into
// per-request targets.
type RBCAer struct {
	// Params are forwarded to core.New; the zero value selects
	// core.DefaultParams.
	Params core.Params

	// sched caches the core scheduler across slots for one world.
	sched *core.Scheduler
}

var _ sim.Scheduler = (*RBCAer)(nil)

// NewRBCAer returns the policy with the given parameters.
func NewRBCAer(params core.Params) *RBCAer {
	return &RBCAer{Params: params}
}

// Name implements sim.Scheduler.
func (p *RBCAer) Name() string { return "RBCAer" }

// Schedule implements sim.Scheduler.
func (p *RBCAer) Schedule(ctx *sim.SlotContext) (*sim.Assignment, error) {
	if ctx == nil {
		return nil, fmt.Errorf("scheme: nil context")
	}
	if p.Params == (core.Params{}) {
		p.Params = core.DefaultParams()
	}
	if p.sched == nil || p.sched.World() != ctx.World {
		sched, err := core.New(ctx.World, p.Params)
		if err != nil {
			return nil, fmt.Errorf("scheme: building RBCAer: %w", err)
		}
		p.sched = sched
	}

	return ScheduleSlot(ctx, p.sched.ScheduleRound)
}

// ScheduleSlot is the shared tail of every plan-producing policy: run
// one round (a scheduler's ScheduleRound) against the slot's effective,
// fault-degraded capacities and materialise its plan into the slot's
// assignment.
func ScheduleSlot(ctx *sim.SlotContext, round func(*core.Demand, core.Constraints) (*core.Plan, error)) (*sim.Assignment, error) {
	plan, err := round(ctx.Demand, core.Constraints{
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
func MaterializePlan(ctx *sim.SlotContext, plan *core.Plan) (*sim.Assignment, error) {
	m := len(ctx.World.Hotspots)

	// Redirect queues keyed by (source hotspot, video), and the inflow
	// each target must reserve capacity for.
	type redirectQueue struct {
		targets []int
		counts  []int64
	}
	queues := make(map[int64]*redirectQueue)
	inflow := make([]int64, m)
	key := func(h int, v trace.VideoID) int64 {
		return int64(h)*int64(ctx.World.NumVideos) + int64(v)
	}
	for _, rd := range plan.Redirects {
		k := key(int(rd.From), rd.Video)
		q := queues[k]
		if q == nil {
			q = &redirectQueue{}
			queues[k] = q
		}
		q.targets = append(q.targets, int(rd.To))
		q.counts = append(q.counts, rd.Count)
		inflow[rd.To] += rd.Count
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

	targets := make([]int, len(ctx.Requests))
	for r, req := range ctx.Requests {
		h := ctx.Nearest[r]
		if q, ok := queues[key(h, req.Video)]; ok && len(q.targets) > 0 {
			j := q.targets[0]
			targets[r] = j
			q.counts[0]--
			if q.counts[0] == 0 {
				q.targets = q.targets[1:]
				q.counts = q.counts[1:]
			}
			continue
		}
		if localBudget[h] > 0 && plan.Placement[h].Contains(int(req.Video)) {
			targets[r] = h
			localBudget[h]--
			continue
		}
		targets[r] = sim.CDN
	}
	return &sim.Assignment{Placement: plan.Placement, Target: targets}, nil
}
